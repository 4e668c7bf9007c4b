package core

import (
	"fmt"

	"voiceguard/internal/sensors"
	"voiceguard/internal/telemetry"
)

// LoudspeakerDetector implements stage 3 (§IV-B3): it flags sessions
// whose magnetometer trace shows the static and dynamic signature of a
// conventional loudspeaker. Two statistics are thresholded jointly, as in
// the paper: the magnitude swing of the field during the gesture
// (approaching a magnet swings |B| by tens of µT) against Mt, and the
// maximum change rate against βt. Magnitude-based statistics are used
// because |B| is invariant to phone orientation.
type LoudspeakerDetector struct {
	// Mt is the magnitude-swing threshold in µT.
	Mt float64 // unit: µT
	// Bt is the change-rate threshold in µT/s.
	Bt float64 // unit: µT/s
}

// NewLoudspeakerDetector returns the detector at the paper's operating
// point for a quiet environment.
func NewLoudspeakerDetector() *LoudspeakerDetector {
	return &LoudspeakerDetector{Mt: 10, Bt: 150}
}

// Metrics are the detector's raw statistics for one trace.
type Metrics struct {
	// Swing is max|B| - min|B| over the gesture, µT.
	Swing float64 // unit: µT
	// MaxRate is the maximum |d|B|/dt|, µT/s.
	MaxRate float64 // unit: µT/s
}

// Measure computes the detection statistics of a magnetometer trace.
func Measure(mag *sensors.Trace) Metrics {
	mags := mag.Magnitudes()
	if len(mags) == 0 {
		return Metrics{}
	}
	// Light smoothing (3-sample moving average) so single-sample sensor
	// noise does not dominate the rate statistic.
	sm := make([]float64, len(mags))
	for i := range mags {
		lo, hi := i-1, i+1
		if lo < 0 {
			lo = 0
		}
		if hi >= len(mags) {
			hi = len(mags) - 1
		}
		var s float64
		for k := lo; k <= hi; k++ {
			s += mags[k]
		}
		sm[i] = s / float64(hi-lo+1)
	}
	minV, maxV := sm[0], sm[0]
	for _, v := range sm {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	var maxRate float64
	for i := 1; i < len(sm); i++ {
		dt := mag.Samples[i].T - mag.Samples[i-1].T
		if dt <= 0 {
			continue
		}
		r := (sm[i] - sm[i-1]) / dt
		if r < 0 {
			r = -r
		}
		if r > maxRate {
			maxRate = r
		}
	}
	return Metrics{Swing: maxV - minV, MaxRate: maxRate}
}

// settledMetrics computes the detection statistics over the *settled*
// prefix of an in-flight magnetometer trace: only smoothed magnitudes
// whose 3-sample window can no longer change when more samples arrive
// (indices 0..len-2 — index len-1 still awaits its right neighbor).
// Every settled value equals the value Measure will compute for the full
// trace, so the returned swing and max-rate are lower bounds of the
// final statistics and monotone nondecreasing as the trace grows: a
// prefix that crosses Mt/βt guarantees the full session rejects. This is
// the soundness argument behind the streaming early exit — Measure on a
// raw prefix would not do, because its boundary sample is smoothed over
// a 2-wide window and can overshoot the final 3-wide value.
//
// ok is false while fewer than two settled values exist (trace shorter
// than 3 samples); the prefix carries no decisive evidence yet.
func settledMetrics(mag *sensors.Trace) (m Metrics, ok bool) {
	if mag == nil {
		return Metrics{}, false
	}
	mags := mag.Magnitudes()
	n := len(mags) - 1 // settled count: index n-1 of the prefix is still open
	if n < 2 {
		return Metrics{}, false
	}
	sm := make([]float64, n)
	for i := 0; i < n; i++ {
		lo := i - 1
		if lo < 0 {
			lo = 0
		}
		hi := i + 1 // always < len(mags): settled by construction
		var s float64
		for k := lo; k <= hi; k++ {
			s += mags[k]
		}
		sm[i] = s / float64(hi-lo+1)
	}
	minV, maxV := sm[0], sm[0]
	for _, v := range sm {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	var maxRate float64
	for i := 1; i < n; i++ {
		dt := mag.Samples[i].T - mag.Samples[i-1].T
		if dt <= 0 {
			continue
		}
		r := (sm[i] - sm[i-1]) / dt
		if r < 0 {
			r = -r
		}
		if r > maxRate {
			maxRate = r
		}
	}
	return Metrics{Swing: maxV - minV, MaxRate: maxRate}, true
}

// Verify runs loudspeaker detection on a magnetometer trace. Pass means
// "no loudspeaker detected".
func (d *LoudspeakerDetector) Verify(mag *sensors.Trace) (res StageResult) {
	return d.VerifySpan(nil, mag)
}

// VerifySpan is Verify attaching its decision evidence to span (nil
// disables tracing at zero cost): the measured field swing and change
// rate with the live Mt/βt thresholds (which Calibrate may have raised),
// plus a "field-measure" child around statistic extraction. The caller
// owns span's End.
func (d *LoudspeakerDetector) VerifySpan(span *telemetry.Span, mag *sensors.Trace) (res StageResult) {
	defer TimeStage(&res)()
	res.Stage = StageLoudspeaker
	span.SetFloat("threshold_mt_ut", d.Mt, "µT")
	span.SetFloat("threshold_beta_ut_per_s", d.Bt, "µT/s")
	if mag == nil || mag.Len() < 2 {
		res.Detail = "no magnetometer trace"
		return res
	}
	sub := span.StartSpan("field-measure")
	m := Measure(mag)
	sub.End()
	d.judgeSpan(span, m, &res)
	return res
}

// VerifyMetricsSpan judges precomputed detection statistics against the
// live thresholds, attaching the same evidence VerifySpan would. The
// streaming path uses it to reject on a settled magnetometer prefix
// (settledMetrics) before the trace finishes uploading; the statistics
// are lower bounds of the full-trace values, so a reject here is exactly
// the reject the complete session would earn. The caller owns span's
// End.
func (d *LoudspeakerDetector) VerifyMetricsSpan(span *telemetry.Span, m Metrics) (res StageResult) {
	defer TimeStage(&res)()
	res.Stage = StageLoudspeaker
	span.SetFloat("threshold_mt_ut", d.Mt, "µT")
	span.SetFloat("threshold_beta_ut_per_s", d.Bt, "µT/s")
	d.judgeSpan(span, m, &res)
	return res
}

// judgeSpan scores measured statistics against the thresholds, stamping
// span attributes, evidence, score and verdict onto res. Shared by
// VerifySpan (full trace) and VerifyMetricsSpan (streaming prefix).
func (d *LoudspeakerDetector) judgeSpan(span *telemetry.Span, m Metrics, res *StageResult) {
	span.SetFloat("field_ut", m.Swing, "µT")
	span.SetFloat("beta_ut_per_s", m.MaxRate, "µT/s")
	res.Evidence[0] = EvidenceValue{Metric: EvidenceFieldUT, Value: m.Swing}
	res.Evidence[1] = EvidenceValue{Metric: EvidenceBetaUTPerS, Value: m.MaxRate}
	// Score: normalized margin below the nearer threshold (positive =
	// clean).
	swingMargin := 1 - m.Swing/d.Mt
	rateMargin := 1 - m.MaxRate/d.Bt
	res.Score = swingMargin
	if rateMargin < res.Score {
		res.Score = rateMargin
	}
	// Both gates are written as pass conditions, so non-finite evidence
	// (NaN compares false) fails closed.
	smallSwing := m.Swing < d.Mt
	slowChange := m.MaxRate < d.Bt
	switch {
	case !smallSwing:
		res.Detail = fmt.Sprintf("magnetic swing %.1f µT ≥ Mt %.1f µT", m.Swing, d.Mt)
	case !slowChange:
		res.Detail = fmt.Sprintf("magnetic rate %.0f µT/s ≥ βt %.0f µT/s", m.MaxRate, d.Bt)
	default:
		res.Pass = true
		res.Detail = fmt.Sprintf("clean field (swing %.1f µT, rate %.0f µT/s)", m.Swing, m.MaxRate)
	}
}

// Calibrate implements the §VII adaptive-thresholding extension: given an
// ambient magnetometer recording taken *before* the gesture (phone held
// still), the thresholds are raised above the observed environmental
// swing and rate so that high-EMF environments (computer, car) do not
// drown the detector in false alarms. The margins keep genuine
// loudspeaker signatures (tens of µT up close) detectable.
func (d *LoudspeakerDetector) Calibrate(ambient *sensors.Trace) {
	if ambient == nil || ambient.Len() < 2 {
		return
	}
	m := Measure(ambient)
	base := NewLoudspeakerDetector()
	if mt := 2.5*m.Swing + 4; mt > base.Mt {
		d.Mt = mt
	} else {
		d.Mt = base.Mt
	}
	if bt := 2.5*m.MaxRate + 40; bt > base.Bt {
		d.Bt = bt
	} else {
		d.Bt = base.Bt
	}
}
