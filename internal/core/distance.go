package core

import (
	"fmt"

	"voiceguard/internal/telemetry"
	"voiceguard/internal/trajectory"
)

// DistanceVerifier implements stage 1: the sound-source distance check
// (§IV-B1). The gesture's sweep must pivot around the sound source within
// the distance threshold Dt, the circle fit must be arc-like (bounded
// residual), and the acoustic radial track must agree that the pivot *is*
// the sound source (bounded radial deviation) — the defense against
// faking the gesture in front of a distant loudspeaker.
type DistanceVerifier struct {
	// MaxDistance is Dt in meters. The paper calibrates Dt = 6 cm; the
	// default adds the estimator's margin on top.
	MaxDistance float64 // unit: m
	// MaxResidual is the maximum RMS circle-fit residual in meters.
	MaxResidual float64 // unit: m
	// MaxRadialStd is the maximum acoustic radial deviation during the
	// sweep in meters.
	MaxRadialStd float64 // unit: m
	// MinTurn is the minimum sweep excursion in radians (rejects
	// motionless replays of the audio channel).
	MinTurn float64 // unit: rad
}

// NewDistanceVerifier returns the verifier at the paper's operating point.
func NewDistanceVerifier() *DistanceVerifier {
	return &DistanceVerifier{
		MaxDistance:  0.075, // Dt = 6 cm + estimator margin
		MaxResidual:  0.01,
		MaxRadialStd: 0.012,
		MinTurn:      0.8,
	}
}

// Verify runs the distance check over a gesture.
func (v *DistanceVerifier) Verify(g *trajectory.Gesture) (res StageResult) {
	return v.VerifySpan(nil, g)
}

// VerifySpan is Verify attaching its decision evidence to span (nil
// disables tracing at zero cost): the estimated quantities and the live
// thresholds they are gated by, plus a "trajectory-estimate" child around
// the circle fit. The caller owns span's End.
func (v *DistanceVerifier) VerifySpan(span *telemetry.Span, g *trajectory.Gesture) (res StageResult) {
	defer TimeStage(&res)()
	res.Stage = StageDistance
	sub := span.StartSpan("trajectory-estimate")
	est, err := g.Estimate()
	sub.End()
	span.SetFloat("threshold_dt_cm", v.MaxDistance*100, "cm")
	span.SetFloat("threshold_residual_mm", v.MaxResidual*1000, "mm")
	span.SetFloat("threshold_radial_std_mm", v.MaxRadialStd*1000, "mm")
	span.SetFloat("threshold_min_turn_rad", v.MinTurn, "rad")
	if err != nil {
		res.Detail = fmt.Sprintf("trajectory estimation failed: %v", err)
		return res
	}
	span.SetFloat("distance_cm", est.Distance*100, "cm")
	span.SetFloat("residual_mm", est.Residual*1000, "mm")
	span.SetFloat("radial_std_mm", est.SweepRadialStd*1000, "mm")
	span.SetFloat("turn_rad", est.Turn, "rad")
	res.Evidence[0] = EvidenceValue{Metric: EvidenceDistanceCM, Value: est.Distance * 100}
	// Score: margin below the distance gate (positive = inside).
	res.Score = v.MaxDistance - est.Distance
	// Each gate is written as its pass condition, so non-finite evidence
	// (NaN compares false) fails closed.
	turned := est.Turn >= v.MinTurn
	near := est.Distance <= v.MaxDistance
	arcLike := est.Residual <= v.MaxResidual
	centered := est.SweepRadialStd <= v.MaxRadialStd
	switch {
	case !turned:
		res.Detail = fmt.Sprintf("sweep turn %.2f rad below minimum %.2f", est.Turn, v.MinTurn)
	case !near:
		res.Detail = fmt.Sprintf("source distance %.1f cm exceeds Dt %.1f cm",
			est.Distance*100, v.MaxDistance*100)
	case !arcLike:
		res.Detail = fmt.Sprintf("trajectory not arc-like (residual %.1f mm)", est.Residual*1000)
	case !centered:
		res.Detail = fmt.Sprintf("sweep not centered on sound source (radial std %.1f mm)",
			est.SweepRadialStd*1000)
	default:
		res.Pass = true
		res.Detail = fmt.Sprintf("source at %.1f cm", est.Distance*100)
	}
	return res
}
