package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"voiceguard/internal/audio"
	"voiceguard/internal/parallel"
	"voiceguard/internal/sensors"
	"voiceguard/internal/soundfield"
	"voiceguard/internal/telemetry"
	"voiceguard/internal/trajectory"
)

// StreamVerifier is the cascade engine (Fig. 4): the one place stages are
// admitted, run, abandoned and decided. It has two feeders. The frame
// stream offers channels chunk by chunk; System.VerifyContext loads a
// complete session at once. Chunks accumulate into per-channel buffers;
// a stage is admitted the moment every channel it reads is complete, and
// the session REJECTS the instant any admitted stage fails — without
// waiting for the rest of the upload. Stages admitted at the same moment
// run concurrently (the complete-session feeder admits all of them
// together). ACCEPT requires every configured stage to run and pass, and
// a deadline surfaces as an error, never as a fabricated REJECT.
//
// One extra early exit runs before its channel completes: each
// magnetometer chunk is re-checked via settledMetrics, whose statistics
// are monotone lower bounds of the full-trace values — crossing Mt/βt on
// a prefix proves the complete session would reject, so the loudspeaker
// stage may trip mid-upload (the paper's §IV-B3 signature is strongest
// in the first instants the phone approaches a driver).
//
// A StreamVerifier is not safe for concurrent use: the connection
// handler that owns the stream feeds it frames in arrival order.
type StreamVerifier struct {
	sys     *System
	traceID string
	root    *telemetry.Span
	start   time.Time

	claimedUser string
	pilotHz     float64 // unit: Hz
	sweepStart  float64 // unit: s
	sweepEnd    float64 // unit: s

	gyro, accel, mag *sensors.Trace
	field            []soundfield.Measurement
	capture, voice   *audio.Signal

	helloDone, marksDone                                            bool
	gyroDone, accelDone, magDone, fieldDone, captureDone, voiceDone bool

	gesture  *trajectory.Gesture
	results  [stageCount]*StageResult // indexed like cascade
	decision *Decision
	dead     bool
}

// cascade is the paper's stage table (Fig. 4), in cascade order:
// decisions list stage results in this order no matter when each stage
// actually ran. Each entry says whether a System configures the stage,
// when the engine has every input the stage reads, and how it runs.
var cascade = [stageCount]struct {
	stage      Stage
	configured func(s *System) bool
	ready      func(v *StreamVerifier) bool
	verify     func(v *StreamVerifier, sp *telemetry.Span) StageResult
}{
	{
		StageDistance,
		func(s *System) bool { return s.Distance != nil },
		(*StreamVerifier).distanceReady,
		func(v *StreamVerifier, sp *telemetry.Span) StageResult {
			return v.sys.Distance.VerifySpan(sp, v.gesture)
		},
	},
	{
		StageSoundField,
		func(s *System) bool { return s.Field != nil },
		func(v *StreamVerifier) bool { return v.fieldDone },
		func(v *StreamVerifier, sp *telemetry.Span) StageResult { return v.sys.Field.VerifySpan(sp, v.field) },
	},
	{
		StageLoudspeaker,
		func(s *System) bool { return s.Speaker != nil },
		func(v *StreamVerifier) bool { return v.magDone },
		func(v *StreamVerifier, sp *telemetry.Span) StageResult { return v.sys.Speaker.VerifySpan(sp, v.mag) },
	},
	{
		StageSpeakerID,
		func(s *System) bool { return s.Identity != nil },
		func(v *StreamVerifier) bool { return v.helloDone && v.voiceDone },
		func(v *StreamVerifier, sp *telemetry.Span) StageResult {
			return v.sys.Identity.VerifySpan(sp, v.claimedUser, v.voice)
		},
	},
}

// stageCount is the number of stages in the cascade.
const stageCount = 4

// loudspeakerSlot is the loudspeaker stage's index in cascade, the one
// stage with a prefix early exit.
const loudspeakerSlot = 2

// hasStages reports whether any cascade stage is configured.
func (s *System) hasStages() bool {
	for _, c := range cascade {
		if c.configured(s) {
			return true
		}
	}
	return false
}

// ErrStreamClosed is returned when chunks are offered to a verifier that
// already reached a terminal state (decided, failed, or abandoned).
var ErrStreamClosed = errors.New("core: stream verifier is closed")

// NewStreamVerifier opens an incremental verification under the given
// trace ID (empty mints one). The root span starts now, so the eventual
// decision's Elapsed covers the whole stream — upload included — which
// is what "time to decision" means on this path.
func (s *System) NewStreamVerifier(traceID string) (*StreamVerifier, error) {
	if !s.hasStages() {
		return nil, ErrIncompleteSystem
	}
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	v := s.newVerifier(traceID)
	v.root.SetString("transport", "stream")
	v.gyro = &sensors.Trace{Name: "gyro"}
	v.accel = &sensors.Trace{Name: "accel"}
	v.mag = &sensors.Trace{Name: "mag"}
	return v, nil
}

// newVerifier starts an engine run: its root span and the clock its
// decision's Elapsed reads.
func (s *System) newVerifier(traceID string) *StreamVerifier {
	root := s.Tracer.StartTrace(traceID, "verify")
	return &StreamVerifier{sys: s, traceID: traceID, root: root, start: time.Now()}
}

// load fills every channel at once from a complete, validated session,
// reusing its fused gesture, so every configured stage becomes ready
// together.
func (v *StreamVerifier) load(session *SessionData) {
	v.claimedUser = session.ClaimedUser
	v.gesture = session.Gesture
	v.mag = session.Gesture.Mag
	v.field = session.Field
	v.voice = session.Voice
	v.helloDone, v.marksDone = true, true
	v.gyroDone, v.accelDone, v.magDone = true, true, true
	v.fieldDone, v.captureDone, v.voiceDone = true, true, true
}

// TraceID returns the session's trace ID.
func (v *StreamVerifier) TraceID() string { return v.traceID }

// Decided returns the decision if the session has already been decided,
// else nil.
func (v *StreamVerifier) Decided() *Decision { return v.decision }

// admit gates every offer: a decided session swallows trailing chunks
// (the connection drains without re-evaluating), a dead one refuses, and
// a dead context abandons the session — surfacing the deadline, never a
// fabricated rejection.
func (v *StreamVerifier) admit(ctx context.Context) (open bool, err error) {
	if v.decision != nil {
		return false, nil
	}
	if v.dead {
		return false, ErrStreamClosed
	}
	if err := ctx.Err(); err != nil {
		return false, v.expire(err)
	}
	return true, nil
}

// OfferHello records the session's identity claim and ranging pilot.
// unit: pilotHz Hz
func (v *StreamVerifier) OfferHello(ctx context.Context, claimedUser string, pilotHz float64) error {
	open, err := v.admit(ctx)
	if !open || err != nil {
		return err
	}
	if v.helloDone {
		return v.fail(fmt.Errorf("core: duplicate hello on stream %s", v.traceID))
	}
	v.claimedUser = claimedUser
	v.pilotHz = pilotHz
	v.helloDone = true
	return nil
}

// SetMarks records the ranging sweep boundaries.
// unit: sweepStart s, sweepEnd s
func (v *StreamVerifier) SetMarks(ctx context.Context, sweepStart, sweepEnd float64) error {
	open, err := v.admit(ctx)
	if !open || err != nil {
		return err
	}
	v.sweepStart, v.sweepEnd = sweepStart, sweepEnd
	v.marksDone = true
	return nil
}

// OfferGyro extends the gyroscope trace; last closes the channel. A
// non-nil decision is an early REJECT — the session is over.
func (v *StreamVerifier) OfferGyro(ctx context.Context, samples []sensors.Sample, last bool) (*Decision, error) {
	return v.offerSensor(ctx, v.gyro, &v.gyroDone, samples, last)
}

// OfferAccel extends the accelerometer trace; last closes the channel.
func (v *StreamVerifier) OfferAccel(ctx context.Context, samples []sensors.Sample, last bool) (*Decision, error) {
	return v.offerSensor(ctx, v.accel, &v.accelDone, samples, last)
}

// OfferMag extends the magnetometer trace; last closes the channel.
// Every magnetometer chunk additionally runs the settled-prefix
// loudspeaker check, so a session waving the phone at a speaker driver
// can reject here long before its audio uploads.
func (v *StreamVerifier) OfferMag(ctx context.Context, samples []sensors.Sample, last bool) (*Decision, error) {
	open, err := v.admit(ctx)
	if !open || err != nil {
		return nil, err
	}
	if err := appendSensor(v.mag, &v.magDone, samples, last); err != nil {
		return nil, v.fail(err)
	}
	if !v.magDone && v.sys.Speaker != nil && v.results[loudspeakerSlot] == nil {
		if m, ok := settledMetrics(v.mag); ok && (m.Swing >= v.sys.Speaker.Mt || m.MaxRate >= v.sys.Speaker.Bt) {
			prefix := stageRun{loudspeakerSlot, func(sp *telemetry.Span) StageResult {
				sp.SetBool("settled_prefix", true)
				sp.SetInt("prefix_samples", int64(v.mag.Len()))
				return v.sys.Speaker.VerifyMetricsSpan(sp, m)
			}}
			if d, err := v.run(ctx, []stageRun{prefix}); d != nil || err != nil {
				return d, err
			}
		}
	}
	return v.advance(ctx)
}

// offerSensor is the shared gyro/accel append-then-advance path.
func (v *StreamVerifier) offerSensor(ctx context.Context, tr *sensors.Trace, done *bool, samples []sensors.Sample, last bool) (*Decision, error) {
	open, err := v.admit(ctx)
	if !open || err != nil {
		return nil, err
	}
	if err := appendSensor(tr, done, samples, last); err != nil {
		return nil, v.fail(err)
	}
	return v.advance(ctx)
}

func appendSensor(tr *sensors.Trace, done *bool, samples []sensors.Sample, last bool) error {
	if *done {
		return fmt.Errorf("core: %s chunk after channel close", tr.Name)
	}
	tr.Samples = append(tr.Samples, samples...)
	if last {
		*done = true
	}
	return nil
}

// OfferField extends the sound-field sweep; last closes the channel.
func (v *StreamVerifier) OfferField(ctx context.Context, points []soundfield.Measurement, last bool) (*Decision, error) {
	open, err := v.admit(ctx)
	if !open || err != nil {
		return nil, err
	}
	if v.fieldDone {
		return nil, v.fail(fmt.Errorf("core: field chunk after channel close"))
	}
	v.field = append(v.field, points...)
	if last {
		v.fieldDone = true
	}
	return v.advance(ctx)
}

// OfferCapture extends the gesture-capture audio channel (the ranging
// sweep recording); last closes it. Rate must not change mid-channel.
// unit: rate Hz
func (v *StreamVerifier) OfferCapture(ctx context.Context, rate float64, samples []float64, last bool) (*Decision, error) {
	return v.offerAudio(ctx, &v.capture, &v.captureDone, "capture", rate, samples, last)
}

// OfferVoice extends the passphrase audio channel; last closes it.
// unit: rate Hz
func (v *StreamVerifier) OfferVoice(ctx context.Context, rate float64, samples []float64, last bool) (*Decision, error) {
	return v.offerAudio(ctx, &v.voice, &v.voiceDone, "voice", rate, samples, last)
}

// unit: rate Hz
func (v *StreamVerifier) offerAudio(ctx context.Context, sig **audio.Signal, done *bool, name string, rate float64, samples []float64, last bool) (*Decision, error) {
	open, err := v.admit(ctx)
	if !open || err != nil {
		return nil, err
	}
	if *done {
		return nil, v.fail(fmt.Errorf("core: %s audio chunk after channel close", name))
	}
	if *sig == nil {
		*sig = &audio.Signal{Rate: rate}
	} else if (*sig).Rate != rate { //lint:allow floatcmp the wire carries exact float64 bits; any change is a protocol error
		return nil, v.fail(fmt.Errorf("core: %s audio rate changed mid-stream (%v -> %v)", name, (*sig).Rate, rate))
	}
	(*sig).Samples = append((*sig).Samples, samples...)
	if last {
		*done = true
	}
	return v.advance(ctx)
}

// Finish seals the session: every channel must be closed and the
// assembled session must validate — the same bar System.VerifyContext
// sets — before the stages admitted last run and the verdict exists.
func (v *StreamVerifier) Finish(ctx context.Context) (Decision, error) {
	if v.decision != nil {
		return *v.decision, nil
	}
	if _, err := v.admit(ctx); err != nil {
		return Decision{TraceID: v.traceID}, err
	}
	if v.dead {
		return Decision{TraceID: v.traceID}, ErrStreamClosed
	}
	if !v.helloDone || !v.marksDone {
		return Decision{TraceID: v.traceID}, v.fail(fmt.Errorf("core: finish before hello/segment marks"))
	}
	for name, done := range map[string]bool{
		"gyro": v.gyroDone, "accel": v.accelDone, "mag": v.magDone,
		"field": v.fieldDone, "capture": v.captureDone, "voice": v.voiceDone,
	} {
		if !done {
			return Decision{TraceID: v.traceID}, v.fail(fmt.Errorf("core: finish before %s channel closed", name))
		}
	}
	if err := v.buildGesture(); err != nil {
		return Decision{TraceID: v.traceID}, v.fail(err)
	}
	session := &SessionData{
		ClaimedUser: v.claimedUser,
		Gesture:     v.gesture,
		Field:       v.field,
		Voice:       v.voice,
	}
	if err := session.Validate(); err != nil {
		return Decision{TraceID: v.traceID}, v.fail(err)
	}
	return v.conclude(ctx)
}

// conclude runs every stage still waiting and decides. Every configured
// stage must have run; ACCEPT requires all of them to pass.
func (v *StreamVerifier) conclude(ctx context.Context) (Decision, error) {
	if d, err := v.advance(ctx); err != nil {
		return Decision{TraceID: v.traceID}, err
	} else if d != nil {
		return *d, nil
	}
	for i, c := range cascade {
		if c.configured(v.sys) && v.results[i] == nil {
			return Decision{TraceID: v.traceID}, v.fail(fmt.Errorf("core: stage %s never became admissible", c.stage.MetricName()))
		}
	}
	return *v.decide(), nil
}

// Abandon terminates an undecided session without a verdict (connection
// loss, deadline, shutdown). The trace records the outcome so abandoned
// sessions are distinguishable in the flight recorder; it never
// fabricates a rejection.
func (v *StreamVerifier) Abandon(outcome string) {
	if v.decision != nil || v.dead {
		return
	}
	v.dead = true
	v.root.SetString("outcome", outcome)
	v.sys.Tracer.Finish(v.root, telemetry.Verdict{Accepted: false, Elapsed: time.Since(v.start)})
}

// fail marks the verifier dead on a malformed stream or invalid session
// and returns the error for the caller to propagate.
func (v *StreamVerifier) fail(err error) error {
	v.Abandon("error")
	return err
}

// expire abandons the session at its deadline and returns the error
// wrapping cause (test it with errors.Is).
func (v *StreamVerifier) expire(cause error) error {
	elapsed := time.Since(v.start)
	v.Abandon("deadline_exceeded")
	return fmt.Errorf("core: verification abandoned after %v: %w", elapsed, cause)
}

func (v *StreamVerifier) distanceReady() bool {
	return v.helloDone && v.marksDone && v.gyroDone && v.accelDone && v.magDone && v.captureDone
}

// advance runs every configured stage whose inputs just became complete.
// A non-nil decision is a REJECT (early relative to the frames still in
// flight).
func (v *StreamVerifier) advance(ctx context.Context) (*Decision, error) {
	if v.sys.Distance != nil && v.results[0] == nil && v.distanceReady() {
		if err := v.buildGesture(); err != nil {
			return nil, v.fail(err)
		}
	}
	var runs []stageRun
	for i, c := range cascade {
		if c.configured(v.sys) && v.results[i] == nil && c.ready(v) {
			runs = append(runs, stageRun{i, func(sp *telemetry.Span) StageResult { return c.verify(v, sp) }})
		}
	}
	if len(runs) == 0 {
		return nil, nil
	}
	return v.run(ctx, runs)
}

// buildGesture fuses the sensor and capture channels into the gesture
// the distance stage (and evidence parity) needs. Idempotent.
func (v *StreamVerifier) buildGesture() error {
	if v.gesture != nil {
		return nil
	}
	g, err := trajectory.FromUpload(v.gyro, v.accel, v.mag, v.capture, v.pilotHz, v.sweepStart, v.sweepEnd)
	if err != nil {
		return err
	}
	v.gesture = g
	return nil
}

// stageRun is one admitted stage: its cascade slot and the verification
// to run over the inputs the engine holds.
type stageRun struct {
	slot   int
	verify func(sp *telemetry.Span) StageResult
}

// run executes admitted stages through parallel.DoContext — several at
// once when they became ready together — and records their results. A
// non-nil decision is a REJECT.
//
// The context bounds the run: it is checked again as each stage starts
// (a stage not yet begun when the deadline passes never touches the
// session), and the fan-out stops waiting the moment ctx dies. A stage
// still running then detaches; it writes only to its own local slot,
// which is never read. Either way the session is abandoned with an
// error wrapping ctx.Err(), so a timeout never surfaces as a biometric
// REJECT.
func (v *StreamVerifier) run(ctx context.Context, runs []stageRun) (*Decision, error) {
	results := make([]StageResult, len(runs))
	ran := make([]bool, len(runs))
	tasks := make([]func(), len(runs))
	for k, r := range runs {
		tasks[k] = func() { results[k], ran[k] = v.runStage(ctx, cascade[r.slot].stage, r.verify) }
	}
	if err := parallel.DoContext(ctx, tasks...); err != nil {
		return nil, v.expire(err)
	}
	for _, ok := range ran {
		if !ok {
			return nil, v.expire(ctx.Err())
		}
	}
	rejected := false
	for k, r := range runs {
		v.results[r.slot] = &results[k]
		rejected = rejected || !results[k].Pass
	}
	if rejected {
		return v.decide(), nil
	}
	return nil, nil
}

// runStage is the per-stage harness: the admission deadline check
// (ran=false when ctx is already dead), the fault-injection hook, and
// an evidence-carrying "stage:<name>" span around the verification,
// which stamps its own Elapsed (TimeStage).
func (v *StreamVerifier) runStage(ctx context.Context, st Stage, verify func(sp *telemetry.Span) StageResult) (res StageResult, ran bool) {
	if ctx.Err() != nil {
		return res, false
	}
	if v.sys.StageHook != nil {
		v.sys.StageHook(ctx, st)
	}
	sp := v.root.StartSpan(telemetry.StageSpanName + st.MetricName())
	res = verify(sp)
	sp.SetBool("pass", res.Pass)
	sp.SetFloat("score", res.Score, "")
	sp.SetString("detail", res.Detail)
	sp.End()
	return res, true
}

// decide assembles the verdict from the stages that ran, in cascade
// order, truncated at the first failure, and finishes the trace.
func (v *StreamVerifier) decide() *Decision {
	d := &Decision{TraceID: v.traceID, Accepted: true}
	for _, r := range v.results {
		if r == nil {
			continue
		}
		d.Stages = append(d.Stages, *r)
		if !r.Pass {
			d.FailedStage = r.Stage
			d.Accepted = false
			break
		}
	}
	d.Elapsed = time.Since(v.start)
	verdict := telemetry.Verdict{Accepted: d.Accepted, Elapsed: d.Elapsed}
	if !d.Accepted {
		verdict.FailedStage = d.FailedStage.MetricName()
	}
	v.sys.Tracer.Finish(v.root, verdict)
	v.decision = d
	return d
}
