package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"voiceguard/internal/sensors"
	"voiceguard/internal/telemetry"
)

// System is the assembled VoiceGuard pipeline.
type System struct {
	// Distance is stage 1.
	Distance *DistanceVerifier
	// Field is stage 2.
	Field *SoundFieldVerifier
	// Speaker is stage 3 (loudspeaker detection).
	Speaker *LoudspeakerDetector
	// Identity is stage 4.
	Identity *SpeakerVerifier
	// Tracer, when set, records an evidence-carrying span tree per
	// verification: one "stage:<name>" span per executed stage carrying
	// the stage's measured quantities and live thresholds, with sub-op
	// and worker-block children below. Nil disables tracing at the cost
	// of one pointer test per call.
	Tracer *telemetry.Tracer
	// StageHook, when set, runs at the start of every stage verification
	// with the request context and the stage about to execute. It is the
	// fault-injection seam the deadline and load-shedding tests use to
	// make a stage artificially slow or hung (a hook that selects on
	// ctx.Done simulates a stalled sensor back-end); production
	// deployments leave it nil.
	StageHook func(ctx context.Context, st Stage)
}

// SystemConfig assembles a System with defaults.
type SystemConfig struct {
	// FieldSeed seeds the sound-field verifier's training sweeps.
	FieldSeed int64
	// ASV configures the identity back-end.
	ASV SpeakerVerifierConfig
	// DisableDistance, DisableField and DisableMagnetic drop individual
	// stages — used by the ablation benchmarks, not production.
	DisableDistance, DisableField, DisableMagnetic bool
}

// BuildSystem assembles the machine-attack stages (1–3). The ASV stage is
// attached separately with AttachIdentity because many experiments run
// without it (the paper's §VI evaluates the anti-spoofing subsystem in
// isolation, Spear handling human impostors).
func BuildSystem(cfg SystemConfig) (*System, error) {
	s := &System{}
	if !cfg.DisableDistance {
		s.Distance = NewDistanceVerifier()
	}
	if !cfg.DisableField {
		mouth, machine, err := DefaultSoundFieldTraining(cfg.FieldSeed)
		if err != nil {
			return nil, fmt.Errorf("core: generating sound-field training data: %w", err)
		}
		fv, err := TrainSoundFieldVerifier(mouth, machine, cfg.FieldSeed)
		if err != nil {
			return nil, err
		}
		s.Field = fv
	}
	if !cfg.DisableMagnetic {
		s.Speaker = NewLoudspeakerDetector()
	}
	return s, nil
}

// AttachIdentity plugs in a trained ASV back-end as stage 4.
func (s *System) AttachIdentity(v *SpeakerVerifier) { s.Identity = v }

// CalibrateEnvironment applies §VII adaptive thresholding from an ambient
// magnetometer recording.
func (s *System) CalibrateEnvironment(ambient *sensors.Trace) {
	if s.Speaker != nil {
		s.Speaker.Calibrate(ambient)
	}
}

// ErrIncompleteSystem is returned when Verify runs with no stages.
var ErrIncompleteSystem = errors.New("core: system has no configured stages")

// Verify runs the cascade over a session with a freshly generated trace
// ID and no deadline. Stages execute in the paper's order and the first
// failure rejects; all executed stage results are returned for
// diagnostics.
func (s *System) Verify(session *SessionData) (Decision, error) {
	//lint:allow ctxfirst no-deadline convenience entry point; deadline-aware callers use VerifyContext
	return s.VerifyContext(context.Background(), "", session)
}

// VerifyContext runs the cascade over a complete session under a request
// context and a caller-supplied trace ID (empty mints one; the server
// passes the request's X-Request-ID so decision, response and log line
// all correlate). It validates the session, loads every channel into the
// cascade engine (StreamVerifier) at once, and returns the engine's
// decision: the configured stages become ready together and run
// concurrently, each individually timed, and the decision lists them in
// the paper's order truncated at the first failure, carrying the total
// pipeline latency.
//
// The context bounds the verification: it is checked on entry, again at
// the start of every stage, and the fan-out stops waiting the moment ctx
// dies. On cancellation the returned error wraps ctx.Err() — test it
// with errors.Is(err, context.DeadlineExceeded) — and the Decision
// carries only the trace ID and the elapsed time; the root span records
// "outcome" = "deadline_exceeded". A nil context never cancels.
func (s *System) VerifyContext(ctx context.Context, traceID string, session *SessionData) (Decision, error) {
	if ctx == nil {
		//lint:allow ctxfirst a nil context means "no deadline", the documented compatibility behavior
		ctx = context.Background()
	}
	// The trace ID is assigned before validation so even an errored
	// attempt returns a Decision that correlates with the request's logs
	// and metrics exemplars.
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	if err := session.Validate(); err != nil {
		return Decision{TraceID: traceID}, err
	}
	if !s.hasStages() {
		return Decision{TraceID: traceID}, ErrIncompleteSystem
	}
	if err := ctx.Err(); err != nil {
		return Decision{TraceID: traceID}, fmt.Errorf("core: verification admitted past its deadline: %w", err)
	}
	v := s.newVerifier(traceID)
	v.load(session)
	d, err := v.conclude(ctx)
	if err != nil {
		return Decision{TraceID: traceID, Elapsed: time.Since(v.start)}, err
	}
	return d, nil
}
