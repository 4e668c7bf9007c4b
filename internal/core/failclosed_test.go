package core

// Fail-closed tests: the paper's thresholds (Dt, Mt, βt, θ) judge finite
// evidence only. Non-finite evidence must fail its stage, and a session
// carrying it must be rejected by both feeders of the cascade engine.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"voiceguard/internal/audio"
	"voiceguard/internal/ranging"
	"voiceguard/internal/sensors"
	"voiceguard/internal/soundfield"
	"voiceguard/internal/speech"
	"voiceguard/internal/trajectory"
)

// poisonTrace copies tr with the X axis of every other sample set to bad.
func poisonTrace(tr *sensors.Trace, bad float64) *sensors.Trace {
	out := &sensors.Trace{Name: tr.Name, Samples: append([]sensors.Sample(nil), tr.Samples...)}
	for i := 1; i < len(out.Samples); i += 2 {
		out.Samples[i].V.X = bad
	}
	return out
}

// poisonSignal copies s with every other sample set to bad.
func poisonSignal(s *audio.Signal, bad float64) *audio.Signal {
	out := &audio.Signal{Rate: s.Rate, Samples: append([]float64(nil), s.Samples...)}
	for i := 1; i < len(out.Samples); i += 2 {
		out.Samples[i] = bad
	}
	return out
}

// nanMagnetometerSession is a loudspeaker attack whose magnetometer X is
// NaN at every other sample. Its distance and field-swing evidence come
// out NaN ("source at NaN cm", "swing NaN µT"); a gate written as
// "reject if x > threshold, else pass" would accept it.
func nanMagnetometerSession(t *testing.T, victim speech.Profile, seed int64) *SessionData {
	t.Helper()
	session := magneticAttackSession(t, victim, seed)
	session.Gesture.Mag = poisonTrace(session.Gesture.Mag, math.NaN())
	return session
}

func TestNaNMagnetometerAttackRejectedByBothFeeders(t *testing.T) {
	victim := speech.NewDistinctRoster(2, 200, 1.2).Profiles()[0]
	sys := fullSystem(t, victim, "135792", 200)
	session := nanMagnetometerSession(t, victim, 201)

	batch, err := sys.VerifyContext(context.Background(), "nan-batch", rebuiltSession(t, session))
	if err != nil {
		t.Fatal(err)
	}
	if batch.Accepted {
		t.Fatalf("VerifyContext accepted the NaN-magnetometer attack: %+v", batch.Stages)
	}
	streamed, _, _ := feedStream(t, sys, session, 16)
	if streamed.Accepted {
		t.Fatalf("stream feeder accepted the NaN-magnetometer attack: %+v", streamed.Stages)
	}
}

// TestStagesFailClosedOnNonFiniteEvidence poisons every other sample of
// each stage's input channel with NaN, +Inf or −Inf; no stage may pass
// on the evidence that yields.
func TestStagesFailClosedOnNonFiniteEvidence(t *testing.T) {
	victim := speech.NewDistinctRoster(2, 200, 1.2).Profiles()[0]
	sys := fullSystem(t, victim, "135792", 200)
	session := rebuiltSession(t, genuineSessionFor(t, victim, "135792", 201))
	if d, err := sys.Verify(session); err != nil || !d.Accepted {
		t.Fatalf("clean genuine session: %v, %v; the poisoning below would prove nothing", d, err)
	}
	g := session.Gesture
	stages := []struct {
		name   string
		verify func(bad float64) (StageResult, error)
	}{
		{"distance", func(bad float64) (StageResult, error) {
			// The ranging capture feeds the displacement the trajectory
			// fit reads, so the poison reaches the distance evidence.
			rg, err := trajectory.FromUpload(g.Gyro, g.Accel, g.Mag, poisonSignal(g.Capture, bad),
				ranging.DefaultPilotHz, g.SweepStart, g.SweepEnd)
			if err != nil {
				return StageResult{}, err
			}
			return sys.Distance.Verify(rg), nil
		}},
		{"soundfield", func(bad float64) (StageResult, error) {
			field := append([]soundfield.Measurement(nil), session.Field...)
			for i := 1; i < len(field); i += 2 {
				field[i].LevelDB = bad
			}
			return sys.Field.Verify(field), nil
		}},
		{"loudspeaker", func(bad float64) (StageResult, error) {
			return sys.Speaker.Verify(poisonTrace(g.Mag, bad)), nil
		}},
		{"identity", func(bad float64) (StageResult, error) {
			return sys.Identity.Verify(session.ClaimedUser, poisonSignal(session.Voice, bad)), nil
		}},
	}
	for _, st := range stages {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			t.Run(fmt.Sprintf("%s/%v", st.name, bad), func(t *testing.T) {
				res, err := st.verify(bad)
				if err == nil && res.Pass {
					t.Fatalf("stage passed on non-finite evidence: %s", res.Detail)
				}
			})
		}
	}
}
