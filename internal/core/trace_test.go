package core

// Tracing tests: Verify must stamp every decision with a trace ID, a
// total pipeline latency and a per-stage Elapsed breakdown.

import (
	"context"
	"math/rand"
	"testing"

	"voiceguard/internal/speech"
)

func TestVerifyPopulatesTraceAndTimings(t *testing.T) {
	sys, err := BuildSystem(SystemConfig{FieldSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(7)))
	session := genuineSessionFor(t, victim, "135792", 7)

	d, err := sys.Verify(session)
	if err != nil {
		t.Fatal(err)
	}
	if d.TraceID == "" {
		t.Error("Verify left TraceID empty")
	}
	if d.Elapsed <= 0 {
		t.Error("Verify left total Elapsed unset")
	}
	// Stages run concurrently, so their Elapsed values may sum past the
	// wall-clock total; the invariant that survives the fan-out is that
	// every stage is stamped and no single stage exceeds the total.
	for i, st := range d.Stages {
		if st.Elapsed <= 0 {
			t.Errorf("stage %d (%v) Elapsed = %v, want > 0", i, st.Stage, st.Elapsed)
		}
		if st.Elapsed > d.Elapsed {
			t.Errorf("stage %d (%v) Elapsed %v exceeds total %v", i, st.Stage, st.Elapsed, d.Elapsed)
		}
	}
}

func TestVerifyTracedUsesCallerID(t *testing.T) {
	sys, err := BuildSystem(SystemConfig{FieldSeed: 8})
	if err != nil {
		t.Fatal(err)
	}
	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(8)))
	session := genuineSessionFor(t, victim, "135792", 8)

	d, err := sys.VerifyContext(context.Background(), "req-abc123", session)
	if err != nil {
		t.Fatal(err)
	}
	if d.TraceID != "req-abc123" {
		t.Errorf("TraceID = %q, want caller-supplied req-abc123", d.TraceID)
	}
	// An empty caller ID is replaced, never propagated.
	d2, err := sys.VerifyContext(context.Background(), "", session)
	if err != nil {
		t.Fatal(err)
	}
	if d2.TraceID == "" {
		t.Error("empty trace ID propagated to decision")
	}
	if d2.TraceID == d.TraceID {
		t.Error("trace IDs not unique across verifications")
	}
}

func TestVerifyDistinctTraceIDs(t *testing.T) {
	sys, err := BuildSystem(SystemConfig{FieldSeed: 9, DisableField: true})
	if err != nil {
		t.Fatal(err)
	}
	victim := speech.RandomProfile("victim", rand.New(rand.NewSource(9)))
	session := genuineSessionFor(t, victim, "135792", 9)
	seen := make(map[string]bool)
	for i := 0; i < 5; i++ {
		d, err := sys.Verify(session)
		if err != nil {
			t.Fatal(err)
		}
		if seen[d.TraceID] {
			t.Fatalf("trace ID %q repeated", d.TraceID)
		}
		seen[d.TraceID] = true
	}
}
