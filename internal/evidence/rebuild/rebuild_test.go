package rebuild

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"voiceguard/internal/attack"
	"voiceguard/internal/core"
	"voiceguard/internal/device"
	"voiceguard/internal/evidence"
	"voiceguard/internal/protocol"
	"voiceguard/internal/ranging"
	"voiceguard/internal/telemetry"
)

// buildPackForTest runs one genuine and one replay-attack session
// through a freshly built (no-ASV) pipeline via the wire codec — the
// same lossy WAV round trip the server path takes — and packs the
// resulting decisions.
func buildPackForTest(t *testing.T, prov evidence.Provenance) *evidence.Pack {
	t.Helper()
	sys, err := System(prov)
	if err != nil {
		t.Fatal(err)
	}
	recorder := telemetry.NewFlightRecorder(8)
	sys.Tracer = telemetry.NewTracer(telemetry.TracerConfig{Recorder: recorder})

	victim := Profile("victim", prov.FieldSeed)
	sc := attack.Scenario{Distance: 0.06, ClaimedUser: "victim", Seed: prov.FieldSeed}
	genuine, err := attack.Genuine(victim, sc)
	if err != nil {
		t.Fatal(err)
	}
	recording, err := attack.Record(victim, "472913", prov.FieldSeed)
	if err != nil {
		t.Fatal(err)
	}
	replaySc := sc
	replaySc.Seed = prov.FieldSeed + 1
	replayed, err := attack.Replay(recording, device.Catalog()[0], replaySc)
	if err != nil {
		t.Fatal(err)
	}

	b := evidence.NewBuilder(time.Unix(0, 0))
	for i, session := range []*core.SessionData{genuine, replayed} {
		req, err := protocol.FromSession(session, ranging.DefaultPilotHz)
		if err != nil {
			t.Fatal(err)
		}
		// Decisions are computed on the decoded request, exactly as the
		// server does, so replay of the packed request is bit-identical.
		decoded, err := protocol.ToSession(req)
		if err != nil {
			t.Fatal(err)
		}
		traceID := []string{"t-genuine", "t-replayattack"}[i]
		decision, err := sys.VerifyContext(context.Background(), traceID, decoded)
		if err != nil {
			t.Fatal(err)
		}
		env, err := protocol.SessionEnvelopeFromRequest(traceID, req, evidence.RedactNone)
		if err != nil {
			t.Fatal(err)
		}
		b.AddDecision(core.DecisionEvidence(decision), recorder.Find(traceID), env)
	}
	digests, err := sys.ModelDigests()
	if err != nil {
		t.Fatal(err)
	}
	b.SetModels(digests, &prov)
	var buf bytes.Buffer
	if err := b.WriteZip(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := evidence.ReadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if probs := evidence.Verify(p); len(probs) != 0 {
		for _, pr := range probs {
			t.Errorf("pack problem: %s", pr)
		}
		t.Fatal("freshly built pack failed verification")
	}
	return p
}

func TestReplayReproducesVerdicts(t *testing.T) {
	prov := evidence.Provenance{Generator: "test", FieldSeed: 7}
	p := buildPackForTest(t, prov)

	// Rebuild a SECOND system from the pack's provenance alone — the
	// offline replayer's position — and check it digests identically.
	sys, err := SystemFromPack(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckModels(p, sys); err != nil {
		t.Fatal(err)
	}

	results, err := Replay(p, sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("replayed %d sessions, want 2", len(results))
	}
	for _, r := range results {
		if !r.Match {
			t.Errorf("replay of %s diverged:\n  %s", r.TraceID, strings.Join(r.Diffs, "\n  "))
		}
	}
	// The attack session must actually have been rejected, or the test
	// proves nothing about evidence-carrying rejections.
	d, ok := p.Decision("t-replayattack")
	if !ok || d.Accepted {
		t.Fatalf("replay-attack decision: ok=%v accepted=%v", ok, d.Accepted)
	}
	g, ok := p.Decision("t-genuine")
	if !ok || !g.Accepted {
		t.Fatalf("genuine decision: ok=%v accepted=%v", ok, g.Accepted)
	}
}

func TestCheckModelsDetectsSkew(t *testing.T) {
	prov := evidence.Provenance{Generator: "test", FieldSeed: 7}
	p := buildPackForTest(t, prov)
	skewed, err := System(evidence.Provenance{Generator: "test", FieldSeed: 8})
	if err != nil {
		t.Fatal(err)
	}
	err = CheckModels(p, skewed)
	if err == nil {
		t.Fatal("model skew went undetected")
	}
	if !strings.Contains(err.Error(), "soundfield/band/") {
		t.Fatalf("skew error does not name the diverging model: %v", err)
	}
}

func TestReplayDetectsTamperedVerdict(t *testing.T) {
	prov := evidence.Provenance{Generator: "test", FieldSeed: 7}
	p := buildPackForTest(t, prov)
	// Flip the packed genuine verdict: replay must report divergence.
	for i := range p.Decisions {
		if p.Decisions[i].TraceID == "t-genuine" {
			p.Decisions[i].Accepted = false
			p.Decisions[i].FailedStage = "distance"
		}
	}
	sys, err := SystemFromPack(p)
	if err != nil {
		t.Fatal(err)
	}
	results, err := Replay(p, sys)
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	for _, r := range results {
		if r.TraceID == "t-genuine" && !r.Match {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("tampered verdict replayed as a match")
	}
}

func TestReplayRefusesRedactedSessions(t *testing.T) {
	prov := evidence.Provenance{Generator: "test", FieldSeed: 7}
	p := buildPackForTest(t, prov)
	for i := range p.Sessions.Sessions {
		p.Sessions.Sessions[i].Redaction = evidence.RedactDigests
		p.Sessions.Sessions[i].Audio = []evidence.AudioDigest{{Channel: "voice", Digest: evidence.Digest(nil)}}
	}
	sys, err := SystemFromPack(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(p, sys); err == nil {
		t.Fatal("replay of a redacted pack succeeded")
	}
}
