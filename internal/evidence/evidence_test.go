package evidence

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"voiceguard/internal/telemetry"
)

func TestDigestHelpers(t *testing.T) {
	d := Digest([]byte("voiceguard"))
	if !ValidDigest(d) {
		t.Fatalf("Digest produced malformed digest %q", d)
	}
	if d2 := Digest([]byte("voiceguard")); d2 != d {
		t.Fatalf("Digest not deterministic: %s vs %s", d, d2)
	}
	if Digest([]byte("other")) == d {
		t.Fatal("distinct inputs collided")
	}

	dg := NewDigester()
	if _, err := dg.Write([]byte("voice")); err != nil {
		t.Fatal(err)
	}
	if _, err := dg.Write([]byte("guard")); err != nil {
		t.Fatal(err)
	}
	if dg.Sum() != d {
		t.Fatalf("streaming digest %s != one-shot %s", dg.Sum(), d)
	}
	if dg.Size() != int64(len("voiceguard")) {
		t.Fatalf("Size() = %d", dg.Size())
	}

	rd, n, err := DigestReader(strings.NewReader("voiceguard"))
	if err != nil {
		t.Fatal(err)
	}
	if rd != d || n != 10 {
		t.Fatalf("DigestReader = %s, %d", rd, n)
	}

	for _, bad := range []string{"", "sha256:", "sha256:zz", d[:len(d)-1], "md5:" + d[7:], strings.ToUpper(d)} {
		if ValidDigest(bad) {
			t.Errorf("ValidDigest(%q) = true", bad)
		}
	}
}

func TestFloatBitsRoundTrip(t *testing.T) {
	for _, f := range []float64{0, -0.0, 1.5, -3.25e-17, math.Pi, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		bits := FloatBits(f)
		if len(bits) != 16 {
			t.Fatalf("FloatBits(%v) = %q, want 16 hex chars", f, bits)
		}
		got, err := BitsFloat(bits)
		if err != nil {
			t.Fatalf("BitsFloat(%q): %v", bits, err)
		}
		if math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("round trip %v -> %q -> %v not bit-identical", f, bits, got)
		}
	}
	nan := FloatBits(math.NaN())
	back, err := BitsFloat(nan)
	if err != nil || !math.IsNaN(back) {
		t.Fatalf("NaN round trip: %v, %v", back, err)
	}
	if _, err := BitsFloat("not-hex"); err == nil {
		t.Fatal("BitsFloat accepted garbage")
	}
}

func TestChainDigestOrderSensitive(t *testing.T) {
	a := ChainDigest(ChainSeed(), "a", Digest([]byte("1")))
	ab := ChainDigest(a, "b", Digest([]byte("2")))
	b := ChainDigest(ChainSeed(), "b", Digest([]byte("2")))
	ba := ChainDigest(b, "a", Digest([]byte("1")))
	if ab == ba {
		t.Fatal("chain digest insensitive to member order")
	}
	renamed := ChainDigest(a, "c", Digest([]byte("2")))
	if renamed == ab {
		t.Fatal("chain digest insensitive to member name")
	}
}

// testTrace builds a minimal consistent trace for the given decision.
func testTrace(d DecisionRecord) *telemetry.TraceRecord {
	tr := &telemetry.TraceRecord{
		TraceID:     d.TraceID,
		Start:       time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		Accepted:    d.Accepted,
		FailedStage: d.FailedStage,
		ElapsedUS:   d.ElapsedUS,
		Spans: []telemetry.SpanRecord{
			{SpanID: "0000000000000001", Name: "verify"},
		},
	}
	for i, st := range d.Stages {
		if strings.HasPrefix(st.Detail, skippedDetailPrefix) {
			continue
		}
		tr.Spans = append(tr.Spans, telemetry.SpanRecord{
			SpanID:   FloatBits(float64(i + 2))[:16],
			ParentID: "0000000000000001",
			Name:     telemetry.StageSpanName + st.Stage,
			Attrs: []telemetry.Attr{
				{Key: "pass", Kind: telemetry.KindBool, Bool: st.Pass},
				{Key: "score", Kind: telemetry.KindFloat, Float: st.Score},
				{Key: "threshold_test", Kind: telemetry.KindFloat, Float: 1.0},
			},
		})
	}
	return tr
}

func testDecision(id string, accepted bool) DecisionRecord {
	d := DecisionRecord{TraceID: id, Accepted: accepted, ElapsedUS: 1234}
	scores := []float64{0.015, 0.42, 140.0, -1.8}
	stages := []string{"distance", "soundfield", "loudspeaker", "identity"}
	for i, name := range stages {
		pass := true
		if !accepted && i == len(stages)-1 {
			pass = false
			d.FailedStage = name
		}
		d.Stages = append(d.Stages, StageOutcome{
			Stage:     name,
			Pass:      pass,
			Score:     scores[i],
			ScoreBits: FloatBits(scores[i]),
			Detail:    "test",
			ElapsedUS: 10,
		})
	}
	return d
}

func buildTestPack(t *testing.T, decisions ...DecisionRecord) []byte {
	t.Helper()
	b := NewBuilder(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))
	for _, d := range decisions {
		env := SessionEnvelope{
			TraceID:   d.TraceID,
			Redaction: RedactNone,
			Request:   json.RawMessage(`{"claimed_user":"victim"}`),
		}
		b.AddDecision(d, testTrace(d), env)
	}
	b.SetModels(map[string]string{
		"asv/ubm":      Digest([]byte("ubm")),
		"asv/user/bob": Digest([]byte("bob")),
	}, &Provenance{Generator: "test", FieldSeed: 7})
	var buf bytes.Buffer
	if err := b.WriteZip(&buf); err != nil {
		t.Fatalf("WriteZip: %v", err)
	}
	return buf.Bytes()
}

func TestPackRoundTripAndVerify(t *testing.T) {
	raw := buildTestPack(t, testDecision("t-accept", true), testDecision("t-reject", false))
	p, err := ReadBytes(raw)
	if err != nil {
		t.Fatalf("ReadBytes: %v", err)
	}
	if probs := Verify(p); len(probs) != 0 {
		for _, pr := range probs {
			t.Errorf("unexpected problem: %s", pr)
		}
		t.Fatal("fresh pack failed verification")
	}
	if len(p.Decisions) != 2 || len(p.Traces) != 2 || len(p.Sessions.Sessions) != 2 {
		t.Fatalf("parsed counts: %d decisions, %d traces, %d sessions",
			len(p.Decisions), len(p.Traces), len(p.Sessions.Sessions))
	}
	d, ok := p.Decision("t-reject")
	if !ok || d.FailedStage != "identity" {
		t.Fatalf("Decision lookup: ok=%v failed=%q", ok, d.FailedStage)
	}
	if p.Trace("t-accept") == nil {
		t.Fatal("Trace lookup failed")
	}
	if _, ok := p.Session("t-accept"); !ok {
		t.Fatal("Session lookup failed")
	}
	if p.Models.Provenance == nil || p.Models.Provenance.Generator != "test" {
		t.Fatal("provenance lost in round trip")
	}
	if !ValidDigest(p.Manifest.RootDigest) {
		t.Fatalf("malformed root digest %q", p.Manifest.RootDigest)
	}
}

func TestPackDeterministicBytes(t *testing.T) {
	a := buildTestPack(t, testDecision("t-1", true))
	b := buildTestPack(t, testDecision("t-1", true))
	if !bytes.Equal(a, b) {
		t.Fatal("identical builder inputs produced different pack bytes")
	}
}

// TestVerifyDetectsTamper flips one byte of each member in turn and
// asserts verification fails every time.
func TestVerifyDetectsTamper(t *testing.T) {
	raw := buildTestPack(t, testDecision("t-1", false))
	clean, err := ReadBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, member := range []string{DecisionsMember, SpansMember, SessionMember, ModelsMember} {
		members := map[string][]byte{}
		for name, data := range clean.Raw {
			if name == ManifestMember {
				continue
			}
			cp := append([]byte(nil), data...)
			if name == member {
				// Flip a byte inside a value, keeping the JSON parseable.
				i := bytes.IndexByte(cp, 't')
				cp[i] = 'u'
			}
			members[name] = cp
		}
		var buf bytes.Buffer
		if err := WriteZipMembers(&buf, clean.Manifest, members); err != nil {
			t.Fatal(err)
		}
		p, err := ReadBytes(buf.Bytes())
		if err != nil {
			// Some flips corrupt JSON outright; that is detection too.
			continue
		}
		probs := Verify(p)
		if len(probs) == 0 {
			t.Errorf("tampering %s went undetected", member)
		}
		found := false
		for _, pr := range probs {
			if pr.Member == member && strings.Contains(pr.Msg, "digest mismatch") {
				found = true
			}
		}
		if !found {
			t.Errorf("tampering %s: no digest-mismatch problem in %v", member, probs)
		}
	}
}

func TestVerifyDetectsMissingSpanEvidence(t *testing.T) {
	d := testDecision("t-1", true)
	b := NewBuilder(time.Unix(0, 0))
	tr := testTrace(d)
	// Drop the identity stage's span: verification must notice the
	// decision claims a stage the trace has no evidence for.
	tr.Spans = tr.Spans[:len(tr.Spans)-1]
	b.AddDecision(d, tr, SessionEnvelope{TraceID: d.TraceID, Redaction: RedactNone, Request: json.RawMessage(`{}`)})
	var buf bytes.Buffer
	if err := b.WriteZip(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := ReadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	probs := Verify(p)
	found := false
	for _, pr := range probs {
		if strings.Contains(pr.Msg, "no stage span") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing stage span not reported; problems: %v", probs)
	}
}

func TestVerifyAllowsSkippedStages(t *testing.T) {
	d := testDecision("t-1", false)
	// Mark the failed stage's successor-style detail as abandoned work.
	d.Stages[3].Detail = skippedDetailPrefix + "earlier stage failed"
	b := NewBuilder(time.Unix(0, 0))
	b.AddDecision(d, testTrace(d), SessionEnvelope{TraceID: d.TraceID, Redaction: RedactNone, Request: json.RawMessage(`{}`)})
	var buf bytes.Buffer
	if err := b.WriteZip(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := ReadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range Verify(p) {
		if strings.Contains(pr.Msg, "stage identity") {
			t.Fatalf("skipped stage flagged: %s", pr)
		}
	}
}

func TestVerifyRejectsBadRedaction(t *testing.T) {
	d := testDecision("t-1", true)
	b := NewBuilder(time.Unix(0, 0))
	b.AddDecision(d, testTrace(d), SessionEnvelope{
		TraceID:   d.TraceID,
		Redaction: "shredded",
		Request:   json.RawMessage(`{}`),
	})
	var buf bytes.Buffer
	if err := b.WriteZip(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := ReadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, pr := range Verify(p) {
		if strings.Contains(pr.Msg, "unknown redaction mode") {
			found = true
		}
	}
	if !found {
		t.Fatal("unknown redaction mode not reported")
	}
}

// TestVerifyRefusesOlderSchema pins that a pack written under an older
// schema — version 1 embedded double-base64 audio — is refused with the
// schema message, before replay could misread its session requests.
func TestVerifyRefusesOlderSchema(t *testing.T) {
	clean, err := ReadBytes(buildTestPack(t, testDecision("t-1", true)))
	if err != nil {
		t.Fatal(err)
	}
	members := map[string][]byte{}
	for name, data := range clean.Raw {
		if name != ManifestMember {
			members[name] = data
		}
	}
	old := clean.Manifest
	old.SchemaVersion = 1
	var buf bytes.Buffer
	if err := WriteZipMembers(&buf, old, members); err != nil {
		t.Fatal(err)
	}
	p, err := ReadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	probs := Verify(p)
	want := fmt.Sprintf("schema version 1, this build reads %d", SchemaVersion)
	if len(probs) != 1 || probs[0].Member != ManifestMember || probs[0].Msg != want {
		t.Fatalf("problems = %v, want exactly the manifest's %q", probs, want)
	}
}

func TestDiffPacks(t *testing.T) {
	a, err := ReadBytes(buildTestPack(t, testDecision("t-1", true)))
	if err != nil {
		t.Fatal(err)
	}
	same, err := ReadBytes(buildTestPack(t, testDecision("t-1", true)))
	if err != nil {
		t.Fatal(err)
	}
	if diffs := DiffPacks(a, same); len(diffs) != 0 {
		t.Fatalf("identical packs diff: %v", diffs)
	}

	changed := testDecision("t-1", false)
	bp, err := ReadBytes(buildTestPack(t, changed))
	if err != nil {
		t.Fatal(err)
	}
	diffs := DiffPacks(a, bp)
	if len(diffs) == 0 {
		t.Fatal("divergent packs reported identical")
	}
	joined := strings.Join(diffs, "\n")
	for _, want := range []string{"verdict", "failed stage", "pass="} {
		if !strings.Contains(joined, want) {
			t.Errorf("diff output missing %q:\n%s", want, joined)
		}
	}
}

func TestDiffPacksPositionalFallback(t *testing.T) {
	// Same decision under different trace IDs: replayed packs carry
	// fresh IDs, so the differ must fall back to positional matching.
	a, err := ReadBytes(buildTestPack(t, testDecision("t-original", true)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadBytes(buildTestPack(t, testDecision("t-replayed", true)))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range DiffPacks(a, b) {
		if strings.Contains(d, "only in") {
			t.Fatalf("positional fallback not applied: %s", d)
		}
	}
}

func TestScoreBitsMismatchDetected(t *testing.T) {
	d := testDecision("t-1", true)
	d.Stages[0].ScoreBits = FloatBits(99.0) // lie about the bits
	b := NewBuilder(time.Unix(0, 0))
	b.AddDecision(d, testTrace(d), SessionEnvelope{TraceID: d.TraceID, Redaction: RedactNone, Request: json.RawMessage(`{}`)})
	var buf bytes.Buffer
	if err := b.WriteZip(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := ReadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, pr := range Verify(p) {
		if strings.Contains(pr.Msg, "score_bits") {
			found = true
		}
	}
	if !found {
		t.Fatal("score_bits inconsistency not reported")
	}
}
