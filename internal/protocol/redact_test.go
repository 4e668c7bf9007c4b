package protocol

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"testing"

	"voiceguard/internal/core"
	"voiceguard/internal/evidence"
)

func TestSessionEnvelopeRoundTrip(t *testing.T) {
	req := sampleSession(t, 11)
	env, err := SessionEnvelopeFromRequest("t-1", req, evidence.RedactNone)
	if err != nil {
		t.Fatal(err)
	}
	if env.TraceID != "t-1" || env.Redaction != evidence.RedactNone {
		t.Fatalf("envelope header: %+v", env)
	}
	if !evidence.ValidDigest(env.SessionDigest) {
		t.Fatalf("malformed session digest %q", env.SessionDigest)
	}
	back, err := RequestFromEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	// The unwrapped request must reconstruct the exact session the
	// original produced — the property bit-identical replay rests on.
	origSession, err := ToSession(req)
	if err != nil {
		t.Fatal(err)
	}
	backSession, err := ToSession(back)
	if err != nil {
		t.Fatal(err)
	}
	if core.SessionDigest(origSession) != core.SessionDigest(backSession) {
		t.Fatal("envelope round trip changed the session digest")
	}
	if core.SessionDigest(backSession) != env.SessionDigest {
		t.Fatal("envelope session digest disagrees with the unwrapped session")
	}
}

func TestSessionEnvelopeRedaction(t *testing.T) {
	req := sampleSession(t, 12)
	env, err := SessionEnvelopeFromRequest("t-2", req, evidence.RedactDigests)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Audio) != 2 {
		t.Fatalf("audio digest channels = %d, want voice+capture", len(env.Audio))
	}
	for _, ad := range env.Audio {
		if ad.Channel != "voice" && ad.Channel != "capture" {
			t.Fatalf("unexpected channel %q", ad.Channel)
		}
		if !evidence.ValidDigest(ad.Digest) || len(ad.FrameDigests) == 0 {
			t.Fatalf("channel %s: missing digests: %+v", ad.Channel, ad)
		}
		if ad.FrameLen != AudioFrameLen {
			t.Fatalf("channel %s: frame len %d", ad.Channel, ad.FrameLen)
		}
	}

	// The embedded request must carry no audio...
	var redacted VerifyRequest
	if err := json.Unmarshal(env.Request, &redacted); err != nil {
		t.Fatal(err)
	}
	if len(redacted.VoiceWAV) != 0 || len(redacted.CaptureWAV) != 0 {
		t.Fatal("redacted envelope still carries raw audio")
	}
	// JSON carries WAV bytes as base64 aligned to the field start, so a
	// slice at a multiple of 3 bytes would appear as this exact text.
	if bytes.Contains(env.Request, []byte(base64.StdEncoding.EncodeToString(req.VoiceWAV[3000:3048]))) {
		t.Fatal("redacted envelope contains raw voice bytes")
	}
	// ...and the non-audio channels must survive.
	if redacted.ClaimedUser != req.ClaimedUser || len(redacted.Mag) != len(req.Mag) {
		t.Fatal("redaction dropped non-audio channels")
	}
	// The session digest survives redaction: it was computed pre-strip.
	if !evidence.ValidDigest(env.SessionDigest) {
		t.Fatal("session digest lost in redaction")
	}

	if _, err := RequestFromEnvelope(env); !errors.Is(err, ErrRedacted) {
		t.Fatalf("replaying a redacted envelope: err = %v, want ErrRedacted", err)
	}
}

func TestSessionEnvelopeUnknownMode(t *testing.T) {
	req := sampleSession(t, 13)
	if _, err := SessionEnvelopeFromRequest("t-3", req, "shredded"); err == nil {
		t.Fatal("unknown redaction mode accepted")
	}
	if _, err := RequestFromEnvelope(evidence.SessionEnvelope{Redaction: "shredded"}); err == nil {
		t.Fatal("unknown redaction mode unwrapped")
	}
}
