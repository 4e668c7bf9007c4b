package protocol

// Evidence-pack session envelopes: a verification request wrapped with
// its redaction mode and content digests. Under evidence.RedactNone the
// envelope embeds the request verbatim; under evidence.RedactDigests the
// raw audio payloads are stripped and replaced by whole-signal and
// per-frame content digests, so a pack can prove exactly what audio the
// cascade heard without containing a reusable recording of the user's
// voice — the privacy mode for packs that leave the deployment.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"voiceguard/internal/audio"
	"voiceguard/internal/core"
	"voiceguard/internal/evidence"
)

// AudioFrameLen is the per-frame digest window used when redacting
// audio: 400 samples = one 25 ms MFCC analysis frame at 16 kHz, so frame
// digests line up with the feature front-end's view of the signal.
const AudioFrameLen = 400

// SessionEnvelopeFromRequest wraps a verification request for an
// evidence pack. The session digest is computed over the decoded session
// — the exact bytes the cascade consumed — so it survives redaction and
// a replayer can prove input identity without the raw audio.
func SessionEnvelopeFromRequest(traceID string, req *VerifyRequest, mode string) (evidence.SessionEnvelope, error) {
	env := evidence.SessionEnvelope{TraceID: traceID, Redaction: mode}
	if req == nil {
		return env, errors.New("protocol: nil request")
	}
	if session, err := ToSession(req); err == nil {
		env.SessionDigest = core.SessionDigest(session)
	}
	switch mode {
	case evidence.RedactNone:
		raw, err := json.Marshal(req)
		if err != nil {
			return env, fmt.Errorf("protocol: encoding session envelope: %w", err)
		}
		env.Request = raw
		return env, nil
	case evidence.RedactDigests:
		redacted := *req
		redacted.VoiceWAV = nil
		redacted.CaptureWAV = nil
		for _, ch := range []struct {
			name string
			wav  []byte
		}{{"voice", req.VoiceWAV}, {"capture", req.CaptureWAV}} {
			if len(ch.wav) == 0 {
				continue
			}
			sig, err := audio.ReadWAV(bytes.NewReader(ch.wav))
			if err != nil {
				return env, fmt.Errorf("protocol: redacting %s audio: %w", ch.name, err)
			}
			env.Audio = append(env.Audio, core.AudioDigest(ch.name, sig, AudioFrameLen))
		}
		raw, err := json.Marshal(&redacted)
		if err != nil {
			return env, fmt.Errorf("protocol: encoding redacted envelope: %w", err)
		}
		env.Request = raw
		return env, nil
	default:
		return env, fmt.Errorf("protocol: unknown redaction mode %q", mode)
	}
}

// ErrRedacted is returned when replay needs the raw session but the pack
// only carries digests.
var ErrRedacted = errors.New("protocol: session audio redacted; pack cannot be replayed")

// RequestFromEnvelope unwraps a session envelope back into a replayable
// verification request. Redacted envelopes cannot be replayed — the
// audio is gone by design — and return ErrRedacted.
func RequestFromEnvelope(env evidence.SessionEnvelope) (*VerifyRequest, error) {
	switch env.Redaction {
	case evidence.RedactNone:
	case evidence.RedactDigests:
		return nil, fmt.Errorf("%w (trace %s)", ErrRedacted, env.TraceID)
	default:
		return nil, fmt.Errorf("protocol: unknown redaction mode %q (trace %s)", env.Redaction, env.TraceID)
	}
	var req VerifyRequest
	if err := json.Unmarshal(env.Request, &req); err != nil {
		return nil, fmt.Errorf("protocol: parsing session envelope (trace %s): %w", env.TraceID, err)
	}
	return &req, nil
}
