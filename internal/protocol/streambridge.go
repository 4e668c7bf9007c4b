package protocol

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"voiceguard/internal/audio"
	"voiceguard/internal/core"
	"voiceguard/internal/sensors"
	"voiceguard/internal/soundfield"
	"voiceguard/internal/stream"
)

// This file bridges the binary streaming protocol (internal/stream) to
// the JSON wire types, so both transports assemble byte-identical
// core.SessionData: the client slices a VerifyRequest into frames with
// StreamFrames (decoding the WAV payloads locally — the samples it ships
// are exactly the float64s the HTTP server would decode), and the server
// feeds arriving frames into a core.StreamVerifier with ApplyStreamFrame.

// StreamFrames slices a verification request into the streaming
// protocol's frame sequence: hello, segment marks, interleaved sensor
// chunks (magnetometer leading — it carries the earliest decisive
// evidence), the sound-field sweep, the ranging capture, the passphrase
// voice, and a finish frame sealing everything under the session digest.
func StreamFrames(traceID string, req *VerifyRequest) ([]stream.Frame, error) {
	if req == nil {
		return nil, fmt.Errorf("protocol: nil request")
	}
	hello, err := stream.EncodeHello(stream.Hello{
		TraceID:     traceID,
		ClaimedUser: req.ClaimedUser,
		PilotHz:     req.PilotHz,
	})
	if err != nil {
		return nil, fmt.Errorf("protocol: encoding hello: %w", err)
	}
	frames := []stream.Frame{
		{Type: stream.TypeHello, Payload: hello},
		{Type: stream.TypeSegmentMarks, Payload: stream.EncodeSegmentMarks(stream.SegmentMarks{
			SweepStart: req.SweepStart, SweepEnd: req.SweepEnd,
		})},
	}
	frames = append(frames, interleaveSensors(req)...)
	frames = append(frames, fieldFrames(req.Field)...)

	for _, ch := range []struct {
		kind stream.AudioKind
		wav  []byte
		what string
	}{
		{stream.AudioCapture, req.CaptureWAV, "capture"},
		{stream.AudioVoice, req.VoiceWAV, "voice"},
	} {
		sig, err := audio.ReadWAV(bytes.NewReader(ch.wav))
		if err != nil {
			return nil, fmt.Errorf("protocol: decoding %s: %w", ch.what, err)
		}
		frames = append(frames, audioFrames(ch.kind, sig)...)
	}

	digest := stream.NewSessionDigest()
	for _, f := range frames {
		digest.Add(f)
	}
	frames = append(frames, stream.Frame{Type: stream.TypeFinish, Payload: stream.EncodeFinish(stream.Finish{
		Digest: digest.Sum(),
		Frames: digest.Frames(),
	})})
	return frames, nil
}

// interleaveSensors round-robins chunks of the three sensor channels,
// magnetometer first, so the earliest decisive evidence (§IV-B3's
// loudspeaker signature) is also the earliest on the wire.
func interleaveSensors(req *VerifyRequest) []stream.Frame {
	channels := [][]stream.Frame{
		sensorFrames(stream.SensorMag, req.Mag),
		sensorFrames(stream.SensorGyro, req.Gyro),
		sensorFrames(stream.SensorAccel, req.Accel),
	}
	var out []stream.Frame
	for i := 0; ; i++ {
		emitted := false
		for _, ch := range channels {
			if i < len(ch) {
				out = append(out, ch[i])
				emitted = true
			}
		}
		if !emitted {
			return out
		}
	}
}

// sensorFrames chunks one sensor channel. An empty channel still emits
// one empty closing chunk so the evaluator can admit stages waiting on
// it.
func sensorFrames(kind stream.SensorKind, ss []SampleJSON) []stream.Frame {
	var out []stream.Frame
	for off := 0; ; off += stream.DefSensorChunkSamples {
		end := off + stream.DefSensorChunkSamples
		if end > len(ss) {
			end = len(ss)
		}
		c := stream.SensorChunk{Kind: kind, Samples: make([]stream.Sample, 0, end-off)}
		for _, s := range ss[off:end] {
			c.Samples = append(c.Samples, stream.Sample{T: s.T, X: s.X, Y: s.Y, Z: s.Z})
		}
		f := stream.Frame{Type: stream.TypeSensorChunk, Payload: stream.EncodeSensorChunk(c)}
		if end == len(ss) {
			f.Flags = stream.FlagLast
			return append(out, f)
		}
		out = append(out, f)
	}
}

// fieldFrames chunks the sound-field sweep.
func fieldFrames(ms []FieldJSON) []stream.Frame {
	var out []stream.Frame
	for off := 0; ; off += stream.DefFieldChunkPoints {
		end := off + stream.DefFieldChunkPoints
		if end > len(ms) {
			end = len(ms)
		}
		c := stream.FieldChunk{Points: make([]stream.FieldPoint, 0, end-off)}
		for _, m := range ms[off:end] {
			c.Points = append(c.Points, stream.FieldPoint{AngleDeg: m.AngleDeg, FreqHz: m.FreqHz, LevelDB: m.LevelDB})
		}
		f := stream.Frame{Type: stream.TypeFieldChunk, Payload: stream.EncodeFieldChunk(c)}
		if end == len(ms) {
			f.Flags = stream.FlagLast
			return append(out, f)
		}
		out = append(out, f)
	}
}

// audioFrames chunks one audio channel. The samples are the WAV-decoded
// float64s, so the server reassembles exactly what the HTTP path's
// ReadWAV would produce — the bit-parity guarantee across transports.
func audioFrames(kind stream.AudioKind, sig *audio.Signal) []stream.Frame {
	var out []stream.Frame
	for off := 0; ; off += stream.DefAudioChunkSamples {
		end := off + stream.DefAudioChunkSamples
		if end > len(sig.Samples) {
			end = len(sig.Samples)
		}
		c := stream.AudioChunk{Kind: kind, Rate: sig.Rate, Samples: sig.Samples[off:end]}
		f := stream.Frame{Type: stream.TypeAudioChunk, Payload: stream.EncodeAudioChunk(c)}
		if end == len(sig.Samples) {
			f.Flags = stream.FlagLast
			return append(out, f)
		}
		out = append(out, f)
	}
}

// ApplyStreamFrame feeds one client data frame into the incremental
// evaluator. A non-nil decision is an early REJECT. Finish, decision and
// error frames are not data: the connection handler owns them (the
// finish digest check needs the handler's byte-level accumulator).
func ApplyStreamFrame(ctx context.Context, v *core.StreamVerifier, f stream.Frame) (*core.Decision, error) {
	last := f.Flags&stream.FlagLast != 0
	switch f.Type {
	case stream.TypeHello:
		h, err := stream.DecodeHello(f.Payload)
		if err != nil {
			return nil, err
		}
		return nil, v.OfferHello(ctx, h.ClaimedUser, h.PilotHz)
	case stream.TypeSegmentMarks:
		m, err := stream.DecodeSegmentMarks(f.Payload)
		if err != nil {
			return nil, err
		}
		return nil, v.SetMarks(ctx, m.SweepStart, m.SweepEnd)
	case stream.TypeSensorChunk:
		c, err := stream.DecodeSensorChunk(f.Payload)
		if err != nil {
			return nil, err
		}
		samples := make([]sensors.Sample, len(c.Samples))
		for i, s := range c.Samples {
			samples[i] = sensors.Sample{T: s.T}
			samples[i].V.X = s.X
			samples[i].V.Y = s.Y
			samples[i].V.Z = s.Z
		}
		switch c.Kind {
		case stream.SensorGyro:
			return v.OfferGyro(ctx, samples, last)
		case stream.SensorAccel:
			return v.OfferAccel(ctx, samples, last)
		case stream.SensorMag:
			return v.OfferMag(ctx, samples, last)
		default:
			return nil, fmt.Errorf("protocol: unroutable sensor kind %d", c.Kind)
		}
	case stream.TypeFieldChunk:
		c, err := stream.DecodeFieldChunk(f.Payload)
		if err != nil {
			return nil, err
		}
		points := make([]soundfield.Measurement, len(c.Points))
		for i, p := range c.Points {
			points[i] = soundfield.Measurement{AngleDeg: p.AngleDeg, FreqHz: p.FreqHz, LevelDB: p.LevelDB}
		}
		return v.OfferField(ctx, points, last)
	case stream.TypeAudioChunk:
		c, err := stream.DecodeAudioChunk(f.Payload)
		if err != nil {
			return nil, err
		}
		if c.Kind == stream.AudioCapture {
			return v.OfferCapture(ctx, c.Rate, c.Samples, last)
		}
		return v.OfferVoice(ctx, c.Rate, c.Samples, last)
	default:
		return nil, fmt.Errorf("protocol: %v frame is not session data", f.Type)
	}
}

// StreamDecision wraps a verification response in a decision frame;
// early marks a verdict emitted before the client's finish frame.
func StreamDecision(resp *VerifyResponse, early bool) (stream.Frame, error) {
	payload, err := json.Marshal(resp)
	if err != nil {
		return stream.Frame{}, fmt.Errorf("protocol: encoding stream decision: %w", err)
	}
	f := stream.Frame{Type: stream.TypeDecision, Payload: payload}
	if early {
		f.Flags = stream.FlagEarly
	}
	return f, nil
}

// DecisionFromStreamFrame parses a decision frame back into the JSON
// response shape, reporting whether the server decided early.
func DecisionFromStreamFrame(f stream.Frame) (resp *VerifyResponse, early bool, err error) {
	if f.Type != stream.TypeDecision {
		return nil, false, fmt.Errorf("protocol: expected decision frame, got %v", f.Type)
	}
	resp = &VerifyResponse{}
	if err := json.Unmarshal(f.Payload, resp); err != nil {
		return nil, false, fmt.Errorf("protocol: parsing stream decision: %w", err)
	}
	return resp, f.Flags&stream.FlagEarly != 0, nil
}

// StreamError wraps a refusal in an error frame carrying the
// HTTP-equivalent status, an optional Retry-After hint in seconds, and
// the same JSON envelope writeJSONError would send.
func StreamError(status, retryAfterSec int, resp *VerifyResponse) (stream.Frame, error) {
	envelope, err := json.Marshal(resp)
	if err != nil {
		return stream.Frame{}, fmt.Errorf("protocol: encoding stream error: %w", err)
	}
	return stream.Frame{Type: stream.TypeError, Payload: stream.EncodeError(stream.ErrorInfo{
		Status:        uint16(status),
		RetryAfterSec: uint16(retryAfterSec),
		Envelope:      envelope,
	})}, nil
}

// ErrorFromStreamFrame parses an error frame into its status, retry
// hint, and JSON envelope.
func ErrorFromStreamFrame(f stream.Frame) (status, retryAfterSec int, resp *VerifyResponse, err error) {
	if f.Type != stream.TypeError {
		return 0, 0, nil, fmt.Errorf("protocol: expected error frame, got %v", f.Type)
	}
	info, err := stream.DecodeError(f.Payload)
	if err != nil {
		return 0, 0, nil, err
	}
	resp = &VerifyResponse{}
	if len(info.Envelope) > 0 {
		if err := json.Unmarshal(info.Envelope, resp); err != nil {
			return 0, 0, nil, fmt.Errorf("protocol: parsing stream error envelope: %w", err)
		}
	}
	return int(info.Status), int(info.RetryAfterSec), resp, nil
}
