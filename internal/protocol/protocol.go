// Package protocol defines the wire format between the mobile client and
// the verification server, mirroring the paper's prototype (§V): clients
// upload zipped (gzip), structured sensor-and-audio bundles; the server
// replies with the verification decision. A request body is one JSON
// document, gzip-compressed at gzip.BestSpeed; its audio fields carry
// raw WAV bytes, which encoding/json base64-encodes exactly once.
package protocol

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"voiceguard/internal/audio"
	"voiceguard/internal/core"
	"voiceguard/internal/sensors"
	"voiceguard/internal/soundfield"
	"voiceguard/internal/trajectory"
)

// MaxPayloadBytes bounds a decoded request to keep the server safe from
// decompression bombs.
const MaxPayloadBytes = 64 << 20

// VerifyRequest is one verification attempt as uploaded by the client.
type VerifyRequest struct {
	// ClaimedUser is the asserted identity.
	ClaimedUser string `json:"claimed_user"`
	// Gyro, Accel and Mag are the raw sensor traces.
	Gyro  []SampleJSON `json:"gyro"`
	Accel []SampleJSON `json:"accel"`
	Mag   []SampleJSON `json:"mag"`
	// SweepStart and SweepEnd bound the sweep segment, seconds.
	SweepStart float64 `json:"sweep_start"`
	SweepEnd   float64 `json:"sweep_end"`
	// PilotHz is the ranging pilot frequency used by the capture.
	PilotHz float64 `json:"pilot_hz"`
	// CaptureWAV is the ranging capture as WAV bytes; JSON base64-encodes
	// them once.
	CaptureWAV []byte `json:"capture_wav"`
	// Field is the sound-field sweep.
	Field []FieldJSON `json:"field"`
	// VoiceWAV is the spoken passphrase as WAV bytes; JSON base64-encodes
	// them once.
	VoiceWAV []byte `json:"voice_wav"`
}

// SampleJSON is one sensor sample on the wire.
type SampleJSON struct {
	T float64 `json:"t"`
	X float64 `json:"x"`
	Y float64 `json:"y"`
	Z float64 `json:"z"`
}

// FieldJSON is one sound-field measurement on the wire.
type FieldJSON struct {
	AngleDeg float64 `json:"angle_deg"`
	FreqHz   float64 `json:"freq_hz"`
	LevelDB  float64 `json:"level_db"`
}

// VerifyResponse is the server's decision.
type VerifyResponse struct {
	// Accepted is the final verdict.
	Accepted bool `json:"accepted"`
	// FailedStage names the first failing stage ("" when accepted).
	FailedStage string `json:"failed_stage,omitempty"`
	// Stages carries per-stage diagnostics.
	Stages []StageJSON `json:"stages"`
	// TraceID correlates the response with the server's log line and the
	// X-Request-ID header of the request that produced it.
	TraceID string `json:"trace_id,omitempty"`
	// ElapsedUS is the total pipeline latency in microseconds.
	ElapsedUS int64 `json:"elapsed_us,omitempty"`
	// Error is set when the request could not be processed.
	Error string `json:"error,omitempty"`
}

// StageJSON is one stage result on the wire.
type StageJSON struct {
	Stage  string  `json:"stage"`
	Pass   bool    `json:"pass"`
	Score  float64 `json:"score"`
	Detail string  `json:"detail"`
	// ElapsedUS is the stage's processing time in microseconds.
	ElapsedUS int64 `json:"elapsed_us,omitempty"`
}

// VoiceprintRequest is the voice-only baseline upload (the WeChat-style
// scheme the paper compares against in Fig. 15): just the claimed user
// and the passphrase audio.
type VoiceprintRequest struct {
	// ClaimedUser is the asserted identity.
	ClaimedUser string `json:"claimed_user"`
	// VoiceWAV is the spoken passphrase as WAV bytes; JSON base64-encodes
	// them once.
	VoiceWAV []byte `json:"voice_wav"`
}

// EncodeVoiceprint serializes and gzips a voiceprint request.
func EncodeVoiceprint(req *VoiceprintRequest) ([]byte, error) {
	return encodeBody(req, "voiceprint request")
}

// DecodeVoiceprint ungzips and parses a voiceprint request.
func DecodeVoiceprint(r io.Reader) (*VoiceprintRequest, error) {
	var req VoiceprintRequest
	if err := decodeBody(r, &req, "voiceprint request"); err != nil {
		return nil, err
	}
	return &req, nil
}

// VoiceFromRequest decodes the audio payload of a voiceprint request.
func VoiceFromRequest(req *VoiceprintRequest) (*audio.Signal, error) {
	s, err := audio.ReadWAV(bytes.NewReader(req.VoiceWAV))
	if err != nil {
		return nil, fmt.Errorf("protocol: decoding voiceprint audio: %w", err)
	}
	return s, nil
}

// VoiceprintFromAudio packages audio into a voiceprint request.
func VoiceprintFromAudio(user string, voice *audio.Signal) (*VoiceprintRequest, error) {
	var buf bytes.Buffer
	if err := audio.WriteWAV(&buf, voice); err != nil {
		return nil, fmt.Errorf("protocol: encoding voiceprint audio: %w", err)
	}
	return &VoiceprintRequest{ClaimedUser: user, VoiceWAV: buf.Bytes()}, nil
}

// EnrollRequest registers a new user with the ASV stage: one or more
// recording sessions, each with one or more passphrase utterances.
type EnrollRequest struct {
	// User is the identity to enroll.
	User string `json:"user"`
	// Sessions holds WAV-byte utterances grouped by recording session;
	// JSON base64-encodes each utterance once.
	Sessions [][][]byte `json:"sessions"`
}

// EnrollResponse reports the enrollment outcome.
type EnrollResponse struct {
	// OK is true when the user was enrolled.
	OK bool `json:"ok"`
	// Error carries the failure reason.
	Error string `json:"error,omitempty"`
	// TraceID correlates the response with the server's log line and the
	// X-Request-ID header of the request that produced it.
	TraceID string `json:"trace_id,omitempty"`
}

// EnrollFromAudio packages utterances into an enrollment request.
func EnrollFromAudio(user string, sessions [][]*audio.Signal) (*EnrollRequest, error) {
	req := &EnrollRequest{User: user}
	for _, sess := range sessions {
		var encoded [][]byte
		for _, utt := range sess {
			var buf bytes.Buffer
			if err := audio.WriteWAV(&buf, utt); err != nil {
				return nil, fmt.Errorf("protocol: encoding enrollment audio: %w", err)
			}
			encoded = append(encoded, buf.Bytes())
		}
		req.Sessions = append(req.Sessions, encoded)
	}
	return req, nil
}

// SessionsFromEnroll decodes the audio payloads of an enrollment request.
func SessionsFromEnroll(req *EnrollRequest) ([][]*audio.Signal, error) {
	var out [][]*audio.Signal
	for i, sess := range req.Sessions {
		var decoded []*audio.Signal
		for j, wav := range sess {
			s, err := audio.ReadWAV(bytes.NewReader(wav))
			if err != nil {
				return nil, fmt.Errorf("protocol: decoding enrollment audio [%d][%d]: %w", i, j, err)
			}
			decoded = append(decoded, s)
		}
		out = append(out, decoded)
	}
	return out, nil
}

// EncodeEnroll serializes and gzips an enrollment request.
func EncodeEnroll(req *EnrollRequest) ([]byte, error) {
	return encodeBody(req, "enrollment request")
}

// DecodeEnroll ungzips and parses an enrollment request.
func DecodeEnroll(r io.Reader) (*EnrollRequest, error) {
	var req EnrollRequest
	if err := decodeBody(r, &req, "enrollment request"); err != nil {
		return nil, err
	}
	return &req, nil
}

// EncodeRequest serializes and gzips a request.
func EncodeRequest(req *VerifyRequest) ([]byte, error) {
	return encodeBody(req, "request")
}

// DecodeRequest ungzips and parses a request.
func DecodeRequest(r io.Reader) (*VerifyRequest, error) {
	var req VerifyRequest
	if err := decodeBody(r, &req, "request"); err != nil {
		return nil, err
	}
	return &req, nil
}

// ErrTooLarge is returned when a payload exceeds MaxPayloadBytes.
var ErrTooLarge = errors.New("protocol: payload too large")

// Every body's gzip stream goes through one pooled writer and one pooled
// reader: a fresh compressor allocates several hundred KB of tables and
// a decompressor its 32 KB window, which per request cost more than
// compressing the body itself.
var (
	gzipWriters = sync.Pool{New: func() any {
		zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed) // a constant valid level cannot fail
		return zw
	}}
	gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}
)

// encodeBody serializes v as one JSON document and gzips it at
// gzip.BestSpeed; what names the body in errors.
func encodeBody(v any, what string) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzipWriters.Get().(*gzip.Writer)
	defer gzipWriters.Put(zw)
	zw.Reset(&buf)
	defer zw.Reset(io.Discard) // the pool must not pin the caller's bytes
	if err := json.NewEncoder(zw).Encode(v); err != nil {
		return nil, fmt.Errorf("protocol: encoding %s: %w", what, err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("protocol: closing gzip stream: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeBody ungzips r and parses it into v, refusing with ErrTooLarge
// once the decompressed stream passes MaxPayloadBytes; what names the
// body in errors.
func decodeBody(r io.Reader, v any, what string) error {
	zr := gzipReaders.Get().(*gzip.Reader)
	defer gzipReaders.Put(zr)
	if err := zr.Reset(r); err != nil {
		return fmt.Errorf("protocol: opening gzip stream: %w", err)
	}
	data, err := io.ReadAll(io.LimitReader(zr, MaxPayloadBytes+1))
	if err != nil {
		return fmt.Errorf("protocol: reading %s: %w", what, err)
	}
	if len(data) > MaxPayloadBytes {
		return ErrTooLarge
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("protocol: parsing %s: %w", what, err)
	}
	return nil
}

// tracesToWire converts a sensor trace.
func tracesToWire(tr *sensors.Trace) []SampleJSON {
	if tr == nil {
		return nil
	}
	out := make([]SampleJSON, len(tr.Samples))
	for i, s := range tr.Samples {
		out[i] = SampleJSON{T: s.T, X: s.V.X, Y: s.V.Y, Z: s.V.Z}
	}
	return out
}

// wireToTrace converts back to a sensor trace.
func wireToTrace(name string, ss []SampleJSON) *sensors.Trace {
	tr := &sensors.Trace{Name: name, Samples: make([]sensors.Sample, len(ss))}
	for i, s := range ss {
		tr.Samples[i] = sensors.Sample{T: s.T}
		tr.Samples[i].V.X = s.X
		tr.Samples[i].V.Y = s.Y
		tr.Samples[i].V.Z = s.Z
	}
	return tr
}

// FromSession converts a core session into a wire request.
func FromSession(s *core.SessionData, pilotHz float64) (*VerifyRequest, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var captureBuf, voiceBuf bytes.Buffer
	if s.Gesture.Capture != nil {
		if err := audio.WriteWAV(&captureBuf, s.Gesture.Capture); err != nil {
			return nil, fmt.Errorf("protocol: encoding capture: %w", err)
		}
	}
	if err := audio.WriteWAV(&voiceBuf, s.Voice); err != nil {
		return nil, fmt.Errorf("protocol: encoding voice: %w", err)
	}
	req := &VerifyRequest{
		ClaimedUser: s.ClaimedUser,
		Gyro:        tracesToWire(s.Gesture.Gyro),
		Accel:       tracesToWire(s.Gesture.Accel),
		Mag:         tracesToWire(s.Gesture.Mag),
		SweepStart:  s.Gesture.SweepStart,
		SweepEnd:    s.Gesture.SweepEnd,
		PilotHz:     pilotHz,
		CaptureWAV:  captureBuf.Bytes(),
		VoiceWAV:    voiceBuf.Bytes(),
	}
	for _, m := range s.Field {
		req.Field = append(req.Field, FieldJSON{AngleDeg: m.AngleDeg, FreqHz: m.FreqHz, LevelDB: m.LevelDB})
	}
	return req, nil
}

// ToSession reconstructs a core session server-side, re-running the
// heading fusion and displacement recovery exactly as the paper's backend
// pipeline does on uploaded data. A session it returns passes Validate.
func ToSession(req *VerifyRequest) (*core.SessionData, error) {
	if req == nil {
		return nil, errors.New("protocol: nil request")
	}
	voice, err := audio.ReadWAV(bytes.NewReader(req.VoiceWAV))
	if err != nil {
		return nil, fmt.Errorf("protocol: decoding voice: %w", err)
	}
	capture, err := audio.ReadWAV(bytes.NewReader(req.CaptureWAV))
	if err != nil {
		return nil, fmt.Errorf("protocol: decoding capture: %w", err)
	}
	gesture, err := trajectory.FromUpload(
		wireToTrace("gyro", req.Gyro),
		wireToTrace("accel", req.Accel),
		wireToTrace("mag", req.Mag),
		capture, req.PilotHz, req.SweepStart, req.SweepEnd,
	)
	if err != nil {
		return nil, fmt.Errorf("protocol: rebuilding gesture: %w", err)
	}
	s := &core.SessionData{
		ClaimedUser: req.ClaimedUser,
		Gesture:     gesture,
		Voice:       voice,
	}
	for _, m := range req.Field {
		s.Field = append(s.Field, soundfield.Measurement{
			AngleDeg: m.AngleDeg, FreqHz: m.FreqHz, LevelDB: m.LevelDB,
		})
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("protocol: rebuilt session: %w", err)
	}
	return s, nil
}

// DecisionToResponse converts a pipeline decision.
func DecisionToResponse(d core.Decision) *VerifyResponse {
	resp := &VerifyResponse{
		Accepted:  d.Accepted,
		TraceID:   d.TraceID,
		ElapsedUS: d.Elapsed.Microseconds(),
	}
	if !d.Accepted {
		resp.FailedStage = d.FailedStage.String()
	}
	for _, st := range d.Stages {
		resp.Stages = append(resp.Stages, StageJSON{
			Stage:     st.Stage.String(),
			Pass:      st.Pass,
			Score:     wireScore(st.Score),
			Detail:    st.Detail,
			ElapsedUS: st.Elapsed.Microseconds(),
		})
	}
	return resp
}

// wireScore clamps a stage score to a value JSON can carry. JSON has no
// NaN or infinity, and a response that fails to encode reaches the
// client as an empty body, so infinities travel as the largest finite
// value of their sign and NaN — evidence no threshold can judge — as
// the least genuine one. Finite scores pass through bit for bit.
func wireScore(s float64) float64 {
	switch {
	case math.IsInf(s, 1):
		return math.MaxFloat64
	case math.IsNaN(s) || math.IsInf(s, -1):
		return -math.MaxFloat64
	}
	return s
}
