package protocol

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"voiceguard/internal/audio"
	"voiceguard/internal/core"
	"voiceguard/internal/sensors"
	"voiceguard/internal/soundfield"
	"voiceguard/internal/stream"
	"voiceguard/internal/trajectory"
)

// gzipBomb is a ~70 KB gzip body that inflates past MaxPayloadBytes:
// 65 concatenated members of 1 MiB of zeros each, which gzip readers
// decode as one multistream body. Built once per test binary.
var gzipBomb = sync.OnceValue(func() []byte {
	var member bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&member, gzip.BestCompression) // a constant valid level cannot fail
	zw.Write(make([]byte, 1<<20))                               // a gzip stream into a bytes.Buffer cannot fail
	zw.Close()
	return bytes.Repeat(member.Bytes(), MaxPayloadBytes>>20+1)
})

// TestWireShapeAndTransportParity pins the body's shape — one JSON
// decode of voice_wav yields the WAV itself, so audio is base64-encoded
// exactly once — and that the HTTP codec and the VGSP frames rebuild the
// same session.
func TestWireShapeAndTransportParity(t *testing.T) {
	req := sampleSession(t, 14)
	body, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		VoiceWAV   []byte `json:"voice_wav"`
		CaptureWAV []byte `json:"capture_wav"`
	}
	if err := json.NewDecoder(zr).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	for field, wav := range map[string][]byte{"voice_wav": wire.VoiceWAV, "capture_wav": wire.CaptureWAV} {
		if !bytes.HasPrefix(wav, []byte("RIFF")) {
			t.Errorf("%s after one JSON decode starts %q, want RIFF", field, wav[:min(len(wav), 8)])
		}
	}

	decoded, err := DecodeRequest(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	httpSession, err := ToSession(decoded)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := StreamFrames("parity-14", req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := core.SessionDigest(assembleFrames(t, frames)), core.SessionDigest(httpSession); got != want {
		t.Fatalf("stream session digest %s, HTTP session digest %s", got, want)
	}

	// The engine fed frame by frame through ApplyStreamFrame decides with
	// the same stage-score bits as the engine loaded with the HTTP session.
	sys, err := core.BuildSystem(core.SystemConfig{DisableField: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v, err := sys.NewStreamVerifier("parity-14")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames[:len(frames)-1] {
		if d, err := ApplyStreamFrame(ctx, v, f); err != nil || d != nil {
			t.Fatalf("applying %v frame: decision %v, err %v", f.Type, d, err)
		}
	}
	streamDecision, err := v.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	httpDecision, err := sys.VerifyContext(ctx, "parity-14-http", httpSession)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamDecision.Stages) != len(httpDecision.Stages) || streamDecision.Accepted != httpDecision.Accepted {
		t.Fatalf("stream decision %+v, HTTP decision %+v", streamDecision, httpDecision)
	}
	for i, st := range streamDecision.Stages {
		if math.Float64bits(st.Score) != math.Float64bits(httpDecision.Stages[i].Score) {
			t.Errorf("%s score %v over the stream, %v over HTTP", st.Stage, st.Score, httpDecision.Stages[i].Score)
		}
	}
}

// assembleFrames rebuilds a session from a frame sequence the way the
// stream engine does: every channel decoded and appended in arrival
// order, then the gesture fused by trajectory.FromUpload.
func assembleFrames(t *testing.T, frames []stream.Frame) *core.SessionData {
	t.Helper()
	s := &core.SessionData{}
	var pilotHz, sweepStart, sweepEnd float64
	traces := map[stream.SensorKind]*sensors.Trace{
		stream.SensorGyro:  {Name: "gyro"},
		stream.SensorAccel: {Name: "accel"},
		stream.SensorMag:   {Name: "mag"},
	}
	audioSigs := map[stream.AudioKind]*audio.Signal{}
	for _, f := range frames {
		var err error
		switch f.Type {
		case stream.TypeHello:
			var h stream.Hello
			h, err = stream.DecodeHello(f.Payload)
			s.ClaimedUser, pilotHz = h.ClaimedUser, h.PilotHz
		case stream.TypeSegmentMarks:
			var m stream.SegmentMarks
			m, err = stream.DecodeSegmentMarks(f.Payload)
			sweepStart, sweepEnd = m.SweepStart, m.SweepEnd
		case stream.TypeSensorChunk:
			var c stream.SensorChunk
			c, err = stream.DecodeSensorChunk(f.Payload)
			tr := traces[c.Kind]
			for _, x := range c.Samples {
				smp := sensors.Sample{T: x.T}
				smp.V.X, smp.V.Y, smp.V.Z = x.X, x.Y, x.Z
				tr.Samples = append(tr.Samples, smp)
			}
		case stream.TypeFieldChunk:
			var c stream.FieldChunk
			c, err = stream.DecodeFieldChunk(f.Payload)
			for _, p := range c.Points {
				s.Field = append(s.Field, soundfield.Measurement{AngleDeg: p.AngleDeg, FreqHz: p.FreqHz, LevelDB: p.LevelDB})
			}
		case stream.TypeAudioChunk:
			var c stream.AudioChunk
			c, err = stream.DecodeAudioChunk(f.Payload)
			if audioSigs[c.Kind] == nil {
				audioSigs[c.Kind] = &audio.Signal{Rate: c.Rate}
			}
			audioSigs[c.Kind].Samples = append(audioSigs[c.Kind].Samples, c.Samples...)
		}
		if err != nil {
			t.Fatalf("decoding %v frame: %v", f.Type, err)
		}
	}
	g, err := trajectory.FromUpload(traces[stream.SensorGyro], traces[stream.SensorAccel], traces[stream.SensorMag],
		audioSigs[stream.AudioCapture], pilotHz, sweepStart, sweepEnd)
	if err != nil {
		t.Fatal(err)
	}
	s.Gesture, s.Voice = g, audioSigs[stream.AudioVoice]
	return s
}

// TestPooledCodecConcurrent runs distinct sessions through the pooled
// gzip writer and reader from several goroutines at once; every round
// trip must return its own session.
func TestPooledCodecConcurrent(t *testing.T) {
	const workers, rounds = 8, 3
	reqs := make([]*VerifyRequest, workers)
	want := make([]string, workers)
	seen := map[string]bool{}
	for i := range reqs {
		reqs[i] = sampleSession(t, int64(40+i))
		s, err := ToSession(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = core.SessionDigest(s)
		if seen[want[i]] {
			t.Fatalf("sessions %d share a digest; the test cannot tell them apart", i)
		}
		seen[want[i]] = true
	}
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				body, err := EncodeRequest(reqs[i])
				if err != nil {
					t.Errorf("worker %d: %v", i, err)
					return
				}
				req, err := DecodeRequest(bytes.NewReader(body))
				if err != nil {
					t.Errorf("worker %d: %v", i, err)
					return
				}
				s, err := ToSession(req)
				if err != nil {
					t.Errorf("worker %d: %v", i, err)
					return
				}
				if got := core.SessionDigest(s); got != want[i] {
					t.Errorf("worker %d round %d: digest %s, want %s", i, r, got, want[i])
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// FuzzDecodeRequest fuzzes the HTTP trust boundary: any body either fails
// to decode or rebuild, or yields a session that passes Validate — never
// a panic.
func FuzzDecodeRequest(f *testing.F) {
	body, err := EncodeRequest(sampleSession(f, 15))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Add(body[:len(body)/2])
	f.Add(gzipBomb())
	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := DecodeRequest(bytes.NewReader(raw))
		if err != nil {
			return
		}
		s, err := ToSession(req)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ToSession returned an invalid session: %v", err)
		}
	})
}

var codecSink *VerifyRequest

// BenchmarkRequestCodec is one HTTP body's codec cost: EncodeRequest then
// DecodeRequest of a genuine session; body_B is the gzip body size.
func BenchmarkRequestCodec(b *testing.B) {
	req := sampleSession(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	var body []byte
	for i := 0; i < b.N; i++ {
		var err error
		if body, err = EncodeRequest(req); err != nil {
			b.Fatal(err)
		}
		if codecSink, err = DecodeRequest(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(body)), "body_B")
}
