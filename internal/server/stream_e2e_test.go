package server

// Cross-protocol parity, observed end to end: the same session replayed
// over HTTP/JSON and over the binary stream must yield bit-identical
// verdicts, stage scores, and recorded trace evidence. Runs under -race
// in CI — the streaming path shares the pipeline with concurrent HTTP
// traffic and must stay data-race free.

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"voiceguard/internal/client"
	"voiceguard/internal/core"
	"voiceguard/internal/telemetry"
)

// dualProtocolServer runs one server on both transports and returns the
// HTTP base URL and the stream address.
func dualProtocolServer(t *testing.T) (*Server, string, string) {
	t.Helper()
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, nil, WithDecisionEndpoints())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServeStream("127.0.0.1:0", ready) }()
	var streamAddr string
	select {
	case streamAddr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("stream listener never ready")
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	})
	return srv, ts.URL, streamAddr
}

// stageEvidence extracts the float attributes of every stage span,
// keyed stage/attr — the evidence the trace recorded while deciding.
func stageEvidence(t *testing.T, rec *telemetry.TraceRecord) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, sp := range rec.Spans {
		if len(sp.Name) < len(telemetry.StageSpanName) || sp.Name[:len(telemetry.StageSpanName)] != telemetry.StageSpanName {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Kind == telemetry.KindFloat {
				out[sp.Name+"/"+a.Key] = a.Float
			}
		}
	}
	return out
}

func TestStreamAndHTTPVerdictsBitIdentical(t *testing.T) {
	srv, httpURL, streamAddr := dualProtocolServer(t)
	session := genuineSession(t, 61)
	c := client.New(httpURL)

	httpRes, err := c.VerifyContext(context.Background(), session)
	if err != nil {
		t.Fatal(err)
	}
	streamRes, err := c.VerifyStream(context.Background(), streamAddr, session)
	if err != nil {
		t.Fatal(err)
	}

	h, s := httpRes.Response, streamRes.Response
	if h.Accepted != s.Accepted {
		t.Fatalf("verdicts differ: http=%v stream=%v", h.Accepted, s.Accepted)
	}
	if !h.Accepted {
		t.Fatalf("genuine session rejected on both protocols: %+v", h)
	}
	if len(h.Stages) != len(s.Stages) {
		t.Fatalf("stage counts differ: http=%d stream=%d", len(h.Stages), len(s.Stages))
	}
	for i := range h.Stages {
		hs, ss := h.Stages[i], s.Stages[i]
		if hs.Stage != ss.Stage || hs.Pass != ss.Pass {
			t.Errorf("stage %d: http=%s/%v stream=%s/%v", i, hs.Stage, hs.Pass, ss.Stage, ss.Pass)
		}
		if math.Float64bits(hs.Score) != math.Float64bits(ss.Score) {
			t.Errorf("stage %s score bits differ: http=%x stream=%x",
				hs.Stage, math.Float64bits(hs.Score), math.Float64bits(ss.Score))
		}
		if hs.Detail != ss.Detail {
			t.Errorf("stage %s detail differs: %q vs %q", hs.Stage, hs.Detail, ss.Detail)
		}
	}

	// The recorded trace evidence — every float attribute on every stage
	// span — is bitwise identical across transports.
	httpTrace := srv.FlightRecorder().Find(httpRes.TraceID)
	streamTrace := srv.FlightRecorder().Find(streamRes.TraceID)
	if httpTrace == nil || streamTrace == nil {
		t.Fatalf("traces not recorded: http=%v stream=%v", httpTrace != nil, streamTrace != nil)
	}
	he, se := stageEvidence(t, httpTrace), stageEvidence(t, streamTrace)
	if len(he) == 0 {
		t.Fatal("HTTP trace recorded no stage evidence")
	}
	if len(he) != len(se) {
		t.Fatalf("evidence key counts differ: http=%d stream=%d", len(he), len(se))
	}
	for k, hv := range he {
		sv, ok := se[k]
		if !ok {
			t.Errorf("stream trace missing evidence %s", k)
			continue
		}
		if math.Float64bits(hv) != math.Float64bits(sv) {
			t.Errorf("evidence %s differs: http=%x stream=%x", k, math.Float64bits(hv), math.Float64bits(sv))
		}
	}
}

func TestStreamAndHTTPAgreeOnReplayAttack(t *testing.T) {
	srv, httpURL, streamAddr := dualProtocolServer(t)
	replay := replaySession(t, 62)
	c := client.New(httpURL)

	httpRes, err := c.VerifyContext(context.Background(), replay)
	if err != nil {
		t.Fatal(err)
	}
	streamRes, err := c.VerifyStream(context.Background(), streamAddr, replay)
	if err != nil {
		t.Fatal(err)
	}
	if httpRes.Response.Accepted || streamRes.Response.Accepted {
		t.Fatalf("replay accepted: http=%v stream=%v",
			httpRes.Response.Accepted, streamRes.Response.Accepted)
	}
	// The stream decided early, and said so in the metrics.
	if !streamRes.EarlyExit {
		t.Error("stream did not reject the replay before upload finished")
	}
	var exits int64
	for _, ctr := range srv.streamEarlyExit {
		exits += ctr.Value()
	}
	if exits == 0 {
		t.Error("early-exit counter still zero after an early rejection")
	}
}

// nonFiniteMagAttack plants a loudspeaker-grade magnetic ramp in the
// second half of a genuine session's magnetometer trace, then sets the
// X axis of every other sample to bad.
func nonFiniteMagAttack(t *testing.T, seed int64, bad float64) *core.SessionData {
	t.Helper()
	session := genuineSession(t, seed)
	mag := session.Gesture.Mag
	n := mag.Len()
	for i := n / 2; i < n; i++ {
		mag.Samples[i].V.X, mag.Samples[i].V.Y, mag.Samples[i].V.Z = 40+float64(i-n/2)*2, 5, -30
	}
	for i := 1; i < n; i += 2 {
		mag.Samples[i].V.X = bad
	}
	return session
}

// TestNonFiniteMagnetometerAttackRejectedOnBothTransports is the wire
// regression for fail-closed stages. VGSP carries raw float64 bits, so
// the stream sends NaN itself; JSON has no NaN literal, so the HTTP
// upload carries the largest finite value, whose swing overflows to the
// same non-finite evidence server-side.
func TestNonFiniteMagnetometerAttackRejectedOnBothTransports(t *testing.T) {
	_, httpURL, streamAddr := dualProtocolServer(t)
	c := client.New(httpURL)

	httpRes, err := c.VerifyContext(context.Background(), nonFiniteMagAttack(t, 63, math.MaxFloat64))
	if err != nil {
		t.Fatal(err)
	}
	if httpRes.Response.Accepted {
		t.Fatalf("HTTP accepted the non-finite magnetometer attack: %+v", httpRes.Response.Stages)
	}
	streamRes, err := c.VerifyStream(context.Background(), streamAddr, nonFiniteMagAttack(t, 63, math.NaN()))
	if err != nil {
		t.Fatal(err)
	}
	if streamRes.Response.Accepted {
		t.Fatalf("stream accepted the NaN magnetometer attack: %+v", streamRes.Response.Stages)
	}
}
