package main

// Set-up: the one server configuration every workload runs against, and
// the in-process oracle that decides every generated input before any
// traffic is sent.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"voiceguard/internal/core"
	"voiceguard/internal/protocol"
	"voiceguard/internal/ranging"
	"voiceguard/internal/server"
)

// Server configuration shared by all workloads.
const (
	// modelCacheSize is below numUsers, so asv-churn churns the cache.
	modelCacheSize = 16
	// ubmComponents sizes the UBM.
	ubmComponents = 16
	// thresholdMargin is subtracted from the lowest genuine score; it
	// exceeds the fast path's per-frame score error bound, so every
	// genuine voice is accepted on either scoring path.
	thresholdMargin = 0.1
)

// env is one running server and the system it serves.
type env struct {
	sys        *core.System
	srv        *server.Server
	httpAddr   string
	streamAddr string
	done       chan error
}

// setUp builds the system from the generated inputs, enrolls every user,
// sets the identity threshold just below the lowest score of any genuine
// voice the workload sends (the paper's zero-FRR operating point), and
// starts the HTTP and stream listeners on loopback.
func setUp(in *inputs) (*env, error) {
	sys, err := core.BuildSystem(core.SystemConfig{FieldSeed: in.seed})
	if err != nil {
		return nil, fmt.Errorf("setup: building system: %w", err)
	}
	ver, err := core.TrainSpeakerVerifier(in.background, core.SpeakerVerifierConfig{
		Backend:    core.BackendGMMUBM,
		Components: ubmComponents,
		Seed:       in.seed,
	})
	if err != nil {
		return nil, fmt.Errorf("setup: training ASV: %w", err)
	}
	for _, u := range in.users {
		if err := ver.Enroll(u.name, u.enroll); err != nil {
			return nil, fmt.Errorf("setup: enrolling %s: %w", u.name, err)
		}
	}
	lowest := math.Inf(1)
	for _, u := range in.users {
		for _, v := range u.heldOut {
			s, err := ver.Score(u.name, v)
			if err != nil {
				return nil, fmt.Errorf("setup: calibrating on %s: %w", u.name, err)
			}
			lowest = math.Min(lowest, s)
		}
	}
	for _, m := range in.pool {
		if m.class != classGenuine {
			continue
		}
		v, err := wireSignal(m.session.Voice)
		if err != nil {
			return nil, err
		}
		s, err := ver.Score(m.user, v)
		if err != nil {
			return nil, fmt.Errorf("setup: calibrating on %s: %w", m.user, err)
		}
		lowest = math.Min(lowest, s)
	}
	ver.Threshold = lowest - thresholdMargin
	sys.AttachIdentity(ver)

	srv, err := server.New(sys, nil,
		server.WithASVFastPath(0),
		server.WithASVBatching(0, 0),
		server.WithASVModelCache(modelCacheSize),
	)
	if err != nil {
		return nil, fmt.Errorf("setup: server: %w", err)
	}
	e := &env{sys: sys, srv: srv, done: make(chan error, 2)}
	httpReady, streamReady := make(chan string, 1), make(chan string, 1)
	go func() { e.done <- srv.ListenAndServe("127.0.0.1:0", httpReady) }()
	go func() { e.done <- srv.ListenAndServeStream("127.0.0.1:0", streamReady) }()
	for e.httpAddr == "" || e.streamAddr == "" {
		select {
		case e.httpAddr = <-httpReady:
		case e.streamAddr = <-streamReady:
		case err := <-e.done:
			e.done <- err
			e.close()
			return nil, fmt.Errorf("setup: listener failed: %w", err)
		}
	}
	// Serve installs its http.Server after the ready send; a health
	// check answered means the listener is serving and Shutdown can stop it.
	resp, err := http.Get("http://" + e.httpAddr + "/healthz")
	if err != nil {
		e.close()
		return nil, fmt.Errorf("setup: health check: %w", err)
	}
	resp.Body.Close()
	return e, nil
}

// close shuts the server down and waits for both listeners to return.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	for i := 0; i < 2; i++ {
		select {
		case serr := <-e.done:
			if serr != nil && !errors.Is(serr, http.ErrServerClosed) {
				err = errors.Join(err, serr)
			}
		case <-ctx.Done():
			return fmt.Errorf("setup: listeners did not stop: %w", ctx.Err())
		}
	}
	return err
}

// verdict is an oracle decision in wire form.
type verdict struct {
	accepted bool
	stages   []protocol.StageJSON
}

// oracleSessions decides every pool session in-process, on the session
// the server reassembles from the wire (WAV quantization included).
func oracleSessions(ctx context.Context, sys *core.System, in *inputs) ([]verdict, error) {
	out := make([]verdict, len(in.pool))
	for i, m := range in.pool {
		req, err := protocol.FromSession(m.session, ranging.DefaultPilotHz)
		if err != nil {
			return nil, fmt.Errorf("oracle: packaging session %d: %w", i, err)
		}
		s, err := protocol.ToSession(req)
		if err != nil {
			return nil, fmt.Errorf("oracle: reassembling session %d: %w", i, err)
		}
		d, err := sys.VerifyContext(ctx, "", s)
		if err != nil {
			return nil, fmt.Errorf("oracle: deciding session %d: %w", i, err)
		}
		resp := protocol.DecisionToResponse(d)
		out[i] = verdict{accepted: resp.Accepted, stages: resp.Stages}
	}
	return out, nil
}
