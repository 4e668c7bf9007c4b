package main

// The traced run. It runs the load phase against the live server (for
// the figures only the server reports), then replays the first quarter
// of the open-loop schedule in-process with spans off and with spans on.
// In-process, the benchmark itself calls the layers' public functions in
// the order the server's handlers call them and records a span around
// each call. Layers that run nested inside another public call (trajectory,
// fusion and ranging inside session assembly; the four stages inside the
// cascade engines; features inside the identity stage) are timed by
// probe calls on the same inputs after the schedule has run.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"voiceguard/internal/audio"
	"voiceguard/internal/core"
	"voiceguard/internal/features"
	"voiceguard/internal/fusion"
	"voiceguard/internal/protocol"
	"voiceguard/internal/ranging"
	"voiceguard/internal/stream"
	"voiceguard/internal/trajectory"
)

// probeRepeats is how often each distinct mix session is probed.
const probeRepeats = 2

// span is one timed call. Parent is -1 for a root. Probe spans are
// roots of their own, outside any request's tree.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Probe  bool   `json:"probe,omitempty"`
}

// dur is the span's length.
func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// reqTrace records one request's spans. With on false it records
// nothing and costs one branch per call.
type reqTrace struct {
	on    bool
	id    int
	epoch time.Time
	spans []span
}

// open starts a span under parent and returns its index.
func (t *reqTrace) open(parent int, name string, at time.Time) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Trace: t.id, ID: len(t.spans), Parent: parent, Name: name,
		Start: int64(at.Sub(t.epoch))})
	return len(t.spans) - 1
}

// close ends span i.
func (t *reqTrace) close(i int) {
	if t.on {
		t.spans[i].End = int64(time.Since(t.epoch))
	}
}

// do runs f inside a span named name under parent.
func (t *reqTrace) do(parent int, name string, f func() error) error {
	i := t.open(parent, name, time.Now())
	err := f()
	t.close(i)
	return err
}

// step is one call of a handler's sequence.
type step struct {
	name string
	f    func() error
}

// seq runs steps in order, each in its own span under a span named name,
// stopping at the first error.
func (t *reqTrace) seq(parent int, name string, steps ...step) error {
	return t.do(parent, name, func() error {
		h := len(t.spans) - 1
		for _, s := range steps {
			if err := t.do(h, s.name, s.f); err != nil {
				return err
			}
		}
		return nil
	})
}

// closeOpen ends every span an error path left open.
func (t *reqTrace) closeOpen() {
	now := int64(time.Since(t.epoch))
	for i := range t.spans {
		if t.spans[i].End == 0 {
			t.spans[i].End = now
		}
	}
}

// mirror runs requests in-process against the served system, calling
// the layers the way the client and the handlers do.
type mirror struct {
	r     *runner
	sys   *core.System
	epoch time.Time
	spans []span
}

// exec runs request idx of the plan under trace t, from due to the
// decoded reply, and reports whether the verdict matched the oracle.
func (d *mirror) exec(ctx context.Context, t *reqTrace, idx int, due time.Time) bool {
	root := t.open(-1, "request", due)
	q := t.open(root, "loadgen.queue", due)
	t.close(q)
	var ok bool
	var err error
	switch d.r.p.name {
	case httpMix:
		ok, err = d.verifyHTTP(ctx, t, root, idx)
	case streamMix:
		ok, err = d.verifyStream(ctx, t, root, idx)
	default:
		ok, err = d.churn(t, root, idx)
	}
	t.closeOpen()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vgbench: traced request failed:", err)
		return false
	}
	return ok
}

// verifyHTTP mirrors client.VerifyContext and the /verify handler.
func (d *mirror) verifyHTTP(ctx context.Context, t *reqTrace, root, idx int) (bool, error) {
	m := d.r.p.in.pool[idx]
	var payload []byte
	err := t.do(root, "client.encode", func() error {
		req, err := protocol.FromSession(m.session, ranging.DefaultPilotHz)
		if err != nil {
			return err
		}
		payload, err = protocol.EncodeRequest(req)
		return err
	})
	if err != nil {
		return false, err
	}
	var req *protocol.VerifyRequest
	var session *core.SessionData
	var dec core.Decision
	var body []byte
	err = t.seq(root, "server.verify",
		step{"protocol.decode", func() (err error) {
			req, err = protocol.DecodeRequest(bytes.NewReader(payload))
			return err
		}},
		step{"protocol.to_session", func() (err error) {
			session, err = protocol.ToSession(req)
			return err
		}},
		step{"core.verify", func() (err error) {
			dec, err = d.sys.VerifyContext(ctx, "", session)
			return err
		}},
		step{"protocol.encode_response", func() (err error) {
			body, err = json.Marshal(protocol.DecisionToResponse(dec))
			return err
		}},
	)
	if err != nil {
		return false, err
	}
	var resp protocol.VerifyResponse
	if err := t.do(root, "client.decode", func() error { return json.Unmarshal(body, &resp) }); err != nil {
		return false, err
	}
	want := d.r.o.pool[idx]
	return want.accepted == resp.Accepted && sameStages(want.stages, resp.Stages), nil
}

// verifyStream mirrors client.VerifyStream and the stream connection
// handler, with the wire replaced by a buffer.
func (d *mirror) verifyStream(ctx context.Context, t *reqTrace, root, idx int) (bool, error) {
	m := d.r.p.in.pool[idx]
	var frames []stream.Frame
	err := t.do(root, "client.encode", func() error {
		req, err := protocol.FromSession(m.session, ranging.DefaultPilotHz)
		if err != nil {
			return err
		}
		frames, err = protocol.StreamFrames("", req)
		return err
	})
	if err != nil {
		return false, err
	}
	h := t.open(root, "server.stream", time.Now())
	var wire bytes.Buffer
	var dec *core.Decision
	early := false
	cv := t.open(h, "core.stream_verify", time.Now())
	v, err := d.sys.NewStreamVerifier("")
	if err != nil {
		return false, err
	}
	digest := stream.NewSessionDigest()
	ap := t.open(cv, "protocol.apply_frames", time.Now())
	for _, f := range frames {
		if err := stream.WriteFrame(&wire, f); err != nil {
			return false, err
		}
		g, err := stream.ReadFrame(&wire, 0)
		if err != nil {
			return false, err
		}
		if g.Type == stream.TypeFinish {
			fin, err := stream.DecodeFinish(g.Payload)
			if err != nil {
				return false, err
			}
			if fin.Digest != digest.Sum() || fin.Frames != digest.Frames() {
				return false, errors.New("stream session digest mismatch")
			}
			break
		}
		digest.Add(g)
		if dec, err = protocol.ApplyStreamFrame(ctx, v, g); err != nil {
			return false, err
		}
		if dec != nil {
			early = true
			break
		}
	}
	t.close(ap)
	if !early {
		err = t.do(cv, "core.stream_finish", func() error {
			fd, err := v.Finish(ctx)
			dec = &fd
			return err
		})
		if err != nil {
			return false, err
		}
	}
	t.close(cv)
	err = t.do(h, "protocol.encode_response", func() error {
		f, err := protocol.StreamDecision(protocol.DecisionToResponse(*dec), early)
		if err != nil {
			return err
		}
		return stream.WriteFrame(&wire, f)
	})
	t.close(h)
	if err != nil {
		return false, err
	}
	var resp *protocol.VerifyResponse
	err = t.do(root, "client.decode", func() error {
		f, err := stream.ReadFrame(&wire, 0)
		if err != nil {
			return err
		}
		resp, _, err = protocol.DecisionFromStreamFrame(f)
		return err
	})
	if err != nil {
		return false, err
	}
	return streamMatches(d.r.o.pool[idx], resp, early), nil
}

// churn mirrors the client and the /voiceprint and /enroll handlers.
func (d *mirror) churn(t *reqTrace, root, idx int) (bool, error) {
	c := d.r.p.claims[idx]
	u := d.r.p.in.users[c.user]
	id := d.sys.Identity
	if c.enroll {
		var payload []byte
		err := t.do(root, "client.encode", func() error {
			req, err := protocol.EnrollFromAudio(u.name, u.enroll)
			if err != nil {
				return err
			}
			payload, err = protocol.EncodeEnroll(req)
			return err
		})
		if err != nil {
			return false, err
		}
		var req *protocol.EnrollRequest
		var sessions [][]*audio.Signal
		err = t.seq(root, "server.enroll",
			step{"protocol.enroll_decode", func() (err error) {
				if req, err = protocol.DecodeEnroll(bytes.NewReader(payload)); err != nil {
					return err
				}
				sessions, err = protocol.SessionsFromEnroll(req)
				return err
			}},
			step{"core.enroll", func() error { return id.Enroll(req.User, sessions) }},
		)
		return err == nil, err
	}
	var payload []byte
	err := t.do(root, "client.encode", func() error {
		req, err := protocol.VoiceprintFromAudio(u.name, d.r.p.in.users[c.owner].heldOut[c.voice])
		if err != nil {
			return err
		}
		payload, err = protocol.EncodeVoiceprint(req)
		return err
	})
	if err != nil {
		return false, err
	}
	var req *protocol.VoiceprintRequest
	var voice *audio.Signal
	var res core.StageResult
	var body []byte
	err = t.seq(root, "server.voiceprint",
		step{"protocol.voiceprint_decode", func() (err error) {
			req, err = protocol.DecodeVoiceprint(bytes.NewReader(payload))
			return err
		}},
		step{"protocol.voice", func() (err error) {
			voice, err = protocol.VoiceFromRequest(req)
			return err
		}},
		step{"core.identity", func() error {
			res = id.Verify(req.ClaimedUser, voice)
			return nil
		}},
		step{"protocol.encode_response", func() (err error) {
			body, err = json.Marshal(&protocol.VerifyResponse{Accepted: res.Pass, Stages: []protocol.StageJSON{{
				Stage: res.Stage.String(), Pass: res.Pass, Score: res.Score, Detail: res.Detail,
			}}})
			return err
		}},
	)
	if err != nil {
		return false, err
	}
	var resp protocol.VerifyResponse
	if err := t.do(root, "client.decode", func() error { return json.Unmarshal(body, &resp) }); err != nil {
		return false, err
	}
	want := d.r.o.claims[claimKey{c.user, c.owner, c.voice}]
	return want.accepted == resp.Accepted && sameStages(want.stages, resp.Stages), nil
}

// replay runs open-loop requests reqs[i] at due[i] in-process and
// returns each one's due-to-reply latency in ms and the number of
// verdicts that differed from the oracle, keeping spans when on.
func (d *mirror) replay(ctx context.Context, due []time.Duration, reqs []int, on bool) ([]float64, int) {
	lat := make([]float64, len(due))
	var mu sync.Mutex
	mismatches := 0
	samples := openLoop(ctx, due, d.r.p.conns, func(ctx context.Context, i int, at time.Time) {
		t := &reqTrace{on: on, id: i, epoch: d.epoch}
		ok := d.exec(ctx, t, d.r.p.open[reqs[i]], at)
		mu.Lock()
		d.spans = append(d.spans, t.spans...)
		if !ok {
			mismatches++
		}
		mu.Unlock()
	})
	for i, s := range samples {
		lat[i] = ms(s.latency)
	}
	return lat, mismatches
}

// probe times the nested layers, one call each, on every distinct input
// of the workload; first is the trace ID of the first probe.
func (d *mirror) probe(first int) error {
	id := first
	call := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		d.spans = append(d.spans, span{Trace: id, ID: 0, Parent: -1, Name: name,
			Start: int64(t0.Sub(d.epoch)), End: int64(time.Since(d.epoch)), Probe: true})
		id++
		return err
	}
	mfcc := features.DefaultMFCCConfig()
	mfcc.CMVN = false // as core.SpeakerVerifierConfig's default front-end
	in := d.r.p.in
	if d.r.p.name == asvChurn {
		for _, u := range in.users {
			for _, v := range u.heldOut {
				if err := call("features.extract", func() error { _, err := features.Extract(v, mfcc); return err }); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for rep := 0; rep < probeRepeats; rep++ {
		for _, m := range in.pool {
			req, err := protocol.FromSession(m.session, ranging.DefaultPilotHz)
			if err != nil {
				return err
			}
			s, err := protocol.ToSession(req)
			if err != nil {
				return err
			}
			g := s.Gesture
			err = errors.Join(
				call("trajectory.from_upload", func() error {
					_, err := trajectory.FromUpload(g.Gyro, g.Accel, g.Mag, g.Capture, req.PilotHz, g.SweepStart, g.SweepEnd)
					return err
				}),
				call("fusion.heading", func() error {
					_, err := fusion.EstimateHeading(g.Gyro, g.Mag, fusion.Config{MagSign: -1})
					return err
				}),
				call("ranging.recover", func() error {
					_, err := ranging.Recover(g.Capture, ranging.RecoverConfig{Freq: req.PilotHz})
					return err
				}),
				call("core.distance", func() error { d.sys.Distance.Verify(g); return nil }),
				call("core.soundfield", func() error { d.sys.Field.Verify(s.Field); return nil }),
				call("core.loudspeaker", func() error { d.sys.Speaker.Verify(g.Mag); return nil }),
				call("core.identity", func() error { d.sys.Identity.Verify(s.ClaimedUser, s.Voice); return nil }),
				call("features.extract", func() error { _, err := features.Extract(s.Voice, mfcc); return err }),
			)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// interval is a half-open time range in ns.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the intervals cover.
func covered(lo, hi int64, ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv.lo, cur), min(iv.hi, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerOf is a span name's layer: the part before the first dot, or
// "uncovered" for a request root, whose self time no layer claims.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return "uncovered"
}

// analysis is what the spans say.
type analysis struct {
	// byName holds every span's duration in ms by name.
	byName map[string][]float64
	// selfByLayer holds, per request, each layer's summed self time in ms.
	selfByLayer map[string][]float64
	// coverage is the share of root wall time the roots' children cover.
	coverage float64
}

// analyze computes durations, per-layer self times and coverage.
func analyze(spans []span) analysis {
	a := analysis{byName: map[string][]float64{}, selfByLayer: map[string][]float64{}}
	traces := map[int][]span{}
	for _, s := range spans {
		a.byName[s.Name] = append(a.byName[s.Name], ms(s.dur()))
		if !s.Probe {
			traces[s.Trace] = append(traces[s.Trace], s)
		}
	}
	var rootNs, coveredNs int64
	for _, tr := range traces {
		children := make([][]interval, len(tr))
		for _, s := range tr {
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
			}
		}
		self := map[string]float64{}
		for i, s := range tr {
			c := covered(s.Start, s.End, children[i])
			self[layerOf(s.Name)] += ms(time.Duration(s.End - s.Start - c))
			if s.Parent < 0 {
				rootNs += s.End - s.Start
				coveredNs += c
			}
		}
		for _, l := range traceLayers {
			a.selfByLayer[l] = append(a.selfByLayer[l], self[l])
		}
	}
	if rootNs > 0 {
		a.coverage = float64(coveredNs) / float64(rootNs)
	}
	return a
}

// traceLayers are the layers a request's spans fall into.
var traceLayers = []string{"loadgen", "client", "server", "protocol", "core", "uncovered"}

// spanMetrics are the per-layer timings read from spans by name.
var spanMetrics = []string{
	"client.encode", "client.decode",
	"protocol.decode", "protocol.apply_frames", "protocol.voiceprint_decode", "protocol.enroll_decode",
	"trajectory.from_upload", "fusion.heading", "ranging.recover",
	"core.verify", "core.stream_verify", "core.distance", "core.soundfield", "core.loudspeaker",
	"core.identity", "core.enroll", "features.extract",
}

// runTraced measures the per-layer metrics.
func runTraced(ctx context.Context, r *runner, e *env, rep *report, host map[string]any, seconds time.Duration) (*result, error) {
	// Live server: what only the server and the wire can report.
	before, err := scrapeGMM(ctx, r.c)
	if err != nil {
		return nil, err
	}
	lr, err := runLoad(ctx, r, time.Duration(tracedClosedShare*float64(seconds)), time.Duration(openShare*float64(seconds)))
	if err != nil {
		return nil, err
	}
	p, t, outs, samples := r.p, &lr.t, lr.outs, lr.samples
	after, err := scrapeGMM(ctx, r.c)
	if err != nil {
		return nil, err
	}
	var bytesSent, pipeline, overhead, ttd, lag, wait []float64
	early, decided, sent, total := 0, 0, 0, 0
	for i, o := range outs {
		t.add(o)
		lag = append(lag, ms(samples[i].lag))
		wait = append(wait, ms(samples[i].wait))
		if o.failed() {
			continue
		}
		bytesSent = append(bytesSent, float64(o.bytes))
		if o.enroll {
			continue
		}
		decided++
		pipeline = append(pipeline, ms(o.pipeline))
		overhead = append(overhead, ms(o.service-o.pipeline))
		if p.name == streamMix {
			ttd = append(ttd, ms(o.ttd))
			sent += o.sent
			total += o.total
			if o.early {
				early++
			}
		}
	}
	share := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rep.set("client.request_bytes", median(bytesSent), "bytes")
	rep.setMedian("server.pipeline_ms", pipeline, "ms")
	rep.setMedian("server.overhead_ms", overhead, "ms")
	rep.set("stream.early_exit_share", share(early, decided), "share")
	rep.set("stream.frames_sent_share", share(sent, total), "share")
	rep.setMedian("stream.connect_to_verdict_ms", ttd, "ms")
	g := after.sub(before)
	rep.set("gmm.cache_hits", g.hits, "count")
	rep.set("gmm.cache_misses", g.misses, "count")
	rep.set("gmm.cache_evictions", g.evictions, "count")
	rep.set("gmm.cache_hit_ratio", share(int(g.hits), int(g.hits+g.misses)), "share")
	batch := 0.0
	if g.batchCount > 0 {
		batch = g.batchSum / g.batchCount
	}
	rep.set("gmm.batch_size_mean", batch, "requests")
	rep.setPercentile("loadgen.lag_ms_p90", lag, 0.9, "ms")
	rep.setPercentile("loadgen.wait_ms_p90", wait, 0.9, "ms")
	rep.set("loadgen.offered_rps", lr.rate, "1/s")
	rep.set("loadgen.rate_cuts", float64(lr.cuts), "count")

	// In-process: the schedule's first quarter untraced, then traced,
	// then probes.
	quarter := lr.due[len(lr.due)-1] / 4
	n := sort.Search(len(lr.due), func(i int) bool { return lr.due[i] >= quarter })
	d := &mirror{r: r, sys: e.sys, epoch: time.Now()}
	plain, bad := d.replay(ctx, lr.due[:n], lr.reqs, false)
	traced, badTraced := d.replay(ctx, lr.due[:n], lr.reqs, true)
	if err := d.probe(n); err != nil {
		return nil, err
	}
	mismatches := t.mismatches + bad + badTraced
	a := analyze(d.spans)
	for _, name := range spanMetrics {
		rep.setMedian(name+"_ms", a.byName[name], "ms")
	}
	toSession := median(a.byName["protocol.to_session"])
	if toSession > 0 {
		toSession -= median(a.byName["trajectory.from_upload"])
	}
	rep.set("protocol.to_session_ms", toSession, "ms")
	rep.set("protocol.to_session_n", float64(len(a.byName["protocol.to_session"])), "count")
	for _, l := range traceLayers {
		rep.set("self."+l+"_ms", median(a.selfByLayer[l]), "ms")
	}
	rep.set("trace.coverage", a.coverage, "share")
	p50, p50Plain := median(traced), median(plain)
	rep.set("trace.decision_ms_p50", p50, "ms")
	rep.set("trace.untraced_decision_ms_p50", p50Plain, "ms")
	rep.set("trace.overhead_ms", p50-p50Plain, "ms")
	rep.set("trace.spans", float64(len(d.spans)), "count")
	if err := writeSpans(d.spans, host); err != nil {
		return nil, err
	}
	return &result{Correct: mismatches == 0, Attempted: t.attempted + 2*n,
		Failed: t.failed + bad + badTraced}, nil
}

// writeSpans writes the host stamp and every span as JSON lines.
func writeSpans(spans []span, host map[string]any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%v-spans.jsonl", host["workload"], host["seed"]))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"host": host})
	for _, s := range spans {
		if err != nil {
			break
		}
		err = enc.Encode(s)
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintln(os.Stderr, "vgbench: spans written to", path)
	return nil
}
