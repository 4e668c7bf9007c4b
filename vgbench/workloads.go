package main

// The three workloads: what each sends, how each reply is checked
// against the oracle, and what each records for the metrics.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"voiceguard/internal/audio"
	"voiceguard/internal/client"
	"voiceguard/internal/core"
	"voiceguard/internal/protocol"
)

// workload names.
const (
	httpMix   = "http-mix"
	streamMix = "stream-mix"
	asvChurn  = "asv-churn"
)

var workloads = map[string]bool{httpMix: true, streamMix: true, asvChurn: true}

// loadShare is the open-loop rate as a share of the capacity the closed
// loop just before it measured. The shared host's speed drifts by ±20%
// or more within and between runs; at a fixed rate that drift moves the
// queue for the nproc connections, and so the latency tail, several
// times as much. At a fixed share of the capacity the host's speed
// reaches the latency once, through the service time.
const loadShare = 0.5

// arrivalSeed fixes the open loop's arrival pattern. The pattern is part
// of the workload, like its rate: the run's seed chooses what is sent,
// not when. With the rate a share of the measured capacity, the bursts
// then fall at the same points of every run in units of service time,
// and the latency tail compares across runs and seeds.
const arrivalSeed = 20170605

// maxOpen bounds the open-loop schedule: 450/s over the 36 s open loop
// of a 60-second run, over twice any rate a 2-vCPU host sustains.
const maxOpen = 1 << 14

// asv-churn popularity and impostors.
const (
	// impostorsPerUser other users' voices may claim each identity.
	impostorsPerUser = 4
	zipfS            = 1.1
)

// claim is one asv-churn request: a voiceprint claim of user by a voice
// of owner, or (enroll) a re-enrollment of user with its original voices.
// Genuine claims and re-enrollments follow Zipf popularity over the
// users; impostor claims target users uniformly.
type claim struct {
	enroll bool
	user   int
	owner  int
	voice  int
}

// genuine reports whether the claim's voice belongs to the claimed user.
func (c claim) genuine() bool { return c.owner == c.user }

// claimKey identifies a distinct voiceprint claim for the oracle.
type claimKey struct{ user, owner, voice int }

// plan is one workload's generated traffic.
type plan struct {
	name string
	in   *inputs
	// Mixes: pool indexes. asv-churn: claims.
	open, closed []int
	claims       []claim
	// unitGaps are Exp(1) inter-arrival gaps; schedule scales them.
	unitGaps []float64
	conns    int
}

// Request kinds, dealt in shuffled blocks so every block holds a mix's
// exact proportions: the mixes send 50% genuine, 25% replay and 25%
// imitation sessions; asv-churn sends 10% re-enrollments and splits the
// claims 2:1 between genuine and impostor.
var (
	mixBlock   = []string{classGenuine, classGenuine, classReplay, classImitation}
	churnBlock = []string{"enroll", "impostor", "impostor", "impostor",
		classGenuine, classGenuine, classGenuine, classGenuine, classGenuine, classGenuine}
)

// deal returns n kinds: shuffled copies of block, back to back.
func deal(rng *rand.Rand, block []string, n int) []string {
	out := make([]string, 0, n+len(block))
	for len(out) < n {
		b := append([]string(nil), block...)
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		out = append(out, b...)
	}
	return out[:n]
}

// newPlan draws a workload's closed-loop and open-loop request
// sequences from rng, and the open loop's unit-rate arrival pattern.
func newPlan(name string, in *inputs, rng *rand.Rand, conns int) *plan {
	p := &plan{name: name, in: in, conns: conns}
	var draw func(kind string) int
	block := mixBlock
	if name == asvChurn {
		block = churnBlock
		zipf := rand.NewZipf(rng, zipfS, 1, numUsers-1)
		draw = func(kind string) int {
			var c claim
			switch kind {
			case "enroll":
				c = claim{enroll: true, user: int(zipf.Uint64())}
			case "impostor":
				// Attackers pick their target without regard to popularity.
				c.user = rng.Intn(numUsers)
				c.owner = (c.user + 1 + rng.Intn(impostorsPerUser)) % numUsers
			default:
				c.user = int(zipf.Uint64())
				c.owner = c.user
				c.voice = rng.Intn(heldOutVoices)
			}
			p.claims = append(p.claims, c)
			return len(p.claims) - 1
		}
	} else {
		draw = func(kind string) int { return in.pick(rng, kind) }
	}
	for _, kind := range deal(rng, block, maxOpen) {
		p.closed = append(p.closed, draw(kind))
	}
	for _, kind := range deal(rng, block, maxOpen) {
		p.open = append(p.open, draw(kind))
	}
	p.unitGaps = make([]float64, maxOpen)
	gaps := rand.New(rand.NewSource(arrivalSeed))
	for i := range p.unitGaps {
		p.unitGaps[i] = gaps.ExpFloat64()
	}
	return p
}

// schedule returns the due times of open-loop requests first, first+1,
// …: Poisson arrivals at rate per second over span, continuing the
// arrival pattern at request first.
func (p *plan) schedule(first int, rate float64, span time.Duration) []time.Duration {
	var due []time.Duration
	var t float64
	for _, g := range p.unitGaps[first:] {
		t += g / rate
		at := time.Duration(t * float64(time.Second))
		if at >= span {
			break
		}
		due = append(due, at)
	}
	return due
}

// closedNext deals the closed-loop sequence round-robin to the callers.
func (p *plan) closedNext(worker, k int) int {
	return p.closed[(k*p.conns+worker)%len(p.closed)]
}

// oracle holds the expected reply for every distinct input.
type oracle struct {
	pool   []verdict
	claims map[claimKey]verdict
}

// buildOracle decides every input the workload can send, in-process on
// the served system, over the exact samples the wire delivers.
func buildOracle(ctx context.Context, sys *core.System, name string, in *inputs) (*oracle, error) {
	o := &oracle{claims: map[claimKey]verdict{}}
	if name != asvChurn {
		v, err := oracleSessions(ctx, sys, in)
		if err != nil {
			return nil, err
		}
		o.pool = v
		return o, nil
	}
	for u := range in.users {
		keys := make([]claimKey, 0, heldOutVoices+impostorsPerUser)
		for k := 0; k < heldOutVoices; k++ {
			keys = append(keys, claimKey{u, u, k})
		}
		for k := 1; k <= impostorsPerUser; k++ {
			keys = append(keys, claimKey{u, (u + k) % numUsers, 0})
		}
		for _, k := range keys {
			res := sys.Identity.Verify(in.users[k.user].name, in.users[k.owner].heldOut[k.voice])
			o.claims[k] = verdict{accepted: res.Pass, stages: []protocol.StageJSON{{
				Stage: res.Stage.String(), Pass: res.Pass, Score: res.Score, Detail: res.Detail,
			}}}
		}
	}
	return o, nil
}

// sameStages compares two stage lists stage by stage: name, pass bit and
// the score's float64 bits.
func sameStages(want, got []protocol.StageJSON) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if want[i].Stage != got[i].Stage || want[i].Pass != got[i].Pass {
			return false
		}
		if math.Float64bits(want[i].Score) != math.Float64bits(got[i].Score) {
			return false
		}
	}
	return true
}

// streamMatches checks a stream verdict against the batch oracle. An
// early exit may stop at a different failing stage than the batch
// engine; every stage both ran must agree, except the loudspeaker score
// an early exit takes on the settled prefix of the magnetometer trace.
func streamMatches(want verdict, got *protocol.VerifyResponse, early bool) bool {
	if want.accepted != got.Accepted {
		return false
	}
	if !early {
		return sameStages(want.stages, got.Stages)
	}
	byName := map[string]protocol.StageJSON{}
	for _, s := range want.stages {
		byName[s.Stage] = s
	}
	prefix := core.StageLoudspeaker.String()
	for _, s := range got.Stages {
		w, ok := byName[s.Stage]
		if !ok {
			continue
		}
		if w.Pass != s.Pass && s.Stage != prefix {
			return false
		}
		if s.Stage != prefix && math.Float64bits(w.Score) != math.Float64bits(s.Score) {
			return false
		}
	}
	return true
}

// outcome is what one served request left behind.
type outcome struct {
	err         error
	mismatch    bool
	accepted    bool
	attack      bool
	enroll      bool
	service     time.Duration // send to reply, without queueing
	pipeline    time.Duration // the server's elapsed_us
	bytes       int64
	early       bool
	sent, total int
	ttd         time.Duration
}

// failed reports whether the request counts against failed_share.
func (o *outcome) failed() bool { return o.err != nil || o.mismatch }

// runner executes requests against the live server.
type runner struct {
	p      *plan
	o      *oracle
	c      *client.Client
	stream string
}

// exec sends request idx (a pool index or claim index) and checks its
// reply. It returns the outcome.
func (r *runner) exec(ctx context.Context, idx int) outcome {
	start := time.Now()
	var out outcome
	switch r.p.name {
	case httpMix:
		m := r.p.in.pool[idx]
		out.attack = m.attack
		res, err := r.c.VerifyContext(ctx, m.session)
		if err != nil {
			out.err = err
			break
		}
		out.accepted = res.Response.Accepted
		out.pipeline = res.ServerElapsed
		out.bytes = int64(res.PayloadBytes)
		want := r.o.pool[idx]
		out.mismatch = want.accepted != res.Response.Accepted || !sameStages(want.stages, res.Response.Stages)
	case streamMix:
		m := r.p.in.pool[idx]
		out.attack = m.attack
		res, err := r.c.VerifyStream(ctx, r.stream, m.session)
		if err != nil {
			out.err = err
			break
		}
		out.accepted = res.Response.Accepted
		out.pipeline = time.Duration(res.Response.ElapsedUS) * time.Microsecond
		out.bytes = res.BytesSent
		out.early = res.EarlyExit
		out.sent, out.total = res.FramesSent, res.FramesTotal
		out.ttd = res.TimeToDecision
		out.mismatch = !streamMatches(r.o.pool[idx], res.Response, res.EarlyExit)
	case asvChurn:
		c := r.p.claims[idx]
		u := r.p.in.users[c.user]
		if c.enroll {
			out.enroll = true
			out.err = r.c.EnrollContext(ctx, u.name, u.enroll)
			break
		}
		out.attack = !c.genuine()
		res, err := r.c.VerifyVoiceprintContext(ctx, u.name, r.p.in.users[c.owner].heldOut[c.voice])
		if err != nil {
			out.err = err
			break
		}
		out.accepted = res.Response.Accepted
		out.pipeline = res.ServerElapsed
		out.bytes = int64(res.PayloadBytes)
		want := r.o.claims[claimKey{c.user, c.owner, c.voice}]
		out.mismatch = want.accepted != res.Response.Accepted || !sameStages(want.stages, res.Response.Stages)
	}
	out.service = time.Since(start)
	return out
}

// wireSignal returns s as the server decodes it after 16-bit WAV
// transport, so set-up and the oracle see the samples requests carry.
func wireSignal(s *audio.Signal) (*audio.Signal, error) {
	var buf bytes.Buffer
	if err := audio.WriteWAV(&buf, s); err != nil {
		return nil, fmt.Errorf("gen: encoding WAV: %w", err)
	}
	out, err := audio.ReadWAV(&buf)
	if err != nil {
		return nil, fmt.Errorf("gen: decoding WAV: %w", err)
	}
	return out, nil
}

// cacheCounters are the gmm families read from /metrics.
type cacheCounters struct {
	hits, misses, evictions float64
	batchSum, batchCount    float64
}

// scrapeGMM reads the model-cache and batch-size families.
func scrapeGMM(ctx context.Context, c *client.Client) (cacheCounters, error) {
	text, err := c.MetricsText(ctx)
	if err != nil {
		return cacheCounters{}, err
	}
	var cc cacheCounters
	fields := map[string]*float64{
		`voiceguard_asv_model_cache_events_total{event="hit"}`:      &cc.hits,
		`voiceguard_asv_model_cache_events_total{event="miss"}`:     &cc.misses,
		`voiceguard_asv_model_cache_events_total{event="eviction"}`: &cc.evictions,
		`voiceguard_asv_batch_size_sum`:                             &cc.batchSum,
		`voiceguard_asv_batch_size_count`:                           &cc.batchCount,
	}
	seen := 0
	for _, line := range strings.Split(text, "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if dst, ok := fields[line[:sp]]; ok {
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				return cacheCounters{}, fmt.Errorf("parsing %q: %w", line, err)
			}
			*dst = v
			seen++
		}
	}
	if seen != len(fields) {
		return cacheCounters{}, errors.New("/metrics lacks the ASV cache or batch families")
	}
	return cc, nil
}

// sub returns the counter increments from before to c.
func (c cacheCounters) sub(before cacheCounters) cacheCounters {
	return cacheCounters{
		hits: c.hits - before.hits, misses: c.misses - before.misses,
		evictions: c.evictions - before.evictions,
		batchSum:  c.batchSum - before.batchSum, batchCount: c.batchCount - before.batchCount,
	}
}
