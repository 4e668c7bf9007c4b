// Command vgbench is the VoiceGuard benchmark. It runs one workload
// against a real server on loopback listeners and prints, as its last
// line, one JSON object with every metric by name and unit:
//
//	vgbench --workload http-mix --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics, splitting the same schedule layer by layer. The
// seed generates every input; set-up decides each input in-process
// first, and every served reply is checked against that oracle.
// BENCHMARK.json lists the workloads, the metrics and their bounds;
// README.md maps each layer metric to the end-to-end figure it should
// move. run.sh builds and runs it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"voiceguard/internal/client"
)

// Run shape. Closed-loop phases take closedShare of --seconds and set
// the rate of the open-loop phases, which take openShare. A traced run
// gives the closed loop tracedClosedShare, then replays the first quarter
// of the open schedule in-process twice (untraced, traced).
const (
	openShare         = 0.6
	closedShare       = 0.3
	tracedClosedShare = 0.15
	setupRepeats      = 3
	// sloLimit is the decision latency a login should stay within.
	sloLimit = 250 * time.Millisecond
	// lagLimit is the generator lateness (p90) beyond which the open
	// loop measured the generator, not the server; the rate is then cut
	// by rateCut, at most maxRateCuts times.
	lagLimit    = 25 * time.Millisecond
	rateCut     = 0.75
	maxRateCuts = 2
	// loadCycles alternations of closed and open loop make up the load
	// phase; capacityWindows split each closed loop for its median rate.
	loadCycles      = 3
	capacityWindows = 3
	// enrollProbes re-enrollments time enroll_ms_p50 on the mixes.
	enrollProbes = 24
)

func main() {
	workload := flag.String("workload", "", "workload: http-mix, stream-mix or asv-churn")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vgbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vgbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run generates the inputs, sets the server up, builds the oracle and
// measures one workload.
func run(name string, seed int64, seconds time.Duration, traced bool) (*result, error) {
	if !workloads[name] {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	host := hostStamp(name, seed)
	stamp, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(stamp))

	in, err := generate(seed, name != asvChurn)
	if err != nil {
		return nil, err
	}
	var setupS []float64
	var e *env
	for k := 0; k < setupRepeats; k++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if e, err = setUp(in); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close()

	ctx := context.Background()
	o, err := buildOracle(ctx, e.sys, name, in)
	if err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	c := client.New("http://" + e.httpAddr)
	c.HTTP = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
	}
	r := &runner{o: o, c: c, stream: e.streamAddr,
		p: newPlan(name, in, rand.New(rand.NewSource(seed^0x5eed)), conns)}

	rep := newReport()
	var res *result
	if traced {
		res, err = runTraced(ctx, r, e, rep, host, seconds)
	} else {
		res, err = runMeasured(ctx, r, seconds, rep)
		rep.set("setup_s", median(setupS), "s")
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	if err != nil {
		return nil, err
	}
	if rep.err != nil {
		return nil, rep.err
	}
	res.Metrics = rep.metrics
	return res, nil
}

// tally accumulates outcomes into the result counts and accuracy shares.
type tally struct {
	mu                       sync.Mutex
	attempted, failed        int
	mismatches               int
	attacks, attacksRejected int
	genuine, genuineAccepted int
}

func (t *tally) add(o outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if o.failed() {
		t.failed++
	}
	if o.mismatch {
		t.mismatches++
		fmt.Fprintln(os.Stderr, "vgbench: served verdict differs from the oracle")
	}
	if o.err != nil {
		fmt.Fprintln(os.Stderr, "vgbench: request failed:", o.err)
	}
	if o.enroll || o.err != nil {
		return
	}
	if o.attack {
		t.attacks++
		if !o.accepted {
			t.attacksRejected++
		}
	} else {
		t.genuine++
		if o.accepted {
			t.genuineAccepted++
		}
	}
}

// closedWindows runs the closed loop for span and returns the rate of
// decisions matching the oracle in each of capacityWindows windows.
// Every outcome goes into t.
func closedWindows(ctx context.Context, r *runner, t *tally, span time.Duration) []float64 {
	var mu sync.Mutex
	var okAt []time.Time
	start := time.Now()
	elapsed := closedLoop(ctx, r.p.conns, span, r.p.closedNext, func(ctx context.Context, i int) {
		o := r.exec(ctx, i)
		t.add(o)
		if !o.failed() && !o.enroll {
			mu.Lock()
			okAt = append(okAt, time.Now())
			mu.Unlock()
		}
	})
	window := elapsed / capacityWindows
	rates := make([]float64, capacityWindows)
	for _, at := range okAt {
		w := min(int(at.Sub(start)/window), capacityWindows-1)
		rates[w] += 1 / window.Seconds()
	}
	return rates
}

// loadRun is what the live load phase left behind.
type loadRun struct {
	t tally
	// capacity is the median closed-loop window rate.
	capacity float64
	// The open loop: outcomes and samples, the due offsets with the
	// closed-loop pauses removed, the requests sent and the mean rate.
	outs    []outcome
	samples []sample
	due     []time.Duration
	reqs    []int
	rate    float64
	cuts    int
}

// runLoad alternates loadCycles closed-loop and open-loop phases, closedSpan
// and openSpan in all. Each open phase runs at loadShare of the capacity
// the closed phase before it measured, so the offered load follows the
// host's speed as it drifts. A run whose generator, not server, fell
// behind is invalid and runs again at a lower rate.
func runLoad(ctx context.Context, r *runner, closedSpan, openSpan time.Duration) (*loadRun, error) {
	for cuts := 0; ; cuts++ {
		lr := &loadRun{cuts: cuts}
		scale := math.Pow(rateCut, float64(cuts))
		var windows []float64
		var offset time.Duration
		for k := 0; k < loadCycles; k++ {
			w := closedWindows(ctx, r, &lr.t, closedSpan/loadCycles)
			windows = append(windows, w...)
			rate := loadShare * median(w) * scale
			first := len(lr.reqs)
			due := r.p.schedule(first, rate, openSpan/loadCycles)
			outs := make([]outcome, len(due))
			samples := openLoop(ctx, due, r.p.conns, func(ctx context.Context, i int, _ time.Time) {
				outs[i] = r.exec(ctx, r.p.open[first+i])
			})
			for i, d := range due {
				lr.due = append(lr.due, offset+d)
				lr.reqs = append(lr.reqs, first+i)
			}
			lr.outs = append(lr.outs, outs...)
			lr.samples = append(lr.samples, samples...)
			lr.rate += rate / loadCycles
			offset += openSpan / loadCycles
		}
		lr.capacity = median(windows)
		lag := make([]float64, len(lr.samples))
		for i, s := range lr.samples {
			lag[i] = ms(s.lag)
		}
		p90, err := percentile(lag, 0.9)
		if err != nil {
			return nil, fmt.Errorf("open loop: %w", err)
		}
		if p90 <= ms(lagLimit) {
			return lr, nil
		}
		if cuts == maxRateCuts {
			return nil, fmt.Errorf("open loop: generator lag p90 %.1f ms after %d rate cuts; the host cannot drive this rate", p90, cuts)
		}
		fmt.Fprintf(os.Stderr, "vgbench: generator lag p90 %.1f ms > %v: run invalid, retrying at %.2f × the rate\n",
			p90, lagLimit, scale*rateCut)
	}
}

// runMeasured measures the end-to-end metrics: closed-loop capacity,
// open-loop latency at loadShare of it, accuracy against the labels,
// enrollment latency.
func runMeasured(ctx context.Context, r *runner, seconds time.Duration, rep *report) (*result, error) {
	lr, err := runLoad(ctx, r, time.Duration(closedShare*float64(seconds)), time.Duration(openShare*float64(seconds)))
	if err != nil {
		return nil, err
	}
	t := &lr.t
	outs, samples, capacity := lr.outs, lr.samples, lr.capacity
	var decisions, enrolls []float64
	sloMet, decided := 0, 0
	for i, o := range outs {
		t.add(o)
		lat := ms(samples[i].latency)
		if o.failed() {
			lat = math.Inf(1)
		}
		if o.enroll {
			enrolls = append(enrolls, lat)
			continue
		}
		decided++
		decisions = append(decisions, lat)
		if !o.failed() && samples[i].latency <= sloLimit {
			sloMet++
		}
	}

	if r.p.name != asvChurn {
		users := r.p.in.users[:mixVictims]
		for k := 0; k < enrollProbes; k++ {
			u := users[k%len(users)]
			t0 := time.Now()
			err := r.c.EnrollContext(ctx, u.name, u.enroll)
			t.add(outcome{enroll: true, err: err})
			if err != nil {
				enrolls = append(enrolls, math.Inf(1))
				continue
			}
			enrolls = append(enrolls, ms(time.Since(t0)))
		}
	}

	rep.setPercentile("decision_ms_p50", decisions, 0.5, "ms")
	rep.setPercentile("decision_ms_p90", decisions, 0.9, "ms")
	rep.set("slo_met_share", float64(sloMet)/float64(decided), "share")
	rep.set("capacity_rps", capacity, "1/s")
	rep.set("served_ok_share", 1-float64(t.failed)/float64(t.attempted), "share")
	rep.set("attack_reject_share", float64(t.attacksRejected)/float64(t.attacks), "share")
	rep.set("genuine_accept_share", float64(t.genuineAccepted)/float64(t.genuine), "share")
	rep.setPercentile("enroll_ms_p50", enrolls, 0.5, "ms")
	return &result{Correct: t.mismatches == 0, Attempted: t.attempted, Failed: t.failed}, nil
}
