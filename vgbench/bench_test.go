package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"voiceguard/internal/audio"
	"voiceguard/internal/core"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 0, false},
		{20, 0.5, 10, true},
		{99, 0.9, 0, false},
		{100, 0.9, 90, true},
		{1000, 0.99, 990, true},
		{1000, 0.995, 0, false},
		{100, 0, 0, false},
		{100, 1, 0, false},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("percentile(%d samples, %v): err = %v, want ok=%v", tc.n, tc.p, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("percentile(%d samples, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestOpenLoopTimesFromDueUnderStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 300 * time.Millisecond}
	samples := openLoop(context.Background(), due, 1, func(_ context.Context, i int, _ time.Time) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	// Requests due during the stall queue behind it: each is charged the
	// stall's remainder from its own due time, not from when it was sent.
	for i := 1; i <= 3; i++ {
		if min := stall - due[i] - 5*time.Millisecond; samples[i].latency < min {
			t.Errorf("request %d latency %v, want at least %v", i, samples[i].latency, min)
		}
		if samples[i].wait < stall-due[i]-5*time.Millisecond {
			t.Errorf("request %d waited %v for a connection, want about %v", i, samples[i].wait, stall-due[i])
		}
	}
	// The generator itself kept time while the worker stalled.
	for i, s := range samples {
		if s.lag > 50*time.Millisecond {
			t.Errorf("request %d dispatched %v late", i, s.lag)
		}
	}
	// The request due after the stall cleared saw no queue.
	if samples[4].latency > 50*time.Millisecond {
		t.Errorf("request after the stall took %v", samples[4].latency)
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, s := range []string{"decision_ms_p50", "gmm.cache_hit_ratio", "http-mix", "9lives", strings.Repeat("a", 64)} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range []string{"", "_x", ".x", "-x", "a b", "a/b", "é", strings.Repeat("a", 65)} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	for _, s := range []string{"ms", "s", "1/s", "%", "count", "share", "MB", "a_b.c-d"} {
		if !validUnit(s) {
			t.Errorf("validUnit(%q) = false", s)
		}
	}
	for _, s := range []string{"", "m s", "ms!", strings.Repeat("m", 17)} {
		if validUnit(s) {
			t.Errorf("validUnit(%q) = true", s)
		}
	}
	r := newReport()
	r.set("x_ms", 1, "ms")
	r.set("x_ms", 2, "ms")
	if r.err == nil {
		t.Error("report accepted a metric set twice")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		r := newReport()
		if r.set("x_ms", v, "ms"); r.err == nil {
			t.Errorf("report accepted %v", v)
		}
	}
	if got := countName("core.verify_ms"); got != "core.verify_n" {
		t.Errorf("countName = %q", got)
	}
}

// TestBenchmarkJSONMatchesCode checks that BENCHMARK.json declares the
// workloads this program runs, with names and units the grammar accepts.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if !workloads[w.Name] {
			t.Errorf("workload %q is not one the code runs", w.Name)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		if !validName(m.Name) || !validUnit(m.Unit) || seen[m.Name] {
			t.Errorf("bad or repeated metric %q unit %q", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
}

func TestSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every input twice")
	}
	a, err := generate(7, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(7, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest() != b.digest() {
		t.Error("the same seed generated different inputs")
	}
	c, err := generate(8, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest() == c.digest() {
		t.Error("different seeds generated identical inputs")
	}
	for _, name := range []string{httpMix, asvChurn} {
		p := newPlan(name, a, rand.New(rand.NewSource(3)), 2)
		q := newPlan(name, b, rand.New(rand.NewSource(3)), 2)
		if fmt.Sprint(p.schedule(0, 20, 5*time.Second), p.open, p.closed, p.claims) !=
			fmt.Sprint(q.schedule(0, 20, 5*time.Second), q.open, q.closed, q.claims) {
			t.Errorf("%s: the same seed drew different schedules", name)
		}
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{Trace: 1, ID: 0, Parent: -1, Name: "request", Start: 0, End: 10 * ms},
		{Trace: 1, ID: 1, Parent: 0, Name: "client.encode", Start: 0, End: 3 * ms},
		{Trace: 1, ID: 2, Parent: 0, Name: "server.verify", Start: 4 * ms, End: 9 * ms},
		{Trace: 1, ID: 3, Parent: 2, Name: "core.verify", Start: 5 * ms, End: 8 * ms},
		{Trace: 1, ID: 4, Parent: 2, Name: "core.verify", Start: 6 * ms, End: 9 * ms}, // overlaps its sibling
		{Trace: 2, ID: 0, Parent: -1, Name: "features.extract", Start: 0, End: 2 * ms, Probe: true},
	}
	a := analyze(spans)
	if a.coverage != 0.8 {
		t.Errorf("coverage = %v, want 0.8", a.coverage)
	}
	want := map[string]float64{"uncovered": 2, "client": 3, "server": 1, "core": 6}
	for layer, w := range want {
		if got := a.selfByLayer[layer]; len(got) != 1 || got[0] != w {
			t.Errorf("self %s = %v, want [%v]", layer, got, w)
		}
	}
	if got := a.byName["features.extract"]; len(got) != 1 || got[0] != 2 {
		t.Errorf("probe durations = %v", got)
	}
}

// digest is a content hash of every generated input.
func (in *inputs) digest() string {
	h := sha256.New()
	f64 := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	signal := func(s *audio.Signal) {
		f64(s.Rate)
		for _, v := range s.Samples {
			f64(v)
		}
	}
	for _, u := range in.users {
		h.Write([]byte(u.name))
		for _, sess := range u.enroll {
			for _, s := range sess {
				signal(s)
			}
		}
		for _, s := range u.heldOut {
			signal(s)
		}
	}
	for _, m := range in.pool {
		h.Write([]byte(m.class))
		h.Write([]byte(core.SessionDigest(m.session)))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
