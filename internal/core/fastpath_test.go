package core

import (
	"errors"
	"math"
	"sync"
	"testing"

	"voiceguard/internal/audio"
	"voiceguard/internal/gmm"
	"voiceguard/internal/speech"
	"voiceguard/internal/telemetry"
)

// fastFixture is a trained, enrolled GMM-UBM verifier with one genuine
// and one impostor probe — the scenario every fast-path test scores.
// Training runs EM once; tests share the instance and must leave the
// exact path restored (t.Cleanup(v.DisableFastPath)).
type fastFixture struct {
	v        *SpeakerVerifier
	genuine  *audio.Signal
	impostor *audio.Signal
}

var (
	fastOnce sync.Once
	fastFix  *fastFixture
	fastErr  error
)

func loadFastFixture(t *testing.T) *fastFixture {
	t.Helper()
	fastOnce.Do(func() {
		fastFix, fastErr = buildFastFixture(t)
	})
	if fastErr != nil {
		t.Fatal(fastErr)
	}
	t.Cleanup(fastFix.v.DisableFastPath)
	return fastFix
}

func buildFastFixture(t *testing.T) (*fastFixture, error) {
	bg := buildBackground(t, 4, 900)
	// The default 32-component UBM: the ε contract is stated for the
	// production model shape, and truncation error grows as the mixture
	// shrinks (C=4 of 16 drops far more mass than C=4 of 32).
	v, err := TrainSpeakerVerifier(bg, SpeakerVerifierConfig{Seed: 900})
	if err != nil {
		return nil, err
	}
	rng := newTestRand(901)
	victim := speech.RandomProfile("victim", rng)
	other := speech.RandomProfile("other", rng)
	enroll := renderUtterances(t, victim, "424242", 3, rng)
	if err := v.Enroll("victim", [][]*audio.Signal{enroll}); err != nil {
		return nil, err
	}
	return &fastFixture{
		v:        v,
		genuine:  renderUtterances(t, victim, "424242", 1, rng)[0],
		impostor: renderUtterances(t, other, "424242", 1, rng)[0],
	}, nil
}

func TestFastPathScoresWithinEpsilon(t *testing.T) {
	f := loadFastFixture(t)
	v := f.v
	exactG, err := v.Score("victim", f.genuine)
	if err != nil {
		t.Fatal(err)
	}
	exactI, err := v.Score("victim", f.impostor)
	if err != nil {
		t.Fatal(err)
	}
	// The verdict-equality claim below needs the threshold margin to
	// exceed the fast path's error bound; a collapse of this gap is a
	// model-quality regression worth failing on in its own right.
	if gap := exactG - exactI; gap <= 2*gmm.ShortlistEpsilon {
		t.Fatalf("genuine/impostor gap %v too small to separate at ε=%v", gap, gmm.ShortlistEpsilon)
	}

	if err := v.EnableFastPath(FastPathConfig{}); err != nil {
		t.Fatal(err)
	}
	topC, on := v.FastPath()
	if !on || topC != gmm.DefaultShortlistC {
		t.Fatalf("FastPath() = (%d, %v), want (%d, true)", topC, on, gmm.DefaultShortlistC)
	}
	if sm := v.CompiledUBM(); sm == nil || sm.Digest() == "" {
		t.Fatal("fast path enabled without a compiled UBM")
	}
	fastG, err := v.Score("victim", f.genuine)
	if err != nil {
		t.Fatal(err)
	}
	fastI, err := v.Score("victim", f.impostor)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(fastG - exactG); d > gmm.ShortlistEpsilon {
		t.Errorf("genuine |ΔLLR| = %v exceeds ε = %v", d, gmm.ShortlistEpsilon)
	}
	if d := math.Abs(fastI - exactI); d > gmm.ShortlistEpsilon {
		t.Errorf("impostor |ΔLLR| = %v exceeds ε = %v", d, gmm.ShortlistEpsilon)
	}
	// Verdicts agree with the exact path at the midpoint threshold.
	v.Threshold = (exactG + exactI) / 2
	if !v.Verify("victim", f.genuine).Pass {
		t.Error("fast path rejected the genuine probe")
	}
	if v.Verify("victim", f.impostor).Pass {
		t.Error("fast path accepted the impostor probe")
	}

	v.DisableFastPath()
	if _, on := v.FastPath(); on {
		t.Error("DisableFastPath left the fast path on")
	}
	again, err := v.Score("victim", f.genuine)
	if err != nil {
		t.Fatal(err)
	}
	if again != exactG {
		t.Errorf("exact path not bit-identical after disable: %v vs %v", again, exactG)
	}
}

func TestEnableFastPathValidation(t *testing.T) {
	f := loadFastFixture(t)
	if err := f.v.EnableFastPath(FastPathConfig{TopC: -1}); err == nil {
		t.Error("negative shortlist width accepted")
	}
	if _, on := f.v.FastPath(); on {
		t.Error("failed enable left the fast path on")
	}

	bg := buildBackground(t, 5, 910)
	isv, err := TrainSpeakerVerifier(bg, SpeakerVerifierConfig{
		Backend: BackendISV, Components: 16, ISVRank: 4, Seed: 910,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := isv.EnableFastPath(FastPathConfig{}); err == nil {
		t.Error("ISV backend accepted the fast path")
	}
}

func TestModelDigestsFastEntry(t *testing.T) {
	f := loadFastFixture(t)
	v := f.v
	exact, err := v.ModelDigests()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := exact["asv/fast"]; ok {
		t.Fatal("exact path published an asv/fast digest")
	}
	if err := v.EnableFastPath(FastPathConfig{TopC: 4}); err != nil {
		t.Fatal(err)
	}
	at4, err := v.ModelDigests()
	if err != nil {
		t.Fatal(err)
	}
	if at4["asv/fast"] == "" {
		t.Fatal("fast path published no asv/fast digest")
	}
	// The provenance digest pins the shortlist width.
	if err := v.EnableFastPath(FastPathConfig{TopC: 8}); err != nil {
		t.Fatal(err)
	}
	at8, err := v.ModelDigests()
	if err != nil {
		t.Fatal(err)
	}
	if at8["asv/fast"] == at4["asv/fast"] {
		t.Error("asv/fast digest did not change with the shortlist width")
	}
	// The model digests themselves are path-independent.
	for _, key := range []string{"asv/config", "asv/ubm", "asv/user/victim"} {
		if exact[key] == "" || exact[key] != at4[key] {
			t.Errorf("%s digest changed with the scoring path: %q vs %q", key, exact[key], at4[key])
		}
	}
}

// countingShortlister routes the fast path's UBM pass through TopC while
// counting calls — the shape of the server's cross-request batcher.
type countingShortlister struct {
	sm    *gmm.ScoringModel
	topC  int
	calls int
}

func (c *countingShortlister) ScoreUBM(frames [][]float64) (*gmm.Shortlist, error) {
	c.calls++
	return c.sm.TopC(frames, c.topC)
}

func TestSetUBMShortlisterSeam(t *testing.T) {
	f := loadFastFixture(t)
	v := f.v
	if err := v.SetUBMShortlister(&countingShortlister{}); err == nil {
		t.Fatal("shortlister attached before the fast path was enabled")
	}
	if err := v.EnableFastPath(FastPathConfig{}); err != nil {
		t.Fatal(err)
	}
	direct, err := v.Score("victim", f.genuine)
	if err != nil {
		t.Fatal(err)
	}
	topC, _ := v.FastPath()
	cs := &countingShortlister{sm: v.CompiledUBM(), topC: topC}
	if err := v.SetUBMShortlister(cs); err != nil {
		t.Fatal(err)
	}
	routed, err := v.Score("victim", f.genuine)
	if err != nil {
		t.Fatal(err)
	}
	if cs.calls != 1 {
		t.Errorf("shortlister served %d calls, want 1", cs.calls)
	}
	if routed != direct {
		t.Errorf("routed score %v differs from direct fast score %v", routed, direct)
	}
	if err := v.SetUBMShortlister(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Score("victim", f.genuine); err != nil {
		t.Fatal(err)
	}
	if cs.calls != 1 {
		t.Errorf("detached shortlister still served calls (%d)", cs.calls)
	}
}

func TestFastPathModelCacheAndReenroll(t *testing.T) {
	f := loadFastFixture(t)
	v := f.v
	rng := newTestRand(920)
	user := speech.RandomProfile("cacheuser", rng)
	if err := v.Enroll("cacheuser", [][]*audio.Signal{renderUtterances(t, user, "171717", 2, rng)}); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	metrics := gmm.CacheMetrics{
		Hits:   reg.Counter("fastpath_cache_events", telemetry.Labels{"event": "hit"}),
		Misses: reg.Counter("fastpath_cache_events", telemetry.Labels{"event": "miss"}),
	}
	cache := gmm.NewModelCache(4, metrics)
	if err := v.EnableFastPath(FastPathConfig{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	probe := renderUtterances(t, user, "171717", 1, rng)[0]
	for i := 0; i < 2; i++ {
		if _, err := v.Score("cacheuser", probe); err != nil {
			t.Fatal(err)
		}
	}
	if m, h := metrics.Misses.Value(), metrics.Hits.Value(); m != 1 || h != 1 {
		t.Errorf("after two scores: misses=%d hits=%d, want 1/1", m, h)
	}
	// Re-enrollment produces a new model: the digest memo must drop so
	// the next score compiles the fresh model, not the cached stale one.
	if err := v.Enroll("cacheuser", [][]*audio.Signal{renderUtterances(t, user, "989898", 2, rng)}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Score("cacheuser", probe); err != nil {
		t.Fatal(err)
	}
	if m := metrics.Misses.Value(); m != 2 {
		t.Errorf("re-enrolled model was not recompiled (misses=%d, want 2)", m)
	}
}

// TestEnrollConcurrentWithScore re-enrolls a user while other goroutines
// score and verify the same user (run it under -race). Afterwards the
// fast path's digest memo may hold only models that are still enrolled.
func TestEnrollConcurrentWithScore(t *testing.T) {
	f := loadFastFixture(t)
	v := f.v
	if err := v.EnableFastPath(FastPathConfig{}); err != nil {
		t.Fatal(err)
	}
	rng := newTestRand(930)
	user := speech.RandomProfile("raceuser", rng)
	sessions := [][][]*audio.Signal{
		{renderUtterances(t, user, "171717", 2, rng)},
		{renderUtterances(t, user, "989898", 2, rng)},
	}
	probe := renderUtterances(t, user, "171717", 1, rng)[0]
	if err := v.Enroll("raceuser", sessions[0]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 6; i++ {
			if err := v.Enroll("raceuser", sessions[i%2]); err != nil {
				errs <- err
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := v.Score("raceuser", probe); err != nil {
					errs <- err
				}
				if res := v.Verify("raceuser", probe); res.Elapsed <= 0 {
					errs <- errors.New("verify left Elapsed unset")
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	v.fast.mu.Lock()
	defer v.fast.mu.Unlock()
	for ver := range v.fast.digests {
		enrolled := false
		for _, cur := range v.users {
			enrolled = enrolled || cur == ver
		}
		if !enrolled {
			t.Error("digest memo pins a replaced speaker model")
		}
	}
}
