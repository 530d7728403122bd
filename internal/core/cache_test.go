package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/ir"
	"repro/internal/workloads"
)

func testBuilder(t *testing.T, name string, builds *atomic.Int64) Builder {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return func() *ir.Program {
		if builds != nil {
			builds.Add(1)
		}
		return w.Build(1)
	}
}

func TestCompileCacheSharesByKey(t *testing.T) {
	cc := NewCompileCache()
	p := config.Default()
	var builds atomic.Int64
	b := testBuilder(t, "sha", &builds)

	a1, err := cc.Get(KeyFor("sha", 1, arch.NVP, p), b, arch.NVP, p)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := cc.Get(KeyFor("sha", 1, arch.NVP, p), b, arch.NVP, p)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("identical keys returned distinct compilations")
	}
	// NVSRAM shares NVP's plain compiler mode: same binary.
	a3, err := cc.Get(KeyFor("sha", 1, arch.NVSRAM, p), b, arch.NVSRAM, p)
	if err != nil {
		t.Fatal(err)
	}
	if a3 != a1 {
		t.Error("plain-mode schemes should share one compilation")
	}
	// SweepCache compiles in region mode: distinct binary.
	a4, err := cc.Get(KeyFor("sha", 1, arch.SweepEmptyBit, p), b, arch.SweepEmptyBit, p)
	if err != nil {
		t.Fatal(err)
	}
	if a4 == a1 {
		t.Error("different compiler modes shared a compilation")
	}
	// A compile-relevant parameter forks the key.
	p2 := p
	p2.StoreThreshold += 8
	a5, err := cc.Get(KeyFor("sha", 1, arch.SweepEmptyBit, p2), b, arch.SweepEmptyBit, p2)
	if err != nil {
		t.Fatal(err)
	}
	if a5 == a4 {
		t.Error("changed StoreThreshold shared a compilation")
	}
	if got, want := builds.Load(), int64(3); got != want {
		t.Errorf("builder invoked %d times, want %d", got, want)
	}
	if cc.Len() != 3 {
		t.Errorf("cache holds %d entries, want 3", cc.Len())
	}
}

// TestKeyForReadsOnlyCompiledKnobs: a compile key changes with a knob
// exactly when the scheme's compiler reads it. Plain (NVP) and replay
// (ReplayCache) binaries share one key across the store threshold, the
// unroll cap and inlining; a Sweep binary gets a key of its own for each.
func TestKeyForReadsOnlyCompiledKnobs(t *testing.T) {
	knobs := map[string]func(*config.Params){
		"StoreThreshold":    func(p *config.Params) { p.StoreThreshold += 8 },
		"CompilerUnrollCap": func(p *config.Params) { p.CompilerUnrollCap++ },
		"CompilerInline":    func(p *config.Params) { p.CompilerInline = !p.CompilerInline },
	}
	for _, k := range []arch.Kind{arch.NVP, arch.ReplayCache, arch.SweepEmptyBit} {
		base := KeyFor("sha", 1, k, config.Default())
		for name, turn := range knobs {
			p := config.Default()
			turn(&p)
			changed := KeyFor("sha", 1, k, p) != base
			if want := k == arch.SweepEmptyBit; changed != want {
				t.Errorf("%v: %s changed the compile key = %v, want %v", k, name, changed, want)
			}
		}
	}
}

func TestCompileCacheConcurrentSingleflight(t *testing.T) {
	cc := NewCompileCache()
	p := config.Default()
	var builds atomic.Int64
	b := testBuilder(t, "fft", &builds)
	key := KeyFor("fft", 1, arch.SweepEmptyBit, p)

	const n = 16
	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cc.Get(key, b, arch.SweepEmptyBit, p)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Errorf("builder invoked %d times under concurrency, want 1", builds.Load())
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different compilation", i)
		}
	}
}
