package core

import (
	"sync"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/config"
)

// CompileKey identifies one compilation output. Two cells of an
// experiment matrix share a binary exactly when their keys match: the
// same workload build (Workload and Scale must uniquely determine the
// Builder's program — builders are deterministic by contract) compiled
// under the same options. Scheme kinds that share a compiler mode (NVP,
// WTVCache, NVSRAM, NVSRAME, NvMR all run plain binaries) collapse onto
// one entry, and so do plain and replay builds under params that differ
// only in knobs their compiler does not read.
type CompileKey struct {
	Workload string
	Scale    int
	Options  compiler.Options
}

// KeyFor returns the compile key for building workload at scale for kind
// under p: the options are the ones Compile compiles with.
func KeyFor(workload string, scale int, kind arch.Kind, p config.Params) CompileKey {
	return CompileKey{Workload: workload, Scale: scale, Options: compileOptions(kind, p)}
}

// CompileCache memoizes compiler results across an experiment matrix.
// A compiler.Result is immutable once linked — the engine only reads
// Code/Dec/Image — so one entry is safely shared by concurrent
// simulations. Each key compiles exactly once even under concurrent
// lookups (per-entry sync.Once).
type CompileCache struct {
	mu sync.Mutex
	m  map[CompileKey]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	res  *compiler.Result
	err  error
}

// NewCompileCache returns an empty cache.
func NewCompileCache() *CompileCache {
	return &CompileCache{m: map[CompileKey]*cacheEntry{}}
}

// Get returns the cached compilation for key, invoking build (through
// Compile) at most once per key. Errors are cached alongside results so
// a failing compilation is not retried by every cell of a matrix.
func (cc *CompileCache) Get(key CompileKey, build Builder, kind arch.Kind, p config.Params) (*compiler.Result, error) {
	cc.mu.Lock()
	e := cc.m[key]
	if e == nil {
		e = &cacheEntry{}
		cc.m[key] = e
	}
	cc.mu.Unlock()
	e.once.Do(func() { e.res, e.err = Compile(build, kind, p) })
	return e.res, e.err
}

// Len reports how many distinct binaries the cache holds.
func (cc *CompileCache) Len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.m)
}

// shared is the process-wide cache the experiment drivers use: matrices
// for different figures recompile nothing the evaluation has already
// built.
var shared = NewCompileCache()

// SharedCompileCache returns the process-wide compile cache.
func SharedCompileCache() *CompileCache { return shared }
