// Package core is the public façade of the SweepCache reproduction: it
// wires a workload builder through the right compiler mode for a scheme,
// constructs the machine, and runs the energy-coupled simulation. The
// examples and experiment drivers sit on top of this package.
package core

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Builder constructs a fresh program. Compilation is destructive, so every
// run must build anew; a Builder must be deterministic.
type Builder func() *ir.Program

// ModeFor maps a scheme to its compiler mode: SweepCache variants get the
// region/checkpoint pipeline, ReplayCache the clwb/fence lowering, and the
// JIT-checkpoint designs run plain binaries.
func ModeFor(kind arch.Kind) compiler.Mode {
	return compiler.Mode(kind.CompilerMode())
}

// Compile builds and compiles the program for the scheme.
func Compile(build Builder, kind arch.Kind, p config.Params) (*compiler.Result, error) {
	return compiler.Compile(build(), compileOptions(kind, p))
}

// compileOptions returns the options kind's compiler reads from p, and
// nothing else: plain and replay binaries carry only their Mode, since
// only the sweep-mode compiler reads the store threshold (region
// splitting and unroll factors), the unroll cap and inlining. Compile
// and KeyFor both read it, so two cells share a binary exactly when
// their compilations are the same.
func compileOptions(kind arch.Kind, p config.Params) compiler.Options {
	o := compiler.Options{Mode: ModeFor(kind)}
	if o.Mode == compiler.ModeSweep {
		o.StoreThreshold = p.StoreThreshold
		o.UnrollCap = p.CompilerUnrollCap
		o.InlineSmallFuncs = p.CompilerInline
	}
	return o
}

// Run compiles build for kind and executes it under the given power source
// (nil = outage-free).
func Run(build Builder, kind arch.Kind, p config.Params, src trace.Source) (*sim.Result, error) {
	return RunTracedCtx(context.Background(), build, kind, p, src, nil)
}

// RunTracedCtx is Run with a telemetry tracer attached to the engine and
// the scheme (a nil tracer is the untraced fast path), under a
// cancellation context: the engine polls ctx at epoch boundaries and
// aborts with an error wrapping ctx.Err().
func RunTracedCtx(ctx context.Context, build Builder, kind arch.Kind, p config.Params, src trace.Source, tr *telemetry.Tracer) (*sim.Result, error) {
	cres, err := Compile(build, kind, p)
	if err != nil {
		return nil, fmt.Errorf("core: compile for %v: %w", kind, err)
	}
	return RunCompiledCtx(ctx, cres, kind, p, src, tr)
}

// RunCompiled executes an already-compiled binary on a fresh machine of
// the given kind. The compiled result is only read, so one compilation —
// typically out of SharedCompileCache — can back many concurrent runs.
func RunCompiled(cres *compiler.Result, kind arch.Kind, p config.Params, src trace.Source, tr *telemetry.Tracer) (*sim.Result, error) {
	return RunCompiledCtx(context.Background(), cres, kind, p, src, tr)
}

// RunCompiledCtx is RunCompiled under a cancellation context. Params are
// validated before the machine is constructed, arch.New builds every kind
// from a validated set, and the engine refuses a program whose data does
// not fit the NVM before it boots, so malformed inputs (cache geometry,
// sizes, a store threshold the compiler cannot honour, an NVM smaller than
// the program) surface as descriptive errors here rather than panics.
func RunCompiledCtx(ctx context.Context, cres *compiler.Result, kind arch.Kind, p config.Params, src trace.Source, tr *telemetry.Tracer) (*sim.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: params for %v: %w", kind, err)
	}
	scheme := arch.New(kind, p)
	opt := sim.Options{Source: src, Tracer: tr}
	if ctx != context.Background() {
		opt.Ctx = ctx
	}
	res, err := sim.Run(cres.Linked, scheme, opt)
	if err != nil {
		return res, fmt.Errorf("core: run %v: %w", kind, err)
	}
	return res, nil
}

// Speedup returns how much faster b finished than a (total wall-clock).
func Speedup(a, b *sim.Result) float64 {
	return float64(a.TimeNs) / float64(b.TimeNs)
}
