// Package workloads provides the 26 benchmark kernels of the evaluation
// (Section 6): miniature, functionally real re-implementations of the
// MediaBench and MiBench programs the paper runs, hand-written in the IR
// builder. Each kernel reproduces its original's characteristic loop
// structure, memory footprint, store density, and branchiness; inputs are
// seeded pseudo-random data generated at build time, and every kernel
// finishes by folding its output into a checksum word so differential
// tests can compare runs across schemes and outage patterns.
package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/ir"
	"repro/internal/isa"
)

// Register aliases for kernel code readability.
const (
	R0 isa.Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
)

// Workload is one benchmark: a name, its suite, and a deterministic
// program builder. Scale multiplies the outer iteration count; 0 and 1
// both mean the evaluation's default size.
type Workload struct {
	Name  string
	Suite string // "mediabench" or "mibench"
	Build func(scale int) *ir.Program
}

// CheckAddr returns the NVM address of the checksum the kernel writes last.
// Valid only for programs built by this package (it is the first word of
// the data segment by convention).
func CheckAddr() int64 { return ir.DataBase }

func normScale(scale int) int64 {
	if scale < 1 {
		return 1
	}
	return int64(scale)
}

// kernel is the common scaffolding all builders share: a program with the
// checksum word allocated first, plus a seeded rng for input data.
type kernel struct {
	p   *ir.Program
	rng *rand.Rand
	// check is the checksum address == CheckAddr().
	check int64
}

func newKernel(name string, seed int64) *kernel {
	p := ir.NewProgram(name)
	k := &kernel{p: p, rng: rand.New(rand.NewSource(seed))}
	k.check = p.Alloc(8)
	if k.check != CheckAddr() {
		panic("workloads: checksum must be the first allocation")
	}
	return k
}

// words allocates and initializes n words with values from gen.
func (k *kernel) words(n int, gen func(i int) int64) int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = gen(i)
	}
	return k.p.AllocWords(vals)
}

// randWords allocates n words of bounded random data.
func (k *kernel) randWords(n int, bound int64) int64 {
	return k.words(n, func(int) int64 { return k.rng.Int63n(bound) })
}

// randBytes allocates n random bytes.
func (k *kernel) randBytes(n int) int64 {
	base := k.p.Alloc(int64(n))
	for i := 0; i < n; i++ {
		k.p.InitByte(base+int64(i), byte(k.rng.Intn(256)))
	}
	return base
}

// Loop is a builder helper for the canonical while-loop shape
// (head tests, body runs, latch jumps back) that the compiler's loop
// passes recognize.
type Loop struct {
	Head, Body, Exit *ir.Block
	ctr              isa.Reg
}

// NewLoop wires prev -> head; head: if ctr >= limit goto exit else body.
// The caller fills Body (and may nest further loops), then calls Close on
// whatever block ends the iteration.
func NewLoop(f *ir.Function, tag string, prev *ir.Block, ctr, limit isa.Reg) *Loop {
	head := f.NewBlock(tag + ".head")
	body := f.NewBlock(tag + ".body")
	exit := f.NewBlock(tag + ".exit")
	prev.Jmp(head)
	head.Bge(ctr, limit, exit, body)
	return &Loop{Head: head, Body: body, Exit: exit, ctr: ctr}
}

// Close increments the counter on `on` and jumps back to the loop head.
func (l *Loop) Close(on *ir.Block, step int64) {
	on.AddI(l.ctr, l.ctr, step)
	on.Jmp(l.Head)
}

// finish appends the standard epilogue to `last`: fold `acc` into the
// checksum word and halt. Every kernel ends through here so differential
// tests have a common observable.
func (k *kernel) finish(last *ir.Block, acc isa.Reg) {
	tmp := R14
	if acc == tmp {
		tmp = R13
	}
	last.MovI(tmp, k.check)
	last.St(tmp, 0, acc)
	last.Halt()
}

var registry []Workload

func register(name, suite string, build func(scale int) *ir.Program) {
	registry = append(registry, Workload{Name: name, Suite: suite, Build: build})
}

// All returns every workload in the paper's presentation order
// (MediaBench first, then MiBench — Figure 5's x-axis).
func All() []Workload {
	out := make([]Workload, len(registry))
	copy(out, registry)
	return out
}

// ByName returns the named workload.
func ByName(name string) (Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// Names lists all workload names in order.
func Names() []string {
	out := make([]string, len(registry))
	for i, w := range registry {
		out[i] = w.Name
	}
	return out
}
