package workloads

import (
	"repro/internal/ir"
	"repro/internal/isa"
)

// This file is the miniature runtime library the kernels link against,
// standing in for the MUSL routines the paper compiles into its binaries
// (Section 6: "we instruct the linker to link evaluated programs against
// the MUSL C library which is also compiled by SweepCache's compiler").
// Calls to these routines exercise the interprocedural machinery the
// kernels' inner loops never touch: callsite region boundaries, the
// callee-entry lr checkpoint, and interprocedural liveness.
//
// Calling convention (all routines):
//
//	R0, R1, R2   arguments (registers above R7 are caller-owned scratch
//	             the callees never touch, except the documented clobbers)
//	R0           result
//	clobbers     R0..R7 and lr
//
// Kernels call these from their *outer* loops — never the hot inner loops,
// mirroring real programs where the hot paths are inlined but setup and
// per-frame bookkeeping go through the library.

// lib lazily instantiates the library functions a kernel actually uses.
type lib struct {
	k *kernel

	memset  *ir.Function
	fold    *ir.Function
	clampFn *ir.Function
}

func newLib(k *kernel) *lib { return &lib{k: k} }

// Memset returns lib_memset(dst=R0, val=R1, words=R2): fills R2 words.
func (l *lib) Memset() *ir.Function {
	if l.memset != nil {
		return l.memset
	}
	f := l.k.p.NewFunc("lib_memset")
	en := f.Entry()
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")
	en.MovI(R3, 0)
	en.Jmp(head)
	head.Bge(R3, R2, exit, body)
	body.ShlI(R4, R3, 3)
	body.Add(R4, R4, R0)
	body.St(R4, 0, R1)
	body.AddI(R3, R3, 1)
	body.Jmp(head)
	exit.Ret()
	l.memset = f
	return f
}

// Fold returns lib_fold(base=R0, words=R1) -> R0: a xor-rotate digest of
// R1 words, the library routine kernels use for their final checksums.
func (l *lib) Fold() *ir.Function {
	if l.fold != nil {
		return l.fold
	}
	f := l.k.p.NewFunc("lib_fold")
	en := f.Entry()
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")
	en.MovI(R3, 0)
	en.MovI(R4, 0) // acc
	en.Jmp(head)
	head.Bge(R3, R1, exit, body)
	body.ShlI(R5, R3, 3)
	body.Add(R5, R5, R0)
	body.Ld(R6, R5, 0)
	body.Add(R4, R4, R6)
	body.ShlI(R7, R4, 13)
	body.Xor(R4, R4, R7)
	body.ShrI(R7, R4, 7)
	body.Xor(R4, R4, R7)
	body.AddI(R3, R3, 1)
	body.Jmp(head)
	exit.Mov(R0, R4)
	exit.Ret()
	l.fold = f
	return f
}

// Clamp returns lib_clamp(x=R0, lo=R1, hi=R2) -> R0.
func (l *lib) Clamp() *ir.Function {
	if l.clampFn != nil {
		return l.clampFn
	}
	f := l.k.p.NewFunc("lib_clamp")
	en := f.Entry()
	lo := f.NewBlock("lo")
	hiChk := f.NewBlock("hichk")
	hi := f.NewBlock("hi")
	out := f.NewBlock("out")
	en.Blt(R0, R1, lo, hiChk)
	lo.Mov(R0, R1)
	lo.Jmp(out)
	hiChk.Blt(R2, R0, hi, out)
	hi.Mov(R0, R2)
	hi.Jmp(out)
	out.Ret()
	l.clampFn = f
	return f
}

// callMemset emits a call dst.memset(base, val, words) at the end of cur,
// returning the continuation block.
func callMemset(l *lib, f *ir.Function, cur *ir.Block, label string, base, val, words int64) *ir.Block {
	cur.MovI(R0, base)
	cur.MovI(R1, val)
	cur.MovI(R2, words)
	cont := f.NewBlock(label)
	cur.Call(l.Memset(), cont)
	return cont
}

// finishFold is the shared library-using epilogue: fold up to 256 words of
// the kernel's output array through lib_fold, xor in the kernel's own
// accumulator, store the checksum, halt. Every kernel ends through here,
// so every workload exercises a call boundary, the callee-entry lr
// checkpoint, and interprocedural liveness.
func (k *kernel) finishFold(l *lib, f *ir.Function, cur *ir.Block, base, bytes int64, acc isa.Reg) {
	words := bytes / 8
	if words > 256 {
		words = 256
	}
	if words < 1 {
		words = 1
	}
	cur.MovI(R0, base)
	cur.MovI(R1, words)
	// Preserve the kernel's accumulator across the call in a register
	// the library never touches.
	cur.Mov(R9, acc)
	cont := f.NewBlock("epilogue")
	cur.Call(l.Fold(), cont)
	cont.Xor(R0, R0, R9)
	cont.MovI(R10, k.check)
	cont.St(R10, 0, R0)
	cont.Halt()
}
