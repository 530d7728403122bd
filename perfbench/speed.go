package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The shared hosts this benchmark runs on change core speed by up to 1.5×
// within seconds (a neighbour's load on the sibling hardware thread), and
// the change shows in CPU time, not as steal. Wall-clock figures taken
// minutes apart are therefore not comparable as they stand. A speedometer
// samples the core's speed during a run by timing a fixed reference kernel
// in thread CPU time, and every reported time is rescaled to a core that
// runs the kernel in refNominal: a time t measured while the kernel took c
// is reported as t × (refNominal / c)^refExponent. The kernel is the
// benchmark's own code, so a change to the program cannot move it.

const (
	// speedPeriod spaces one CPU's samples; one sample costs about
	// refNominal of that CPU, 0.5% of the period.
	speedPeriod = 100 * time.Millisecond
	// refIters sizes the reference kernel to about refNominal on the
	// host it was calibrated on (Intel Xeon, 2 vCPU).
	refIters   = 27_000
	refNominal = 500e-6 // seconds
	// refExponent: under the benchmark's load the workloads' times grew
	// about as the kernel's cost to the power 1.35 when the host slowed.
	// Over ten runs of each of the four workloads, scaling with exponent
	// 1 left 5-12% run-to-run spread (quartile distance over median); with
	// 1.35, two further sets of ten left 1-14%, most metrics under 7%.
	refExponent = 1.35
)

// refWords sizes each sampler's private table: a 4 MiB working set. A
// working set beyond the private caches matters: with a 16 KiB one the
// kernel slowed about 1.3× less than the simulator when the host slowed;
// with 4 MiB the two move together (log-log slope 1.0 over 70 s of paired
// samples).
const refWords = 1 << 20

// refSink keeps the kernel's result observable.
var refSink atomic.Uint32

// referenceKernel is branchy integer work with random table reads and
// writes, like an interpreter's dispatch loop over a simulated memory.
func referenceKernel(table []uint32, n int) uint32 {
	x := uint32(2463534242)
	var acc uint32
	mask := uint32(len(table) - 1)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		idx := x & mask
		switch x >> 30 {
		case 0:
			acc += table[idx]
		case 1:
			acc ^= table[idx] * 3
		case 2:
			table[idx] = acc + x
		default:
			acc -= x >> 3
		}
	}
	return acc
}

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// cpuMask is a Linux CPU affinity mask.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	var cpus []int
	for i := 0; errno == 0 && i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// pinThread binds the calling OS thread to one CPU; a failure leaves it
// unpinned, which only blurs the per-CPU samples.
func pinThread(cpu int) {
	var m cpuMask
	m[cpu/64] |= 1 << (cpu % 64)
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
}

// speedometer samples the reference kernel's cost on every CPU the
// process may use (the workload runs on all of them, and a neighbour may
// slow one and not another), one sample per CPU every speedPeriod, until
// halted.
type speedometer struct {
	mu   sync.Mutex
	at   []time.Time
	cost []float64 // seconds of thread CPU time per kernel run

	stop chan struct{}
	wg   sync.WaitGroup
}

func startSpeedometer() *speedometer {
	s := &speedometer{stop: make(chan struct{})}
	cpus := allowedCPUs()
	if len(cpus) == 0 {
		cpus = []int{-1}
	}
	var ready sync.WaitGroup
	for i, cpu := range cpus {
		s.wg.Add(1)
		ready.Add(1)
		// Stagger the samplers so they do not contend with each other.
		go s.loop(cpu, time.Duration(i)*speedPeriod/time.Duration(len(cpus)), ready.Done)
	}
	ready.Wait() // every CPU has one sample before anything is timed
	return s
}

func (s *speedometer) loop(cpu int, offset time.Duration, ready func()) {
	defer s.wg.Done()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if cpu >= 0 {
		pinThread(cpu)
	}
	table := make([]uint32, refWords)
	sink := referenceKernel(table, refWords) // fault the table in untimed
	defer func() { refSink.Add(sink) }()
	s.sample(table, &sink)
	ready()
	select {
	case <-s.stop:
		return
	case <-time.After(offset):
	}
	tick := time.NewTicker(speedPeriod)
	defer tick.Stop()
	for {
		s.sample(table, &sink)
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
	}
}

// sample times one reference-kernel run on the calling thread.
func (s *speedometer) sample(table []uint32, sink *uint32) {
	t0 := threadCPU()
	*sink += referenceKernel(table, refIters)
	c := (threadCPU() - t0).Seconds()
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Keep samples in time order across samplers.
	i := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(now) })
	s.at = append(s.at, time.Time{})
	s.cost = append(s.cost, 0)
	copy(s.at[i+1:], s.at[i:])
	copy(s.cost[i+1:], s.cost[i:])
	s.at[i], s.cost[i] = now, c
}

// halt stops sampling and waits for the samplers to exit.
func (s *speedometer) halt() {
	close(s.stop)
	s.wg.Wait()
}

// costDuring is the kernel cost at the mean speed of the samples taken
// between a and b, or the nearest sample's when none was. Work advances
// with speed, 1/cost, so speeds are averaged, not costs: over a second at
// cost 0.8 and a second at 1.25 the core did the work of two seconds at
// cost 1/((1/0.8 + 1/1.25)/2) ≈ 0.98, not at 1.025.
func (s *speedometer) costDuring(a, b time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.at)
	if n == 0 {
		return refNominal
	}
	lo := sort.Search(n, func(i int) bool { return !s.at[i].Before(a) })
	hi := sort.Search(n, func(i int) bool { return s.at[i].After(b) })
	if lo < hi {
		speed := 0.0
		for _, c := range s.cost[lo:hi] {
			speed += 1 / c
		}
		return float64(hi-lo) / speed
	}
	// No sample inside: take the closer neighbour of the interval.
	switch {
	case lo == 0:
		return s.cost[0]
	case lo == n:
		return s.cost[n-1]
	case s.at[lo].Sub(b) < a.Sub(s.at[lo-1]):
		return s.cost[lo]
	default:
		return s.cost[lo-1]
	}
}

// scaled rescales the host time of an interval to the reference core, in
// seconds.
func (s *speedometer) scaled(t timing) float64 {
	return s.scaledWithin(t.dur, t.at, t.at.Add(t.dur))
}

// scaledWithin rescales a duration known only to lie between a and b.
func (s *speedometer) scaledWithin(d time.Duration, a, b time.Time) float64 {
	return d.Seconds() * math.Pow(refNominal/s.costDuring(a, b), refExponent)
}

// samples reports the sample count and the median kernel cost.
func (s *speedometer) samples() (int, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cost), quantile(s.cost, 0.5)
}

// timing is one measured interval of host time.
type timing struct {
	at  time.Time
	dur time.Duration
}

// since is the timing of an interval from start to now.
func since(start time.Time) timing { return timing{start, time.Since(start)} }
