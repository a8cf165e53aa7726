package main

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this benchmark has to be steady on is a slice of a shared
// host, and the host changes speed under it. For seconds to minutes at a time
// the same code needs 20-40 % more CPU time (memory-bound code up to three
// times as much: neighbours on the caches, the memory and the sibling
// threads), and at times the host withholds the CPUs for half of the time
// the guest wants them (steal). Either is more than any regression bound. So
// the end-to-end times are reported at the speed of a reference host: the
// measured window is cut into slices of one second, and what a slice
// measured is divided by
//
//	(CPU time the reference needed around the slice / nominal)
//	  x (1 + time stolen from the guest in the slice / time the guest ran in it)
//
// CPU times by the first factor alone (README.md, "Host-speed
// normalisation"). The raw values are reported beside the normalised ones
// as raw.<metric>.
//
// The reference is frozen here and shares no code with the engine. It is six
// kernels that allocate nothing (a garbage collector would add its own
// timing noise) and that between them lean on what a neighbour can take
// away: the core's latency and throughput, the caches, memory latency and
// memory bandwidth. Each runs on two threads at once, as the workloads keep
// two busy, and all six weigh the same.

// hostRefKernel is one kernel with the CPU time its two threads need between
// them in a typical phase of this sandbox. The nominal times only fix the
// scale, so that normalised and raw values have the same magnitude here.
type hostRefKernel struct {
	run     func(*hostRefState)
	nominal time.Duration
}

var hostRefKernels = []hostRefKernel{
	{(*hostRefState).chase, 36 * time.Millisecond},
	{(*hostRefState).probe, 28 * time.Millisecond},
	{(*hostRefState).encode, 21 * time.Millisecond},
	{(*hostRefState).ilp, 23 * time.Millisecond},
	{(*hostRefState).chain, 20 * time.Millisecond},
	{(*hostRefState).stream, 25 * time.Millisecond},
}

// hostRefState is one thread's working set, built once per process.
type hostRefState struct {
	next []uint32        // one random cycle through 8 MiB
	m    map[int64]int64 // 64 Ki entries
	vals []uint64        // integers of mixed magnitude
	buf  []byte
	sink uint64
}

const hostRefN = 1 << 21

func newHostRefState(seed int64) *hostRefState {
	r := rand.New(rand.NewSource(seed))
	s := &hostRefState{
		next: make([]uint32, hostRefN),
		m:    make(map[int64]int64, 1<<16),
		vals: make([]uint64, 1<<16),
		buf:  make([]byte, 0, 1<<20),
	}
	p := r.Perm(hostRefN)
	for i := range p {
		s.next[p[i]] = uint32(p[(i+1)%hostRefN])
	}
	for i := range s.vals {
		s.m[int64(i)*7919] = int64(i)
		s.vals[i] = r.Uint64() >> uint(r.Intn(60))
	}
	return s
}

// chase follows the random cycle: every step is a cache miss that waits for
// memory.
func (s *hostRefState) chase() {
	var i uint32
	for k := 0; k < 100_000; k++ {
		i = s.next[i]
	}
	s.sink += uint64(i)
}

// probe looks keys up in a hash table that fits the outer caches.
func (s *hostRefState) probe() {
	var h int64
	for k := 0; k < 400_000; k++ {
		h += s.m[int64(k&0xffff)*7919]
	}
	s.sink += uint64(h)
}

// encode appends varints to a reused buffer, as an encoder does.
func (s *hostRefState) encode() {
	for r := 0; r < 12; r++ {
		b := s.buf[:0]
		for _, v := range s.vals {
			b = binary.AppendUvarint(b, v)
		}
		s.sink += uint64(len(b))
	}
}

// ilp runs four independent chains of multiplications: bound by how many
// the core retires per cycle, which a busy sibling thread lowers.
func (s *hostRefState) ilp() {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := uint64(0); i < 8_000_000; i++ {
		a = (a ^ i) * 1099511628211
		b = (b ^ i) * 1099511628213
		c = (c + i) * 1099511628215
		d = (d + i) * 1099511628217
	}
	s.sink += a + b + c + d
}

// chain is one dependent chain of multiplications: bound by the clock alone.
func (s *hostRefState) chain() {
	h := uint64(14695981039346656037)
	for i := uint64(0); i < 8_000_000; i++ {
		h = (h ^ i) * 1099511628211
	}
	s.sink += h
}

// stream sums the 8 MiB array in order: bound by memory bandwidth.
func (s *hostRefState) stream() {
	var t uint32
	for r := 0; r < 6; r++ {
		for _, v := range s.next {
			t += v
		}
	}
	s.sink += uint64(t)
}

var (
	hostRefOnce   sync.Once
	hostRefStates []*hostRefState
)

// threadCPU returns the CPU time the calling OS thread has used. It reads
// the thread's CPU clock, which is exact; getrusage lags by up to a
// scheduler tick, a third of a kernel.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// hostRef runs the reference once (about 80 ms) and returns how much more CPU
// time than nominal it needed: the mean of the kernels' ratios. CPU time, not
// elapsed time, so that time stolen from the reference itself does not
// count; what is stolen from a slice is measured on the slice.
func hostRef() float64 {
	hostRefOnce.Do(func() { hostRefStates = []*hostRefState{newHostRefState(1), newHostRefState(2)} })
	var sum float64
	for _, k := range hostRefKernels {
		used := make([]time.Duration, len(hostRefStates))
		var wg sync.WaitGroup
		for i, s := range hostRefStates {
			wg.Add(1)
			go func(i int, s *hostRefState) {
				defer wg.Done()
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				c0 := threadCPU()
				k.run(s)
				used[i] = threadCPU() - c0
			}(i, s)
		}
		wg.Wait()
		var cpu time.Duration
		for _, c := range used {
			cpu += c
		}
		sum += float64(cpu) / float64(k.nominal)
	}
	return sum / float64(len(hostRefKernels))
}
