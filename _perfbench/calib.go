package main

import (
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// refNominalMS is about what reference() returns on the 2-vCPU host the
// bounds in BENCHMARK.json were set on, when it runs at its quietest.
// Reported times are scaled by refNominalMS over the run's median
// reference time; the constant sets only their scale, not their spread.
const refNominalMS = 90.0

// The reference kernel's fixed data: a single random cycle through 2M
// slots (8 MiB, beyond the caches) and a 32k-entry hash map, built once.
var (
	refOnce  sync.Once
	refChase []uint32
	refMap   map[uint64]uint32
)

func refInit() {
	const n = 1 << 21
	refChase = make([]uint32, n)
	for i := range refChase {
		refChase[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- { // Sattolo's shuffle: one cycle through every slot
		x = xorshift(x)
		j := int(x % uint64(i))
		refChase[i], refChase[j] = refChase[j], refChase[i]
	}
	refMap = make(map[uint64]uint32, 1<<15)
	for i := uint64(0); i < 1<<15; i++ {
		refMap[i*0x9e3779b97f4a7c15] = uint32(i)
	}
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// refKernel is fixed work in the three shapes the workloads spend their
// CPU on: dependent loads that miss the caches (event heaps, rank state),
// hash-map lookups (message queues) and plain arithmetic.
func refKernel(seed uint64) uint64 {
	p := uint32(seed % uint64(len(refChase)))
	for i := 0; i < 225000; i++ {
		p = refChase[p]
	}
	acc := uint64(p)
	for i := uint64(0); i < 225000; i++ {
		acc += uint64(refMap[(i&(1<<15-1))*0x9e3779b97f4a7c15])
	}
	x := seed | 1
	for i := 0; i < 3000000; i++ {
		x = xorshift(x)
		acc += x >> 60
	}
	return acc
}

// reference runs the kernel once on each of the workers threads at the
// same time and returns the sum of their thread CPU milliseconds. Thread
// CPU time leaves out the Go runtime's background work (sweeping and
// returning the last round's heap to the OS), which would otherwise count
// in process CPU time. The benchmark runs it before every set-up and round,
// outside their timed windows; the run's median tells how fast the host is
// running it.
func reference() float64 {
	refOnce.Do(refInit)
	ms := make([]float64, workers) // each goroutine writes only its own slot
	var wg sync.WaitGroup
	for w := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPUMS()
			refSink[w] = refKernel(uint64(w) + 1)
			ms[w] = threadCPUMS() - t0
		}()
	}
	wg.Wait()
	return sum(ms)
}

// refSink keeps the kernel's results live.
var refSink [workers]uint64

// threadCPUMS returns the calling thread's CPU time in milliseconds, from
// the kernel's nanosecond thread clock.
func threadCPUMS() float64 {
	const clockThreadCPUTimeID = 3 // Linux CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return float64(ts.Nano()) / 1e6
}
