package main

import (
	"sync"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts by a
// third within minutes, and the drift moves every wall-clock and CPU
// time. To keep runs comparable, a run also times a fixed calibration
// kernel around each set-up, and before and after its loop and once a
// second during it. The gated time metrics are reported at a fixed
// reference speed: a measured wall time t becomes
// t · calRefMS / (the kernel's median wall time), and a CPU time
// likewise by the kernel's CPU time, which, unlike its wall time, does
// not grow while other tenants hold the host's vCPUs. The raw values
// are printed beside them.
const (
	// calWorkers is how many goroutines run the kernel: the worker
	// budget the workloads use.
	calWorkers = 2
	// calRefMS is the reference kernel time: a 2-vCPU linux/amd64 host
	// at a quiet moment (go1.24.0).
	calRefMS = 20.0
	// calPeriod is how often a closed loop pauses to calibrate.
	calPeriod = time.Second
	// calSteps is how many xorshift steps each kernel goroutine takes.
	calSteps = 6_000_000
	// calMask indexes a kernel goroutine's table.
	calMask = 1<<18 - 1
)

// calTables are the kernel's tables, allocated once so that a kernel
// run allocates nothing the cost metrics could count. Kernel runs never
// overlap.
var calTables = func() [][]uint64 {
	t := make([][]uint64, calWorkers)
	for g := range t {
		t[g] = make([]uint64, calMask+1)
	}
	return t
}()

// calSample is one run of the calibration kernel: its wall time and the
// process CPU time it took, in milliseconds.
type calSample struct{ wall, cpu float64 }

// calibrate runs the calibration kernel once: each of calWorkers
// goroutines scatters calSteps xorshift steps into its own 2 MiB table,
// so both the ALUs and the caches are exercised.
func calibrate() calSample {
	p0, t0 := sampleProc(), time.Now()
	var wg sync.WaitGroup
	for g := 0; g < calWorkers; g++ {
		wg.Add(1)
		go func(buf []uint64, x uint64) {
			defer wg.Done()
			for i := 0; i < calSteps; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				buf[x&calMask] += x
			}
		}(calTables[g], uint64(g+1))
	}
	wg.Wait()
	wall := time.Since(t0)
	return calSample{wall: float64(wall.Nanoseconds()) / 1e6, cpu: float64(sampleProc().minus(p0).cpu.Nanoseconds()) / 1e6}
}

// speedScale returns the factors that convert wall and CPU times
// measured alongside samples to the reference speed. At the reference,
// every kernel goroutine runs for the whole kernel run.
func speedScale(samples []calSample) (wall, cpu float64) {
	w := make([]float64, len(samples))
	c := make([]float64, len(samples))
	for i, s := range samples {
		w[i], c[i] = s.wall, s.cpu
	}
	return calRefMS / median(w), calWorkers * calRefMS / median(c)
}
