package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile's rank
// before that percentile is reported.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank p-th percentile of xs and
// whether at least minBeyond samples lie strictly beyond that rank; a
// percentile without that support is not reported.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if n-rank < minBeyond {
		return 0, false
	}
	return sortedCopy(xs)[rank-1], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// procSample is a snapshot of the process-wide counters the end-to-end
// cost metrics are differences of.
type procSample struct {
	cpu   time.Duration // user plus system CPU time
	alloc uint64        // cumulative heap bytes allocated
}

func sampleProc() procSample {
	var ru syscall.Rusage
	var cpu time.Duration
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return procSample{cpu: cpu, alloc: s[0].Value.Uint64()}
}

func (a procSample) minus(b procSample) procSample {
	return procSample{cpu: a.cpu - b.cpu, alloc: a.alloc - b.alloc}
}

func (a procSample) plus(b procSample) procSample {
	return procSample{cpu: a.cpu + b.cpu, alloc: a.alloc + b.alloc}
}

// heapLiveBytes forces a collection and returns the live heap it found.
func heapLiveBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
