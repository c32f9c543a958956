package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"coplot/internal/rng"
)

// outcome classifies one finished operation.
type outcome int

const (
	opOK      outcome = iota // completed with the expected output
	opFailed                 // returned an error
	opRefused                // turned away by admission control (429)
	opWrong                  // completed, but the output failed its check
)

// tally accounts for the operations of a closed loop.
type tally struct {
	Attempted, OK, Failed, Refused, Wrong int
	// Lat holds the latency in milliseconds of every operation that
	// completed (OK or Wrong); failed and refused ones have none.
	Lat []float64
	// Wall is the measured wall time: from the loop's start until its
	// last operation finished, less the time spent calibrating.
	Wall time.Duration
	// Cost is what the process spent over Wall: CPU time and heap
	// allocation, less what the calibrations during it spent.
	Cost procSample
	// Cal holds the calibrations taken around and during the loop.
	Cal []calSample
}

func (t *tally) add(o outcome, d time.Duration) {
	t.Attempted++
	switch o {
	case opOK:
		t.OK++
	case opFailed:
		t.Failed++
	case opRefused:
		t.Refused++
	case opWrong:
		t.Wrong++
	}
	if o == opOK || o == opWrong {
		t.Lat = append(t.Lat, float64(d.Nanoseconds())/1e6)
	}
}

func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.OK += o.OK
	t.Failed += o.Failed
	t.Refused += o.Refused
	t.Wrong += o.Wrong
	t.Lat = append(t.Lat, o.Lat...)
}

// bad counts the operations that count against fail_frac.
func (t tally) bad() int { return t.Failed + t.Refused + t.Wrong }

// failLog keeps the reasons operations failed, for the report; the
// workload instances embed it.
type failLog struct {
	mu   sync.Mutex
	msgs []string
}

// maxFailMsgs caps the failure reasons a run keeps.
const maxFailMsgs = 20

// fail records a reason and returns o, so a check can return its
// outcome in one statement.
func (f *failLog) fail(o outcome, format string, args ...any) outcome {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.msgs) < maxFailMsgs {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
	return o
}

func (f *failLog) failures() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.msgs...)
}

// opFunc runs one operation for a client and reports its outcome and
// the latency to account for it.
type opFunc func(ctx context.Context, client, seq int) (outcome, time.Duration)

// closedLoop runs clients concurrent callers, each issuing its next
// operation only after the previous one returned, until dur has passed
// (an operation in flight at the deadline is finished and counted).
// Before and after the loop, and every calPeriod during it, it holds
// new operations back, lets those in flight finish, and calibrates
// alone.
func closedLoop(ctx context.Context, clients int, dur time.Duration, op opFunc) tally {
	var t tally
	t.Cal = append(t.Cal, calibrate())
	var gate sync.RWMutex // operations hold it shared, calibration alone
	var held time.Duration
	var calCost procSample
	stop := make(chan struct{})
	calDone := make(chan struct{})
	p0 := sampleProc()
	start := time.Now()
	go func() {
		defer close(calDone)
		tick := time.NewTicker(calPeriod)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			gate.Lock()
			t0, c0 := time.Now(), sampleProc()
			t.Cal = append(t.Cal, calibrate())
			held += time.Since(t0)
			calCost = sampleProc().minus(c0).plus(calCost)
			gate.Unlock()
		}
	}()
	per := make([]tally, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; time.Since(start) < dur && ctx.Err() == nil; seq++ {
				gate.RLock()
				o, d := op(ctx, c, seq)
				gate.RUnlock()
				per[c].add(o, d)
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-calDone
	t.Wall = time.Since(start) - held
	t.Cost = sampleProc().minus(p0).minus(calCost)
	for _, p := range per {
		t.merge(p)
	}
	t.Cal = append(t.Cal, calibrate())
	return t
}

// zipfKeys draws key indices in [0, n) from a Zipf law (rank k drawn
// with weight proportional to 1/(1+k)^s). The stream is a pure
// function of (seed, client), so a run's request sequence per client
// is reproducible whatever the interleaving of clients.
type zipfKeys struct{ z *rand.Zipf }

func newZipfKeys(seed uint64, client, n int, s float64) *zipfKeys {
	src := rand.NewSource(int64(rng.Derive(seed, "zipf") + uint64(client)*0x9e3779b97f4a7c15))
	return &zipfKeys{z: rand.NewZipf(rand.New(src), s, 1, uint64(n-1))}
}

func (k *zipfKeys) next() int { return int(k.z.Uint64()) }
