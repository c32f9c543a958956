package main

import (
	"bytes"
	"fmt"

	"coplot/internal/machine"
	"coplot/internal/rng"
	"coplot/internal/service"
	"coplot/internal/swf"
)

// The generated SWF logs sweep the five synthetic models and their
// self-similar ("ss-") variants over machine sizes, log lengths,
// schedulers and allocators.
var (
	sweepModels = []string{
		"feitelson96", "feitelson97", "downey", "jann", "lublin",
		"ss-feitelson96", "ss-feitelson97", "ss-downey", "ss-jann", "ss-lublin",
	}
	sweepProcs  = []int{64, 128, 256, 512, 1024}
	sweepScheds = []string{"nqs", "easy", "gang"}
	sweepAllocs = []string{"pow2", "limited", "unlimited"}
)

// logSpec is the recipe of one generated log and the machine it is
// characterized on.
type logSpec struct {
	Name         string
	Model        string
	Procs, Jobs  int
	Sched, Alloc string
	Seed         uint64
}

// sweep returns n log recipes with lengths in [minJobs, maxJobs]. The
// sweep's shape — each recipe's model, machine and length — is fixed
// by label alone; the run seed draws the logs' contents. Every seed
// thus asks the same amount and kind of work with different data,
// which keeps run-to-run spread down to what the data changes.
func sweep(seed uint64, label string, n, minJobs, maxJobs int) []logSpec {
	shape := rng.New(rng.Derive(0, label))
	seeds := rng.New(rng.Derive(seed, label))
	specs := make([]logSpec, n)
	for i := range specs {
		model := sweepModels[i%len(sweepModels)]
		specs[i] = logSpec{
			Name:  fmt.Sprintf("%s-%s-%03d", label, model, i),
			Model: model,
			Procs: sweepProcs[shape.Intn(len(sweepProcs))],
			Jobs:  minJobs + shape.Intn(maxJobs-minJobs+1),
			Sched: sweepScheds[shape.Intn(len(sweepScheds))],
			Alloc: sweepAllocs[shape.Intn(len(sweepAllocs))],
			Seed:  seeds.Uint64(),
		}
	}
	return specs
}

// machine is the machine the log is characterized on.
func (s logSpec) machine() (machine.Machine, error) {
	return service.ParseMachine("cli", s.Procs, s.Sched, s.Alloc)
}

// generate writes the log in SWF, as a user's trace file would hold it.
func (s logSpec) generate() ([]byte, error) {
	gen, err := service.ModelByName(s.Model, s.Procs)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := swf.Write(&buf, gen.Generate(rng.New(s.Seed), s.Jobs)); err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	return buf.Bytes(), nil
}
