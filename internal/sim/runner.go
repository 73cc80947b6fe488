package sim

import (
	"fmt"

	"creditbus/internal/bus"
	"creditbus/internal/core"
	"creditbus/internal/cpu"
)

// Runner owns one reusable Machine plus the scratch state a measurement
// worker needs between runs: the per-core program vector handed to the
// machine. A campaign worker keeps one Runner for its whole run slice; the
// first run builds the machine and every later run reinitialises it in
// place (Machine.Reuse), so the steady-state hot path allocates nothing.
//
// Runner results are bit-identical to the package-level Run functions —
// those functions ARE a fresh Runner per call — which the reuse-differential
// suite asserts over the corpus and the randomized scenario space.
//
// A Runner is a single-goroutine object, exactly like the Machine it owns.
// The zero value is ready to use.
type Runner struct {
	m        *Machine
	programs []cpu.Program // scratch per-core vector for single-program scenarios
}

// machine returns the runner's machine reinitialised for (cfg, programs,
// seed), building it on first use. On error the machine is discarded: a
// partially reinitialised platform must never run.
func (r *Runner) machine(cfg Config, programs []cpu.Program, seed uint64) (*Machine, error) {
	if r.m == nil {
		m, err := NewMachine(cfg, programs, seed)
		if err != nil {
			return nil, err
		}
		r.m = m
		return m, nil
	}
	if err := r.m.Reuse(cfg, programs, seed); err != nil {
		r.m = nil
		return nil, err
	}
	return r.m, nil
}

// scratch returns the runner's per-core program vector, cleared and sized
// to cores.
func (r *Runner) scratch(cores int) []cpu.Program {
	if cap(r.programs) < cores {
		r.programs = make([]cpu.Program, cores)
	}
	p := r.programs[:cores]
	for i := range p {
		p[i] = nil
	}
	return p
}

// Isolation executes prog alone on cfg.TuA with every other core idle —
// the paper's ISO scenario — on the runner's recycled machine, calling a
// non-nil probe after every engine step.
func (r *Runner) Isolation(cfg Config, prog cpu.Program, seed uint64, probe Probe) (Result, error) {
	return r.run(isolationRun, cfg, prog, nil, seed, probe, nil)
}

// MaxContention executes prog on cfg.TuA against Table I contention
// injectors on every other core — the paper's CON scenario — on the
// runner's recycled machine, calling a non-nil probe after every engine
// step.
func (r *Runner) MaxContention(cfg Config, prog cpu.Program, seed uint64, probe Probe) (Result, error) {
	return r.run(contentionRun, cfg, prog, nil, seed, probe, nil)
}

// Workloads executes one program per core (operation-mode contention) on
// the runner's recycled machine, running until the TuA finishes. A non-nil
// probe is called after every engine step; a non-nil obs is invoked for
// every bus grant of the run, in grant order, on the runner's goroutine —
// including injector and co-runner traffic, which is what the fairness
// instrumentation (stats.Fairness) consumes. The observer is detached
// before returning, so later runs on the same Runner are unobserved unless
// re-requested. The programs slice is only read; the runner does not
// retain it.
func (r *Runner) Workloads(cfg Config, programs []cpu.Program, seed uint64, probe Probe, obs func(bus.GrantEvent)) (Result, error) {
	return r.run(workloadsRun, cfg, nil, programs, seed, probe, obs)
}

// runKind is the scenario shape of one run.
type runKind uint8

const (
	isolationRun  runKind = iota // prog alone on the TuA, operation mode
	contentionRun                // prog on the TuA against injectors, WCET mode
	workloadsRun                 // one program per core, operation mode
)

// run is the one run sequence behind every entry point: force the kind's
// mode, validate, check the programs, reinitialise the recycled machine,
// step until the TuA finishes (with the limit guard and the optional probe
// and grant observer), then collect the TuA's result. Single-program kinds
// pass prog; workloads runs pass the per-core programs vector.
func (r *Runner) run(kind runKind, cfg Config, prog cpu.Program, programs []cpu.Program, seed uint64, probe Probe, obs func(bus.GrantEvent)) (Result, error) {
	cfg.Mode = core.OperationMode
	if kind == contentionRun {
		cfg.Mode = core.WCETMode
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if kind == workloadsRun {
		if err := checkWorkloads(cfg, programs); err != nil {
			return Result{}, err
		}
	} else {
		programs = r.scratch(cfg.Cores)
		programs[cfg.TuA] = prog
	}
	m, err := r.machine(cfg, programs, seed)
	if err != nil {
		return Result{}, err
	}
	if obs != nil {
		m.SetGrantObserver(obs)
		defer m.SetGrantObserver(nil)
	}
	// A single-program run has no live core but the TuA's (none for a nil
	// prog), so "TuA done" is exactly Machine.Done for those kinds.
	tua := m.cores[cfg.TuA]
	for tua != nil && !tua.Done() {
		if m.cycle >= DefaultLimit {
			if kind == workloadsRun {
				return Result{}, fmt.Errorf("sim: limit reached before TuA completion")
			}
			return Result{}, fmt.Errorf("sim: limit of %d cycles reached before completion", DefaultLimit)
		}
		m.step(DefaultLimit)
		if probe != nil {
			probe(m)
		}
	}
	return m.result(cfg.TuA), nil
}

// checkWorkloads rejects a workloads program vector that cannot run: wrong
// length, no TuA program, or an empty program on any core.
func checkWorkloads(cfg Config, programs []cpu.Program) error {
	if len(programs) != cfg.Cores {
		return fmt.Errorf("sim: RunWorkloads needs %d programs", cfg.Cores)
	}
	if programs[cfg.TuA] == nil {
		return fmt.Errorf("sim: RunWorkloads needs a program on the TuA core %d", cfg.TuA)
	}
	for i, p := range programs {
		if p != nil && emptyProgram(p) {
			return fmt.Errorf("sim: RunWorkloads: program on core %d is empty", i)
		}
	}
	return nil
}
