package sim

import (
	"creditbus/internal/bus"
	"creditbus/internal/cpu"
	"creditbus/internal/mem"
)

// DefaultLimit bounds single runs; generous against the ~10^5..10^6-cycle
// benchmarks so that only genuine deadlocks hit it.
const DefaultLimit = 200_000_000

// Result aggregates one run's observables.
type Result struct {
	// TaskCycles is the execution time of the task under analysis.
	TaskCycles int64
	// WallCycles is the machine cycle count when the run ended.
	WallCycles int64
	// CPU is the TuA core's cycle accounting.
	CPU cpu.Stats
	// Bus is the TuA master's bus statistics.
	Bus bus.MasterStats
	// Utilisation is overall bus occupancy.
	Utilisation float64
	// L1HitRate and L2HitRate are the TuA's cache hit rates.
	L1HitRate, L2HitRate float64
	// MemCounts is the per-transaction-kind traffic (whole machine).
	MemCounts map[mem.Kind]int64
}

func (m *Machine) result(tua int) Result {
	r := Result{
		TaskCycles:  m.TaskCycles(tua),
		WallCycles:  m.cycle,
		Utilisation: m.sharedBus.Utilisation(),
		Bus:         m.sharedBus.Stats(tua),
		MemCounts:   map[mem.Kind]int64{},
	}
	if c := m.cores[tua]; c != nil {
		r.CPU = c.Stats()
	}
	if m.l1s[tua] != nil {
		r.L1HitRate = m.l1s[tua].Stats().HitRate()
	}
	if m.l2s[tua] != nil {
		r.L2HitRate = m.l2s[tua].Stats().HitRate()
	}
	for _, k := range mem.Kinds() {
		r.MemCounts[k] = m.memctl.Count(k)
	}
	return r
}

// Probe observes a machine at step granularity: a probed run invokes it
// exactly once after every engine step (one cycle on the per-cycle engine,
// one event step on the fast engine). Probes must only read — any mutation
// corrupts the run. They exist for the invariant oracles of
// internal/scengen, which check budget bounds and bus conservation at every
// observation point; a nil Probe leaves the run unobserved.
type Probe func(*Machine)

// RunIsolation executes prog alone on cfg.TuA with every other core idle —
// the paper's ISO scenario — on a fresh machine. The configuration's Mode
// is forced to operation mode (isolation measurements run the deployment
// configuration).
func RunIsolation(cfg Config, prog cpu.Program, seed uint64) (Result, error) {
	var r Runner // fresh runner = fresh machine: the unpooled reference path
	return r.Isolation(cfg, prog, seed, nil)
}

// RunMaxContention executes prog on cfg.TuA against Table I contention
// injectors on every other core — the paper's CON scenario (WCET-estimation
// mode: contender REQ always set, MaxL holds, COMP gating when CBA is on,
// TuA budget starting empty) — on a fresh machine.
func RunMaxContention(cfg Config, prog cpu.Program, seed uint64) (Result, error) {
	var r Runner
	return r.MaxContention(cfg, prog, seed, nil)
}

// emptyProgram reports whether p yields no operations. The probe consumes
// one operation and rewinds, which the Program contract makes lossless.
func emptyProgram(p cpu.Program) bool {
	p.Reset()
	_, ok := p.Next()
	p.Reset()
	return !ok
}

// RunWorkloads executes one program per core (operation-mode contention,
// e.g. the §II illustrative scenario with real streaming co-runners) on a
// fresh machine and returns the result for cfg.TuA. Runs until the TuA
// finishes; co-runners keep generating contention throughout.
//
// Every non-nil program must yield at least one operation: an empty
// program — in particular an empty trace wrapped in NewLooped, whose Next
// returns false forever — cannot generate the contention the scenario
// asks for, so it is rejected up front with a clear error instead of
// silently producing a contention-free (or deadlock-guarded) run.
func RunWorkloads(cfg Config, programs []cpu.Program, seed uint64) (Result, error) {
	var r Runner
	return r.Workloads(cfg, programs, seed, nil, nil)
}

// LoopedProgram wraps a trace so that it restarts forever — used for
// co-runner tasks that must generate contention for the whole run.
type LoopedProgram struct{ inner cpu.Program }

// NewLooped returns a program that replays inner endlessly.
func NewLooped(inner cpu.Program) *LoopedProgram { return &LoopedProgram{inner: inner} }

// Next implements cpu.Program.
func (l *LoopedProgram) Next() (cpu.Op, bool) {
	op, ok := l.inner.Next()
	if !ok {
		l.inner.Reset()
		op, ok = l.inner.Next()
		if !ok {
			return cpu.Op{}, false // empty inner program
		}
	}
	return op, true
}

// Reset implements cpu.Program.
func (l *LoopedProgram) Reset() { l.inner.Reset() }

// Clone implements cpu.Cloner when the inner program does; it returns nil
// (meaning "not cloneable", see cpu.TryClone) otherwise.
func (l *LoopedProgram) Clone() cpu.Program {
	inner, ok := cpu.TryClone(l.inner)
	if !ok {
		return nil
	}
	return &LoopedProgram{inner: inner}
}
