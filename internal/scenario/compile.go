package scenario

import (
	"fmt"

	"creditbus/internal/campaign"
	"creditbus/internal/cpu"
	"creditbus/internal/sim"
	"creditbus/internal/workload"
)

// config translates the declarative fields into a sim.Config. It assumes a
// structurally valid spec (Validate enforces the schema rules); sim.Config's
// own Validate still runs on the result.
func (s Spec) config() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cores = s.cores()
	if p := s.Platform; p != nil {
		if p.L1Sets > 0 {
			cfg.L1Sets = p.L1Sets
		}
		if p.L1Ways > 0 {
			cfg.L1Ways = p.L1Ways
		}
		if p.L2Sets > 0 {
			cfg.L2Sets = p.L2Sets
		}
		if p.L2Ways > 0 {
			cfg.L2Ways = p.L2Ways
		}
		if p.LineBytes > 0 {
			cfg.LineBytes = p.LineBytes
		}
		if p.StoreBufferDepth > 0 {
			cfg.StoreBufferDepth = p.StoreBufferDepth
		}
		if p.L2HitLatency > 0 {
			cfg.Latency.L2Hit = p.L2HitLatency
		}
		if p.MemLatency > 0 {
			cfg.Latency.Mem = p.MemLatency
		}
	}
	if pk, err := ParsePolicy(s.Policy); err == nil {
		cfg.Policy = pk
	}
	switch {
	case s.Policy == "LOT":
		if tickets := s.coreWeights(cfg.Cores); tickets != nil {
			cfg.LotteryTickets = tickets
		}
	case WeightedPolicy(s.Policy):
		if weights := s.coreWeights(cfg.Cores); weights != nil {
			cfg.Weights = weights
		}
	}
	if f := s.Fair; f != nil {
		cfg.PFAvgShift = f.AvgShift
		if len(f.Timescales) > 0 {
			cfg.MTSTimescales = make([]sim.Timescale, len(f.Timescales))
			for i, ts := range f.Timescales {
				cfg.MTSTimescales[i] = sim.Timescale{Num: ts.Num, Den: ts.Den, Depth: ts.Depth}
			}
		}
	}
	if c := s.Credit; c != nil {
		if ck, err := ParseCredit(c.Kind); err == nil {
			cfg.Credit.Kind = ck
		}
		if c.Privileged != nil {
			cfg.Credit.Privileged = *c.Privileged
		}
		cfg.Credit.Num, cfg.Credit.Den = c.Num, c.Den
		cfg.Credit.CapFactor = c.CapFactor
	}
	if tua, err := s.tua(); err == nil {
		cfg.TuA = tua
	}
	cfg.ForcePerCycle = s.Engine == EnginePerCycle
	return cfg
}

// coreWeights derives the per-core weight vector from workload weights —
// lottery tickets under LOT, fairness-zoo entitlements under PF/GWF/MTS.
// Weightless cores (and cores without workloads — WCET injectors still
// arbitrate) hold weight 1. Nil when no workload states a weight, which
// keeps the policy's unweighted default.
func (s Spec) coreWeights(cores int) []int64 {
	weighted := false
	tickets := make([]int64, cores)
	for i := range tickets {
		tickets[i] = 1
	}
	for _, w := range s.Workloads {
		if w.Weight > 0 {
			tickets[w.Core] = w.Weight
			weighted = true
		}
	}
	for _, p := range s.Populations {
		if p.Weight > 0 {
			for c := p.FromCore; c <= p.ToCore && c < cores; c++ {
				tickets[c] = p.Weight
			}
			weighted = true
		}
	}
	if !weighted {
		return nil
	}
	return tickets
}

// Compiled is a validated, executable scenario: the sim.Config, the
// materialised seed schedule and fresh-program factories for every
// participating core.
type Compiled struct {
	// Spec is the source spec.
	Spec Spec
	// Config is the compiled platform configuration (Engine already
	// applied via ForcePerCycle).
	Config sim.Config
	// Seeds is the materialised run-seed schedule.
	Seeds []uint64

	tua int
	// protos holds one built program per core (nil = idle). Prototypes
	// are never executed: Program hands out clones (shared read-only op
	// slice, fresh cursor), so building the trace happens once per
	// scenario instead of once per run.
	protos []cpu.Program
}

// Compile validates the spec and resolves everything executable about it.
// It fails exactly when Validate does: past validation nothing can fail.
func (s Spec) Compile() (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg := s.config()
	tua, _ := s.tua()
	c := &Compiled{
		Spec:   s,
		Config: cfg,
		Seeds:  s.Seeds.Expand(),
		tua:    tua,
		protos: make([]cpu.Program, cfg.Cores),
	}
	for i := range s.Workloads {
		w := &s.Workloads[i]
		c.protos[w.Core] = buildProgram(w)
	}
	// Populations expand to per-member Workload entries with derived seeds.
	// Members of the same population running the same workload at different
	// seeds share nothing: each gets its own prototype, so cloning per run
	// stays per-core independent exactly as with explicit entries.
	for i := range s.Populations {
		p := s.Populations[i]
		for core := p.FromCore; core <= p.ToCore; core++ {
			w := p.member(core)
			c.protos[core] = buildProgram(&w)
		}
	}
	return c, nil
}

// buildProgram instantiates one Workload entry's program: a trace, or a
// looped trace, both of which clone. It cannot fail: the only way it could,
// an unknown workload name, is a Validate error, so it is only ever called
// on a validated spec.
func buildProgram(w *Workload) cpu.Program {
	spec, _ := workload.ByName(w.Name)
	seed := w.Seed
	if seed == 0 {
		seed = 1
	}
	tr := spec.Build(seed)
	var prog cpu.Program = tr
	if w.Ops > 0 && tr.Len() > w.Ops {
		prog = cpu.NewTrace(tr.Ops()[:w.Ops])
	}
	if w.Loop {
		prog = sim.NewLooped(prog)
	}
	return prog
}

// TuA returns the resolved task-under-analysis core.
func (c *Compiled) TuA() int { return c.tua }

// Program returns a fresh instance of the program on the given core, or
// nil for an idle core. Fresh per call: machines consume the program
// cursor, so parallel runs must never share an instance. The instance is a
// clone of the compile-time prototype, which buildProgram makes cloneable.
func (c *Compiled) Program(core int) cpu.Program {
	if core < 0 || core >= len(c.protos) || c.protos[core] == nil {
		return nil
	}
	return c.protos[core].(cpu.Cloner).Clone()
}

// Programs builds a fresh full per-core program vector.
func (c *Compiled) Programs() []cpu.Program {
	out := make([]cpu.Program, len(c.protos))
	for i := range c.protos {
		out[i] = c.Program(i)
	}
	return out
}

// RunSeed executes one run on a fresh machine, on the spec's configured
// engine.
func (c *Compiled) RunSeed(seed uint64) (sim.Result, error) {
	return c.RunSeedRunner(new(sim.Runner), seed)
}

// RunSeedRunner executes one run on an externally owned recycled Runner —
// the execution form a long-lived service worker uses, where one Runner
// serves an arbitrary sequence of different compiled scenarios and
// Machine.Reuse keeps every run bit-identical to a fresh-machine RunSeed.
// Programs are fresh clones per call, so any number of goroutines may run
// one shared Compiled concurrently as long as each owns its Runner.
func (c *Compiled) RunSeedRunner(rn *sim.Runner, seed uint64) (sim.Result, error) {
	return c.run(rn, c.Config, nil, seed, nil)
}

// RunSeedProbed executes one run on a fresh machine with an explicit engine
// choice, overriding the spec, and a step-granularity observer — the hook
// internal/scengen's invariant oracles use to watch budgets and bus
// conservation at every observation point. The probe may be nil; the
// corpus equivalence test drives both engines over every scenario this way.
func (c *Compiled) RunSeedProbed(seed uint64, perCycle bool, probe sim.Probe) (sim.Result, error) {
	cfg := c.Config
	cfg.ForcePerCycle = perCycle
	return c.run(new(sim.Runner), cfg, nil, seed, probe)
}

// run executes one run of the spec's kind on rn: the single-program kinds
// run the TuA's entry of progs, workloads runs the whole vector. A nil
// progs means fresh clones, made only for the cores the kind runs.
func (c *Compiled) run(rn *sim.Runner, cfg sim.Config, progs []cpu.Program, seed uint64, probe sim.Probe) (sim.Result, error) {
	switch c.Spec.Run {
	case RunIsolation:
		return rn.Isolation(cfg, c.tuaProgram(progs), seed, probe)
	case RunWCET:
		return rn.MaxContention(cfg, c.tuaProgram(progs), seed, probe)
	case RunWorkloads:
		if progs == nil {
			progs = c.Programs()
		}
		return rn.Workloads(cfg, progs, seed, probe, nil)
	default:
		return sim.Result{}, fmt.Errorf("scenario: unknown run kind %q", c.Spec.Run)
	}
}

// tuaProgram returns the TuA's entry of progs, or a fresh clone when progs
// is nil.
func (c *Compiled) tuaProgram(progs []cpu.Program) cpu.Program {
	if progs == nil {
		return c.Program(c.tua)
	}
	return progs[c.tua]
}

// Pool is one worker's reusable execution state for a compiled scenario: a
// recycled sim.Machine (via sim.Runner) plus one program instance per core,
// rewound — not recloned — between runs. Campaigns hand each worker one
// Pool so that the per-run cost is a machine reinitialisation instead of a
// full platform build; results are bit-identical to the fresh-machine
// RunSeed* family whatever run sequence the pool served (the reuse
// contract of sim.Machine.Reuse, enforced corpus-wide by
// TestReuseDifferential and the scengen reuse oracle). A Pool is a
// single-goroutine object.
type Pool struct {
	c     *Compiled
	rn    sim.Runner
	progs []cpu.Program
}

// NewPool builds a reusable execution state: one program instance per
// participating core.
func (c *Compiled) NewPool() *Pool {
	return &Pool{c: c, progs: c.Programs()}
}

// rewind readies every program for the next run. The Program contract
// makes Reset equivalent to a fresh clone: same stream, cursor at zero.
func (p *Pool) rewind() {
	for _, prog := range p.progs {
		if prog != nil {
			prog.Reset()
		}
	}
}

// RunSeed executes one run on the pool's recycled machine, on the spec's
// configured engine.
func (p *Pool) RunSeed(seed uint64) (sim.Result, error) {
	return p.RunSeedProbed(seed, p.c.Config.ForcePerCycle, nil)
}

// RunSeedProbed is the pool's counterpart of Compiled.RunSeedProbed: an
// explicit engine choice and a step-granularity observer.
func (p *Pool) RunSeedProbed(seed uint64, perCycle bool, probe sim.Probe) (sim.Result, error) {
	p.rewind()
	cfg := p.c.Config
	cfg.ForcePerCycle = perCycle
	return p.c.run(&p.rn, cfg, p.progs, seed, probe)
}

// Results executes the whole seed schedule through the campaign engine and
// returns per-seed results in schedule order — bit-identical at any worker
// count, exactly like every other campaign in the module. Each worker runs
// its share of the schedule on one pooled machine.
func (c *Compiled) Results(workers int, progress campaign.Progress) ([]sim.Result, error) {
	return campaign.Do(campaign.Options[*Pool]{
		Workers:        workers,
		Progress:       progress,
		PerWorkerState: c.NewPool,
	}, len(c.Seeds),
		func(p *Pool, r int) (sim.Result, error) {
			return p.RunSeed(c.Seeds[r])
		})
}
