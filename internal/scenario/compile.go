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
	// sources remembers each core's Workload entry for the defensive
	// rebuild path when a prototype is not cloneable.
	sources []*Workload
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
		Spec:    s,
		Config:  cfg,
		Seeds:   s.Seeds.Expand(),
		tua:     tua,
		protos:  make([]cpu.Program, cfg.Cores),
		sources: make([]*Workload, cfg.Cores),
	}
	for i := range s.Workloads {
		w := &s.Workloads[i]
		c.protos[w.Core] = buildProgram(w)
		c.sources[w.Core] = w
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
			c.sources[core] = &w
		}
	}
	return c, nil
}

// buildProgram instantiates one Workload entry's program. It cannot fail:
// the only way it could, an unknown workload name, is a Validate error, so
// it is only ever called on a validated spec.
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
// cursor, so parallel runs must never share an instance. The fast path is
// a clone of the compile-time prototype (every bundled workload clones);
// a non-cloneable program is rebuilt from its spec entry.
func (c *Compiled) Program(core int) cpu.Program {
	if core < 0 || core >= len(c.protos) || c.protos[core] == nil {
		return nil
	}
	if p, ok := cpu.TryClone(c.protos[core]); ok {
		return p
	}
	return buildProgram(c.sources[core])
}

// Programs builds a fresh full per-core program vector.
func (c *Compiled) Programs() []cpu.Program {
	out := make([]cpu.Program, len(c.protos))
	for i := range c.protos {
		out[i] = c.Program(i)
	}
	return out
}

// RunSeed executes one run on the spec's configured engine.
func (c *Compiled) RunSeed(seed uint64) (sim.Result, error) {
	return c.runSeed(c.Config, seed, nil)
}

// RunSeedEngine executes one run with an explicit engine choice,
// overriding the spec — the corpus equivalence test drives both engines
// over every scenario with this.
func (c *Compiled) RunSeedEngine(seed uint64, perCycle bool) (sim.Result, error) {
	return c.RunSeedProbed(seed, perCycle, nil)
}

// RunSeedRunner executes one run on an externally owned recycled Runner —
// the execution form a long-lived service worker uses, where one Runner
// serves an arbitrary sequence of different compiled scenarios and
// Machine.Reuse keeps every run bit-identical to a fresh-machine RunSeed.
// Programs are fresh clones per call, so any number of goroutines may run
// one shared Compiled concurrently as long as each owns its Runner.
func (c *Compiled) RunSeedRunner(rn *sim.Runner, seed uint64) (sim.Result, error) {
	cfg := c.Config
	switch c.Spec.Run {
	case RunIsolation:
		return rn.IsolationProbed(cfg, c.Program(c.tua), seed, nil)
	case RunWCET:
		return rn.MaxContentionProbed(cfg, c.Program(c.tua), seed, nil)
	case RunWorkloads:
		return rn.WorkloadsProbed(cfg, c.Programs(), seed, nil)
	default:
		return sim.Result{}, fmt.Errorf("scenario: unknown run kind %q", c.Spec.Run)
	}
}

// RunSeedProbed executes one run with an explicit engine choice and a
// step-granularity observer — the hook internal/scengen's invariant oracles
// use to watch budgets and bus conservation at every observation point. A
// nil probe makes it exactly RunSeedEngine.
func (c *Compiled) RunSeedProbed(seed uint64, perCycle bool, probe sim.Probe) (sim.Result, error) {
	cfg := c.Config
	cfg.ForcePerCycle = perCycle
	return c.runSeed(cfg, seed, probe)
}

func (c *Compiled) runSeed(cfg sim.Config, seed uint64, probe sim.Probe) (sim.Result, error) {
	switch c.Spec.Run {
	case RunIsolation:
		return sim.RunIsolationProbed(cfg, c.Program(c.tua), seed, probe)
	case RunWCET:
		return sim.RunMaxContentionProbed(cfg, c.Program(c.tua), seed, probe)
	case RunWorkloads:
		return sim.RunWorkloadsProbed(cfg, c.Programs(), seed, probe)
	default:
		return sim.Result{}, fmt.Errorf("scenario: unknown run kind %q", c.Spec.Run)
	}
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
	p := &Pool{c: c, progs: make([]cpu.Program, len(c.protos))}
	for i := range c.protos {
		p.progs[i] = c.Program(i)
	}
	return p
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
	cfg := p.c.Config
	return p.runSeed(cfg, seed, nil)
}

// RunSeedProbed is the pool's counterpart of Compiled.RunSeedProbed: an
// explicit engine choice and a step-granularity observer.
func (p *Pool) RunSeedProbed(seed uint64, perCycle bool, probe sim.Probe) (sim.Result, error) {
	cfg := p.c.Config
	cfg.ForcePerCycle = perCycle
	return p.runSeed(cfg, seed, probe)
}

func (p *Pool) runSeed(cfg sim.Config, seed uint64, probe sim.Probe) (sim.Result, error) {
	p.rewind()
	switch p.c.Spec.Run {
	case RunIsolation:
		return p.rn.IsolationProbed(cfg, p.progs[p.c.tua], seed, probe)
	case RunWCET:
		return p.rn.MaxContentionProbed(cfg, p.progs[p.c.tua], seed, probe)
	case RunWorkloads:
		return p.rn.WorkloadsProbed(cfg, p.progs, seed, probe)
	default:
		return sim.Result{}, fmt.Errorf("scenario: unknown run kind %q", p.c.Spec.Run)
	}
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

// CampaignSpec adapts an isolation or wcet scenario onto campaign.Spec —
// the sample-vector protocol the MBPTA pipeline consumes. Returns an error
// for workloads runs, whose per-core program vector does not fit the
// single-program campaign scenario shape (use Results instead).
func (c *Compiled) CampaignSpec(workers int, progress campaign.Progress) (campaign.Spec, campaign.Scenario, error) {
	var run campaign.Scenario
	switch c.Spec.Run {
	case RunIsolation:
		run = sim.RunIsolation
	case RunWCET:
		run = sim.RunMaxContention
	default:
		return campaign.Spec{}, nil, fmt.Errorf("scenario: %s runs have no single-program campaign form", c.Spec.Run)
	}
	seeds := c.Seeds
	return campaign.Spec{
		Config:   c.Config,
		Build:    func(int) cpu.Program { return c.Program(c.tua) },
		Runs:     len(seeds),
		Seed:     func(r int) uint64 { return seeds[r] },
		Workers:  workers,
		Progress: progress,
	}, run, nil
}
