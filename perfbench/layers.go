package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"creditbus/internal/arbiter"
	"creditbus/internal/bitset"
	"creditbus/internal/campaign"
	"creditbus/internal/core"
	"creditbus/internal/scenario"
	"creditbus/internal/service"
	"creditbus/internal/shard"
	"creditbus/internal/sim"
	"creditbus/internal/stats"
	"creditbus/internal/workload"
)

// The per-layer probes below time calls into each layer's exported
// functions from outside, in the order the /v1/run handler and the shard
// runner make them, on the workload's own inputs. Durations are reported as
// medians of the recorded spans.

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Percentile(xs, 0.5)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// probeHandler replays the /v1/run handler's layer calls — Parse,
// Validate, Compile, CacheKey, cache lookup, pool submission and
// simulation, response encoding — for reps passes over specs, from Clients
// concurrent replay clients sharing one worker pool and one result cache,
// as the service does.
func probeHandler(b *bench, tr *tracer, m metrics, specs []scenario.Spec, reps int) error {
	bodies := make([][]byte, len(specs))
	for i, sp := range specs {
		var err error
		if bodies[i], err = sp.Encode(); err != nil {
			return err
		}
	}
	pool, err := campaign.Options[*sim.Runner]{
		Workers:        Workers,
		Queue:          service.DefaultQueue,
		PerWorkerState: func() *sim.Runner { return &sim.Runner{} },
	}.NewPool()
	if err != nil {
		return err
	}
	defer pool.Close()
	var (
		mu       sync.Mutex
		cache    = map[string]sim.Result{}
		next     = 0
		firstErr error
		wg       sync.WaitGroup
	)
	total := len(specs) * reps
	for c := 0; c < Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= total {
					return
				}
				if err := replayRun(tr, pool, &mu, cache, int64(i), bodies[i%len(bodies)]); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	// Compile allocation and trace building, one spec at a time so the
	// allocation counter sees only the call measured.
	var allocMB, buildMs []float64
	for i, sp := range specs {
		before := totalAlloc()
		if _, err := sp.Compile(); err != nil {
			return err
		}
		allocMB = append(allocMB, float64(totalAlloc()-before)/1e6)
		d, err := buildTraces(tr, sp, int64(total+i))
		if err != nil {
			return err
		}
		buildMs = append(buildMs, float64(d)/1e6)
	}
	m.set("scenario.parse_us", 1000*median(tr.durations("scenario.parse")), "us")
	m.set("scenario.validate_us", 1000*median(tr.durations("scenario.validate")), "us")
	m.set("scenario.compile_ms", median(tr.durations("scenario.compile")), "ms")
	m.set("scenario.compile_alloc_mb", median(allocMB), "MB")
	m.set("scenario.cache_key_us", 1000*median(tr.durations("scenario.cache_key")), "us")
	m.set("scenario.encode_us", 1000*median(tr.durations("scenario.encode")), "us")
	m.set("workload.build_ms", median(buildMs), "ms")
	m.set("campaign.queue_wait_ms", median(tr.durations("campaign.queue_wait")), "ms")
	return nil
}

// replayRun is one replayed /v1/run request.
func replayRun(tr *tracer, pool *campaign.Pool[*sim.Runner], mu *sync.Mutex, cache map[string]sim.Result, req int64, body []byte) error {
	root := tr.open("handler", 0, req)
	defer tr.close(root)
	var (
		spec     scenario.Spec
		compiled *scenario.Compiled
		key      string
		err      error
	)
	if tr.timed("scenario.parse", root, req, func() { spec, err = scenario.Parse(body) }); err != nil {
		return err
	}
	if tr.timed("scenario.validate", root, req, func() { err = spec.Validate() }); err != nil {
		return err
	}
	if tr.timed("scenario.compile", root, req, func() { compiled, err = spec.Compile() }); err != nil {
		return err
	}
	if tr.timed("scenario.cache_key", root, req, func() { key, err = spec.CacheKey() }); err != nil {
		return err
	}
	resp := service.RunResponse{Scenario: spec.Name, Key: key}
	for _, seed := range compiled.Seeds {
		rk := fmt.Sprintf("%s/%d", key, seed)
		var (
			res sim.Result
			hit bool
		)
		tr.timed("cache.lookup", root, req, func() {
			mu.Lock()
			res, hit = cache[rk]
			mu.Unlock()
		})
		if !hit {
			done := make(chan error, 1)
			wait := tr.begin("campaign.queue_wait", root, req)
			err := pool.Submit(func(rn *sim.Runner) {
				tr.end(wait)
				var err error
				tr.timed("sim.run", root, req, func() { res, err = compiled.RunSeedRunner(rn, seed) })
				done <- err
			})
			if err != nil {
				return err
			}
			if err := <-done; err != nil {
				return err
			}
			mu.Lock()
			cache[rk] = res
			mu.Unlock()
		}
		resp.Runs = append(resp.Runs, service.RunResult{Seed: seed, Cached: hit, Result: scenario.Snap(res)})
	}
	tr.timed("scenario.encode", root, req, func() {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(resp)
	})
	return err
}

// buildTraces times workload.Spec.Build over every program entry of sp —
// explicit workloads and expanded population members — and returns the
// summed build time.
func buildTraces(tr *tracer, sp scenario.Spec, req int64) (time.Duration, error) {
	type entry struct {
		name string
		seed uint64
	}
	var entries []entry
	for _, w := range sp.Workloads {
		entries = append(entries, entry{w.Name, w.Seed})
	}
	for _, p := range sp.Populations {
		seed, stride := max(p.Seed, 1), max(p.SeedStride, 1)
		for c := p.FromCore; c <= p.ToCore; c++ {
			entries = append(entries, entry{p.Name, seed + uint64(c-p.FromCore)*stride})
		}
	}
	root := tr.open("build", 0, req)
	defer tr.close(root)
	var total time.Duration
	for _, e := range entries {
		ws, ok := workload.ByName(e.name)
		if !ok {
			return 0, fmt.Errorf("unknown workload %q", e.name)
		}
		total += tr.timed("workload.build", root, req, func() { ws.Build(max(e.seed, 1)) })
	}
	return total, nil
}

// unitPools is one worker's execution state, as shard.Runner keeps it: a
// lazily built scenario.Pool per scenario of the campaign.
type unitPools struct {
	camp  *shard.Campaign
	pools []*scenario.Pool
}

func (u *unitPools) run(unit int64) (sim.Result, error) {
	scen, seed, err := u.camp.Unit(unit)
	if err != nil {
		return sim.Result{}, err
	}
	if u.pools[scen] == nil {
		u.pools[scen] = u.camp.Scenarios[scen].NewPool()
	}
	return u.pools[scen].RunSeed(seed)
}

// probeEngine measures the shard, campaign, sim and component layers on
// campaign spec cs: compile, a replay of shard.Runner's chunk loop through
// exported calls (checked against shard.Reference), pool dispatch, single
// runs and component microbenchmarks.
func probeEngine(b *bench, tr *tracer, m metrics, cs shard.CampaignSpec, chunk int64) error {
	var camp *shard.Campaign
	for i := 0; i < 3; i++ {
		var err error
		if tr.timed("shard.compile", 0, int64(i), func() { camp, err = cs.Compile() }); err != nil {
			return err
		}
	}
	m.set("shard.compile_ms", median(tr.durations("shard.compile")), "ms")
	if err := probeShard(b, tr, m, camp, chunk); err != nil {
		return err
	}
	dispatch, err := dispatchUs(tr)
	if err != nil {
		return err
	}
	m.set("campaign.dispatch_us_per_unit", dispatch, "us")
	cyclesPerStep, err := probeSim(tr, m, camp)
	if err != nil {
		return err
	}
	return probeComponents(tr, m, camp, cyclesPerStep)
}

// probeShard replays shard.Runner: per shard, chunks of units through
// campaign.Do, folded with Agg.Add and checkpointed with Store.SaveShard;
// then Store merge and report encoding.
func probeShard(b *bench, tr *tracer, m metrics, camp *shard.Campaign, chunk int64) error {
	st, err := shard.Open(filepath.Join(b.dir, "probe-store"), camp.Manifest())
	if err != nil {
		return err
	}
	var addNs, units int64
	checkpoints := 0
	for i := 0; i < camp.Plan.Shards; i++ {
		lo, hi, err := camp.Plan.Range(i)
		if err != nil {
			return err
		}
		agg, err := shard.NewAgg(lo, camp.Block())
		if err != nil {
			return err
		}
		for agg.Lo+agg.N < hi {
			n := min(chunk, hi-(agg.Lo+agg.N))
			req := agg.Lo + agg.N // the chunk's first unit
			root := tr.open("shard.chunk", 0, req)
			var results []sim.Result
			tr.timed("campaign.do", root, req, func() {
				results, err = campaign.Do(campaign.Options[*unitPools]{
					Workers:        Workers,
					PerWorkerState: func() *unitPools { return &unitPools{camp: camp, pools: make([]*scenario.Pool, len(camp.Scenarios))} },
				}, int(n), func(u *unitPools, j int) (sim.Result, error) { return u.run(req + int64(j)) })
			})
			if err != nil {
				tr.close(root)
				return err
			}
			addNs += int64(tr.timed("shard.agg_add", root, req, func() {
				for _, r := range results {
					agg.Add(r)
				}
			}))
			units += n
			tr.timed("shard.save", root, req, func() { err = st.SaveShard(i, agg) })
			tr.close(root)
			if err != nil {
				return err
			}
			checkpoints++
		}
	}
	var rep shard.Report
	if tr.timed("shard.merge", 0, 0, func() { rep, err = shard.MergeStore(camp, st) }); err != nil {
		return err
	}
	var got []byte
	if tr.timed("shard.report_encode", 0, 0, func() { got, err = rep.Encode() }); err != nil {
		return err
	}
	if err := checkReport(camp, got); err != nil {
		return fmt.Errorf("shard replay: %w", err)
	}
	m.set("shard.agg_add_us", float64(addNs)/1e3/float64(units), "us")
	m.set("shard.save_ms", median(tr.durations("shard.save")), "ms")
	m.set("shard.checkpoints", float64(checkpoints), "count")
	m.set("shard.merge_ms", median(tr.durations("shard.merge")), "ms")
	m.set("shard.report_encode_ms", median(tr.durations("shard.report_encode")), "ms")
	return nil
}

// dispatchUs is the cost of handing one job to a campaign.Pool and having a
// worker run it, measured with empty jobs.
func dispatchUs(tr *tracer) (float64, error) {
	pool, err := campaign.Options[struct{}]{Workers: Workers, Queue: service.DefaultQueue}.NewPool()
	if err != nil {
		return 0, err
	}
	defer pool.Close()
	const n = 20000
	var wg sync.WaitGroup
	d := tr.timed("campaign.dispatch", 0, 0, func() {
		wg.Add(n)
		for i := 0; i < n; i++ {
			if err = pool.Submit(func(struct{}) { wg.Done() }); err != nil {
				wg.Add(i - n) // the rest were never submitted
				break
			}
		}
		wg.Wait()
	})
	return float64(d) / 1e3 / n, err
}

// probeSim times single runs of the campaign's first units on a recycled
// scenario.Pool, and counts the engine's steps with a probe. It returns the
// mean simulated cycles per step.
func probeSim(tr *tracer, m metrics, camp *shard.Campaign) (float64, error) {
	u := &unitPools{camp: camp, pools: make([]*scenario.Pool, len(camp.Scenarios))}
	n := min(camp.Units(), 8)
	if _, err := u.run(0); err != nil { // builds the pool's machine
		return 0, err
	}
	// Passes over the first n units until 200 ms are spent, so that units
	// of a few microseconds are timed many times over.
	var runMs []float64
	var runNs int64
	before := totalAlloc()
	start := time.Now()
	passes := int64(0)
	for ; passes == 0 || (passes < 1000 && time.Since(start) < 200*time.Millisecond); passes++ {
		for k := int64(0); k < n; k++ {
			var err error
			d := tr.timed("sim.run", 0, k, func() { _, err = u.run(k) })
			if err != nil {
				return 0, err
			}
			runMs = append(runMs, float64(d)/1e6)
			runNs += d.Nanoseconds()
		}
	}
	allocB := float64(totalAlloc()-before) / float64(passes*n)

	var steps, cycles int64
	for k := int64(0); k < n; k++ {
		scen, seed, err := camp.Unit(k)
		if err != nil {
			return 0, err
		}
		calls := int64(0)
		var last int64
		if _, err := camp.Scenarios[scen].RunSeedProbed(seed, false, func(mc *sim.Machine) { calls++; last = mc.Cycle() }); err != nil {
			return 0, err
		}
		steps += calls - 1 // the probe fires once more after the final step
		cycles += last
	}
	m.set("sim.run_ms", median(runMs), "ms")
	m.set("sim.alloc_b_per_run", allocB, "B")
	m.set("sim.steps_per_run", float64(steps)/float64(n), "count")
	m.set("sim.cycles_per_step", float64(cycles)/float64(steps), "cycles")
	m.set("sim.ns_per_step", float64(runNs)/float64(passes*steps), "ns")
	return float64(cycles) / float64(steps), nil
}

// componentMachine builds a throwaway machine from the first scenario's
// compiled config, in the mode its run kind runs in, with the TuA looped so
// it never finishes, and CBA on when the config has it off (so the credit
// layer exists to measure); then it steps the machine to steady state.
func componentMachine(c *scenario.Compiled, seed uint64, steps int) (*sim.Machine, error) {
	cfg := c.Config
	cfg.Mode = core.OperationMode
	if c.Spec.Run == scenario.RunWCET {
		cfg.Mode = core.WCETMode
	}
	if cfg.Credit.Kind == sim.CreditOff {
		cfg.Credit.Kind = sim.CreditCBA
	}
	progs := c.Programs()
	progs[c.TuA()] = sim.NewLooped(progs[c.TuA()])
	mc, err := sim.NewMachine(cfg, progs, seed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < steps; i++ {
		mc.Step()
	}
	return mc, nil
}

// perCallNs times batches of calls to fn and returns the median ns per call.
func perCallNs(tr *tracer, name string, fn func()) float64 {
	const batches, calls = 9, 1000
	var per []float64
	for b := 0; b < batches; b++ {
		d := tr.timed(name, 0, int64(b), func() {
			for i := 0; i < calls; i++ {
				fn()
			}
		})
		per = append(per, float64(d.Nanoseconds())/calls)
	}
	return median(per)
}

// probeComponents microbenchmarks the engine's components at the
// workload's master count through their exported methods.
func probeComponents(tr *tracer, m metrics, camp *shard.Campaign, cyclesPerStep float64) error {
	c := camp.Scenarios[0]
	_, seed, err := camp.Unit(0)
	if err != nil {
		return err
	}
	mc, err := componentMachine(c, seed, 2000)
	if err != nil {
		return err
	}
	b := mc.Bus()
	credit := mc.Credit()
	sig := mc.Signals()
	if sig == nil {
		sig = core.NewSignals(credit, mc.Config().Mode, c.TuA())
	}
	m.set("bus.horizon_ns", perCallNs(tr, "bench.bus_horizon", func() { b.Horizon() }), "ns")
	bp, ok := b.Policy().(arbiter.BitPicker)
	if !ok {
		return fmt.Errorf("policy %s has no bitset picker", b.Policy().Name())
	}
	elig := bitset.New(b.Masters())
	elig.CopyFrom(b.PendingWords())
	credit.AndEligible(elig)
	if !elig.Any() {
		for i := 0; i < b.Masters(); i++ {
			elig.Set(i)
		}
	}
	now := mc.Cycle()
	m.set("arbiter.pick_ns", perCallNs(tr, "bench.arbiter_pick", func() { bp.PickBits(elig, now) }), "ns")
	update := perCallNs(tr, "bench.signals_update", func() { sig.Update(true) })
	m.set("core.signals_update_ns", update, "ns")
	n := max(1, int64(math.Round(cyclesPerStep)))
	tickn := perCallNs(tr, "bench.credit_tickn", func() { credit.TickN(-1, n) })
	m.set("core.tickn_ns", tickn, "ns")
	tick := perCallNs(tr, "bench.credit_tick", func() { credit.Tick(-1) })
	m.set("core.tick_ns", tick, "ns")

	// Advance replays an uneventful window, so each sample needs a fresh
	// machine stopped where the bus horizon lies ahead.
	var adv []float64
	for s := 0; s < 9; s++ {
		mc, err := componentMachine(c, seed+uint64(s), 300)
		if err != nil {
			return err
		}
		b := mc.Bus()
		for i := 0; i < 10000 && b.Horizon()-b.Cycle() < 2; i++ {
			mc.Step()
		}
		gap := b.Horizon() - b.Cycle() - 1
		if gap < 1 {
			continue
		}
		d := tr.timed("bench.bus_advance", 0, int64(s), func() { b.Advance(gap) })
		adv = append(adv, float64(d.Nanoseconds()))
	}
	if len(adv) == 0 {
		return fmt.Errorf("bus.advance: no uneventful window found")
	}
	m.set("bus.advance_ns", median(adv), "ns")
	// An engine step makes about one closed-form TickN (the skipped
	// window), one dense Tick and one COMP update (the event cycle): an
	// estimate of the credit layer's share of a step.
	m.set("core.cba_share_pct", 100*(tickn+tick+update)/m["sim.ns_per_step"].Value, "%")
	return nil
}
