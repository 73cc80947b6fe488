package campaign

import (
	"math"
	"reflect"
	"testing"

	"creditbus/internal/cpu"
	"creditbus/internal/sim"
	"creditbus/internal/workload"
)

// testTrace is a small memory-heavy program: enough bus traffic that runs
// under contention have seed-dependent execution times.
func testTrace() *cpu.Trace {
	ops := make([]cpu.Op, 0, 900)
	for i := 0; i < 300; i++ {
		ops = append(ops,
			cpu.Op{Kind: cpu.OpLoad, Addr: uint64(i*8) % 16384},
			cpu.Op{Kind: cpu.OpALU, Cycles: 2},
			cpu.Op{Kind: cpu.OpStore, Addr: uint64(i*32+8) % 32768},
		)
	}
	return cpu.NewTrace(ops)
}

// runnerOpts is the per-worker platform every simulation campaign uses: one
// recycled *sim.Runner per worker.
func runnerOpts(workers int) Options[*sim.Runner] {
	return Options[*sim.Runner]{
		Workers:        workers,
		PerWorkerState: func() *sim.Runner { return new(sim.Runner) },
	}
}

// TestSpecParallelMatchesSerialLoop is the engine's core guarantee: a
// parallel maximum-contention campaign on per-worker Runners yields a
// sample vector byte-identical to the serial protocol it replaces.
func TestSpecParallelMatchesSerialLoop(t *testing.T) {
	base := testTrace()
	cfg := sim.DefaultConfig()
	cfg.Credit.Kind = sim.CreditCBA
	const runs = 24
	const seed = 20170327

	// The historical serial protocol: one shared program, Reset per run,
	// golden-ratio seed stride.
	want := make([]float64, 0, runs)
	for r := 0; r < runs; r++ {
		base.Reset()
		res, err := sim.RunMaxContention(cfg, base, seed+uint64(r)*SeedStride)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, float64(res.TaskCycles))
	}

	for _, workers := range []int{1, 4} {
		got, err := Do(runnerOpts(workers), runs, func(rn *sim.Runner, r int) (float64, error) {
			res, err := rn.MaxContention(cfg, base.Clone(), seed+uint64(r)*SeedStride, nil)
			return float64(res.TaskCycles), err
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != runs {
			t.Fatalf("workers=%d: %d samples", workers, len(got))
		}
		for r := range got {
			if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
				t.Fatalf("workers=%d: run %d = %v, serial loop %v", workers, r, got[r], want[r])
			}
		}
	}

	// The samples must actually vary with the seed, or the test is vacuous.
	varied := false
	for r := 1; r < runs; r++ {
		if want[r] != want[0] {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("all runs identical: contention randomness not exercised")
	}
}

// TestPooledSpecMatchesFreshScenario: campaigns on pooled per-worker
// Runners must reproduce the fresh-machine serial loop bit for bit — full
// Result under maximum contention, task cycles in isolation — at any worker
// count; machine reuse may not leak one run into the next.
func TestPooledSpecMatchesFreshScenario(t *testing.T) {
	spec, ok := workload.ByName("matrix")
	if !ok {
		t.Fatal("missing workload matrix")
	}
	trimmed := cpu.NewTrace(spec.Build(1).Ops()[:600])

	cfg := sim.DefaultConfig()
	cfg.Credit.Kind = sim.CreditCBA
	const runs = 6
	const seed = 42
	seedOf := func(r int) uint64 { return seed + uint64(r)*SeedStride }

	wantRes := make([]sim.Result, runs)
	wantIso := make([]float64, runs)
	for r := 0; r < runs; r++ {
		res, err := sim.RunMaxContention(cfg, trimmed.Clone(), seedOf(r))
		if err != nil {
			t.Fatal(err)
		}
		wantRes[r] = res
		iso, err := sim.RunIsolation(cfg, trimmed.Clone(), seedOf(r))
		if err != nil {
			t.Fatal(err)
		}
		wantIso[r] = float64(iso.TaskCycles)
	}

	for _, workers := range []int{1, 3} {
		res, err := Do(runnerOpts(workers), runs, func(rn *sim.Runner, r int) (sim.Result, error) {
			return rn.MaxContention(cfg, trimmed.Clone(), seedOf(r), nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantRes, res) {
			t.Errorf("workers=%d: pooled MaxContention diverges from fresh loop", workers)
		}
		iso, err := Do(runnerOpts(workers), runs, func(rn *sim.Runner, r int) (float64, error) {
			res, err := rn.Isolation(cfg, trimmed.Clone(), seedOf(r), nil)
			return float64(res.TaskCycles), err
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantIso, iso) {
			t.Errorf("workers=%d: pooled Isolation diverges from fresh loop:\n got %v\nwant %v", workers, iso, wantIso)
		}
	}
}
