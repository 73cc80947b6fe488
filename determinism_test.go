// Determinism of the parallel campaign engine: every multi-run protocol
// must produce byte-identical output at any worker count, because each run
// derives its own seed, owns its platform and program instance, and results
// are aggregated in run order. Run with -race to also exercise the engine's
// synchronisation.
package creditbus_test

import (
	"math"
	"reflect"
	"testing"

	"creditbus"
	"creditbus/internal/campaign"
	"creditbus/internal/exp"
)

// testWorkload builds a small bus-heavy program through the public API.
func testWorkload(t testing.TB) creditbus.Program {
	t.Helper()
	ops := make([]creditbus.Op, 0, 1200)
	for i := 0; i < 400; i++ {
		ops = append(ops,
			creditbus.Op{Kind: creditbus.OpLoad, Addr: uint64(i*32) % 65536},
			creditbus.Op{Kind: creditbus.OpALU, Cycles: 3},
			creditbus.Op{Kind: creditbus.OpStore, Addr: uint64(i*8+16) % 32768},
		)
	}
	return creditbus.NewTrace(ops)
}

func TestCampaignDeterminismCollectMaxContention(t *testing.T) {
	cfg := creditbus.DefaultConfig()
	cfg.Credit.Kind = creditbus.CreditCBA
	const runs, seed = 24, 20170327

	// The historical serial protocol: one shared program, Reset per run,
	// golden-ratio seed stride.
	prog := testWorkload(t)
	want := make([]float64, runs)
	for r := range want {
		prog.Reset()
		res, err := creditbus.RunMaxContention(cfg, prog, seed+uint64(r)*campaign.SeedStride)
		if err != nil {
			t.Fatal(err)
		}
		want[r] = float64(res.TaskCycles)
	}
	varied := false
	for _, v := range want {
		varied = varied || v != want[0]
	}
	if !varied {
		t.Fatal("all runs identical: contention randomness not exercised")
	}

	serial, err := creditbus.Campaign{Workers: 1}.CollectMaxContention(cfg, testWorkload(t), runs, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, want) {
		t.Fatalf("serial campaign diverges from the historical loop:\n got %v\nwant %v", serial, want)
	}
	parallel, err := creditbus.Campaign{Workers: 4}.CollectMaxContention(cfg, testWorkload(t), runs, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != runs || len(parallel) != runs {
		t.Fatalf("lengths %d/%d, want %d", len(serial), len(parallel), runs)
	}
	for r := range serial {
		if math.Float64bits(serial[r]) != math.Float64bits(parallel[r]) {
			t.Fatalf("run %d: serial %v != parallel %v", r, serial[r], parallel[r])
		}
	}
	// The default entry point must match both.
	def, err := creditbus.CollectMaxContention(cfg, testWorkload(t), runs, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, serial) {
		t.Fatal("CollectMaxContention differs from Campaign{Workers:1}")
	}
}

// A Program that hides its concrete type forces the serial Reset-per-run
// fallback; its samples must equal the cloning parallel path's.
type opaqueProgram struct{ inner creditbus.Program }

func (o opaqueProgram) Next() (creditbus.Op, bool) { return o.inner.Next() }
func (o opaqueProgram) Reset()                     { o.inner.Reset() }

func TestCampaignNonCloneableFallbackMatches(t *testing.T) {
	cfg := creditbus.DefaultConfig()
	const runs, seed = 8, 7

	cloneable, err := creditbus.CollectMaxContention(cfg, testWorkload(t), runs, seed)
	if err != nil {
		t.Fatal(err)
	}
	opaque, err := creditbus.CollectMaxContention(cfg, opaqueProgram{inner: testWorkload(t)}, runs, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cloneable, opaque) {
		t.Fatalf("fallback samples differ:\n cloneable %v\n opaque    %v", cloneable, opaque)
	}
}

func TestCampaignProgressReporting(t *testing.T) {
	cfg := creditbus.DefaultConfig()
	var calls []int
	c := creditbus.Campaign{Workers: 3, Progress: func(done, total int) {
		if total != 10 {
			t.Errorf("total = %d, want 10", total)
		}
		calls = append(calls, done)
	}}
	if _, err := c.CollectMaxContention(cfg, testWorkload(t), 10, 1); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 10 {
		t.Fatalf("progress called %d times, want 10", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress call %d reported done=%d", i, d)
		}
	}
}

func TestCampaignDeterminismMBPTAExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement campaign")
	}
	opts := exp.Options{Runs: 40, MaxOps: 4000}
	opts.Workers = 1
	serial, err := exp.MBPTAExperiment(opts, "matrix")
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	parallel, err := exp.MBPTAExperiment(opts, "matrix")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("MBPTA results differ between workers=1 and workers=4:\n serial   %+v\n parallel %+v", serial, parallel)
	}
}

func TestCampaignDeterminismFig1AndSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run campaigns")
	}
	serialRows, err := exp.Fig1(exp.Options{Runs: 2, MaxOps: 3000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallelRows, err := exp.Fig1(exp.Options{Runs: 2, MaxOps: 3000, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialRows, parallelRows) {
		t.Fatal("Fig1 rows differ between workers=1 and workers=4")
	}

	if !reflect.DeepEqual(
		exp.Sweep(exp.Options{Workers: 1}),
		exp.Sweep(exp.Options{Workers: 4}),
	) {
		t.Fatal("Sweep points differ between workers=1 and workers=4")
	}
}
