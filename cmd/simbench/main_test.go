package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stubReport builds a Report with the given fast-engine speedups and a
// healthy pooled-campaign profile matching stubBaseline.
func stubReport(step, collect float64) Report {
	var r Report
	r.SchemaVersion = SchemaVersion
	r.MachineStep.Speedup = step
	r.CollectMaxContention.Speedup = collect
	r.Allocations.FreshRun.AllocsPerOp = 1000
	r.Allocations.ReusedRun.AllocsPerOp = 10
	r.Allocations.AllocReduction = 0.99
	r.ParallelCampaign.Workers = 4
	r.ParallelCampaign.SerialRunsPerSec = 1000
	r.ParallelCampaign.ParallelRunsPerSec = 3000
	r.ParallelCampaign.Scaling = 3.0
	r.ParallelCampaign.AllocsPerRun = 12
	r.CoreScaling.Scenario = "canrdr max contention (WCET mode, CBA)"
	r.CoreScaling.Points = []CorePoint{
		{Cores: 64, NsPerOp: 100, SimCyclesPerOp: 1, SimCyclesPerS: 1e7},
		{Cores: 1024, NsPerOp: 150, SimCyclesPerOp: 1, SimCyclesPerS: 1e7 / 1.5},
	}
	r.CoreScaling.Degradation = 1.5
	return r
}

// stubMeasure replaces the minute-long benchmark suite for gate-logic
// tests and restores it on cleanup.
func stubMeasure(t *testing.T, rep Report) {
	t.Helper()
	orig := measureAll
	measureAll = func(runs int, log io.Writer) (Report, error) { return rep, nil }
	t.Cleanup(func() { measureAll = orig })
}

func writeBaseline(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const goodBaseline = `{
  "schema_version": 3,
  "go_version": "go1.24.0", "goos": "linux", "goarch": "amd64", "cpus": 4, "gomaxprocs": 4,
  "core_scaling": {
    "scenario": "canrdr max contention (WCET mode, CBA)",
    "points": [
      {"cores": 64, "ns_per_op": 100, "sim_cycles_per_op": 1, "sim_cycles_per_sec": 1e7},
      {"cores": 1024, "ns_per_op": 150, "sim_cycles_per_op": 1, "sim_cycles_per_sec": 6.667e6}
    ],
    "degradation_1024_vs_64": 1.5
  },
  "machine_step": {
    "per_cycle": {"ns_per_op": 100, "sim_cycles_per_op": 1, "sim_cycles_per_sec": 1e7},
    "fast": {"ns_per_op": 20, "sim_cycles_per_op": 1, "sim_cycles_per_sec": 5e7},
    "speedup": 5.0
  },
  "collect_max_contention": {
    "workload": "canrdr", "runs": 16, "workers": 1,
    "per_cycle": {"ns_per_op": 100, "sim_cycles_per_op": 1, "sim_cycles_per_sec": 1e7},
    "fast": {"ns_per_op": 20, "sim_cycles_per_op": 1, "sim_cycles_per_sec": 5e7},
    "speedup": 5.0
  },
  "allocations": {
    "workload": "canrdr",
    "fresh_machine_run": {"ns_per_op": 1e6, "bytes_per_op": 500000, "allocs_per_op": 1000},
    "reused_machine_run": {"ns_per_op": 9e5, "bytes_per_op": 2000, "allocs_per_op": 10},
    "alloc_reduction": 0.99
  },
  "parallel_campaign": {
    "workload": "canrdr", "runs": 16, "workers": 4,
    "serial_runs_per_sec": 1000, "parallel_runs_per_sec": 3000, "scaling": 3.0,
    "allocs_per_run": 12, "bytes_per_run": 2500
  }
}`

func TestCheckPassesAtBaseline(t *testing.T) {
	stubMeasure(t, stubReport(5.0, 5.0))
	path := writeBaseline(t, goodBaseline)
	var out, errb strings.Builder
	if err := run([]string{"-check", "-baseline", path}, &out, &errb); err != nil {
		t.Fatalf("gate failed at baseline speed: %v\n%s", err, out.String())
	}
	if strings.Count(out.String(), " ok") != 7 {
		t.Errorf("expected seven ok gates:\n%s", out.String())
	}
}

func TestCheckPassesAboveFloor(t *testing.T) {
	// 0.9× of baseline is above the default 0.85 floor.
	stubMeasure(t, stubReport(4.5, 4.5))
	path := writeBaseline(t, goodBaseline)
	var out, errb strings.Builder
	if err := run([]string{"-check", "-baseline", path}, &out, &errb); err != nil {
		t.Fatalf("gate failed above the floor: %v", err)
	}
}

func TestCheckFailsBelowFloor(t *testing.T) {
	// 0.8× of baseline is below the default 0.85 floor.
	stubMeasure(t, stubReport(4.0, 5.0))
	path := writeBaseline(t, goodBaseline)
	var out, errb strings.Builder
	err := run([]string{"-check", "-baseline", path}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "outside 0.85x") {
		t.Fatalf("regression not caught: %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("regression row missing:\n%s", out.String())
	}
	// A tighter threshold catches the second gate too (4.9 < 5.0×1.0,
	// where it passed the 0.85 floor above).
	stubMeasure(t, stubReport(4.0, 4.9))
	err = run([]string{"-check", "-baseline", path, "-threshold", "1.0"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "2 perf gate(s)") {
		t.Fatalf("threshold 1.0 should fail both speedup gates: %v", err)
	}
}

func TestCheckFailsOnAllocRegression(t *testing.T) {
	// Allocations regress by GROWING: 10 → 50 allocs/op on the pooled path
	// busts the 10/0.85 ≈ 11.8 limit even though every speedup is fine.
	rep := stubReport(5.0, 5.0)
	rep.Allocations.ReusedRun.AllocsPerOp = 50
	stubMeasure(t, rep)
	path := writeBaseline(t, goodBaseline)
	var out, errb strings.Builder
	err := run([]string{"-check", "-baseline", path}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "1 perf gate(s)") {
		t.Fatalf("allocation regression not caught: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "reused-run allocs/op") || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("allocation gate row missing:\n%s", out.String())
	}
}

func TestCheckFailsOnDegradationRegression(t *testing.T) {
	// Core-count degradation regresses by GROWING: 1.5 → 1.9 busts the
	// baseline-relative limit of 1.5/0.85 ≈ 1.76 while staying under the
	// absolute 4× cap, so exactly one gate fires.
	rep := stubReport(5.0, 5.0)
	rep.CoreScaling.Degradation = 1.9
	stubMeasure(t, rep)
	path := writeBaseline(t, goodBaseline)
	var out, errb strings.Builder
	err := run([]string{"-check", "-baseline", path}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "1 perf gate(s)") {
		t.Fatalf("degradation regression not caught: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "1024v64-core degradation") || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("degradation gate row missing:\n%s", out.String())
	}
}

func TestCheckFailsAbsoluteDegradationCap(t *testing.T) {
	// Even a baseline that already records a >4× cliff must not
	// grandfather it: the absolute cap fires on the measured value alone.
	bad := strings.Replace(goodBaseline, `"degradation_1024_vs_64": 1.5`, `"degradation_1024_vs_64": 5.0`, 1)
	rep := stubReport(5.0, 5.0)
	rep.CoreScaling.Degradation = 4.5 // within baseline's 5/0.85, over the cap
	stubMeasure(t, rep)
	path := writeBaseline(t, bad)
	var out, errb strings.Builder
	err := run([]string{"-check", "-baseline", path}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "1 perf gate(s)") {
		t.Fatalf("absolute degradation cap not enforced: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "core degradation (absolute)") {
		t.Errorf("absolute cap row missing:\n%s", out.String())
	}
}

func TestCheckFailsOnScalingRegression(t *testing.T) {
	rep := stubReport(5.0, 5.0)
	rep.ParallelCampaign.Scaling = 1.1 // worker pool collapsed to serial speed
	stubMeasure(t, rep)
	path := writeBaseline(t, goodBaseline)
	var out, errb strings.Builder
	err := run([]string{"-check", "-baseline", path}, &out, &errb)
	if err == nil || !strings.Contains(out.String(), "parallel campaign scaling") {
		t.Fatalf("scaling regression not caught: %v\n%s", err, out.String())
	}
}

func TestCheckSkipsScalingAcrossWorkerCounts(t *testing.T) {
	// Baseline measured at 4 workers, this machine at 2: absolute scaling
	// is incomparable, the gate must skip with a notice instead of failing.
	rep := stubReport(5.0, 5.0)
	rep.ParallelCampaign.Workers = 2
	rep.ParallelCampaign.Scaling = 1.5
	stubMeasure(t, rep)
	path := writeBaseline(t, goodBaseline)
	var out, errb strings.Builder
	if err := run([]string{"-check", "-baseline", path}, &out, &errb); err != nil {
		t.Fatalf("worker-count mismatch must skip, not fail: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "scaling gate skipped") {
		t.Errorf("skip notice missing:\n%s", out.String())
	}
}

func TestCheckRejectsBadBaselines(t *testing.T) {
	stubMeasure(t, stubReport(5.0, 5.0))
	cases := []struct {
		name    string
		content string
		want    string
	}{
		{"malformed json", `{"machine_step": `, "malformed"},
		{"unknown field", `{"surprise": 1}`, "malformed"},
		{"missing schema version", `{"machine_step": {"speedup": 5}, "collect_max_contention": {"speedup": 5}}`, "schema version 0"},
		{"old schema version", `{"schema_version": 2}`, "schema version 2"},
		{"zero speedups", `{"schema_version": 3, "machine_step": {"speedup": 0}, "collect_max_contention": {"speedup": 0}}`, "non-positive"},
		{"zero degradation", `{"schema_version": 3, "machine_step": {"speedup": 5}, "collect_max_contention": {"speedup": 5}}`, "non-positive core-scaling degradation"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := writeBaseline(t, c.content)
			var out, errb strings.Builder
			err := run([]string{"-check", "-baseline", path}, &out, &errb)
			if err == nil {
				t.Fatal("bad baseline accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}

	t.Run("missing file", func(t *testing.T) {
		var out, errb strings.Builder
		err := run([]string{"-check", "-baseline", filepath.Join(t.TempDir(), "absent.json")}, &out, &errb)
		if err == nil || !strings.Contains(err.Error(), "regenerate deliberately") {
			t.Fatalf("missing baseline accepted: %v", err)
		}
	})
}

func TestCheckNeverWrites(t *testing.T) {
	// Even a failing check must not touch the baseline file — the
	// historical bug was silently regenerating it.
	stubMeasure(t, stubReport(1.0, 1.0))
	path := writeBaseline(t, goodBaseline)
	var out, errb strings.Builder
	if err := run([]string{"-check", "-baseline", path}, &out, &errb); err == nil {
		t.Fatal("gate should have failed")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != goodBaseline {
		t.Error("check mode modified the baseline file")
	}
}

func TestCheckThresholdRange(t *testing.T) {
	stubMeasure(t, stubReport(5.0, 5.0))
	path := writeBaseline(t, goodBaseline)
	var out, errb strings.Builder
	for _, thr := range []string{"0", "-1", "1.5"} {
		if err := run([]string{"-check", "-baseline", path, "-threshold", thr}, &out, &errb); err == nil {
			t.Errorf("threshold %s accepted", thr)
		}
	}
}

func TestWriteMode(t *testing.T) {
	stubMeasure(t, stubReport(5.0, 6.0))
	out := filepath.Join(t.TempDir(), "out.json")
	var stdout, errb strings.Builder
	if err := run([]string{"-out", out}, &stdout, &errb); err != nil {
		t.Fatal(err)
	}
	rep, err := loadBaseline(out)
	if err != nil {
		t.Fatalf("write mode produced an unloadable baseline: %v", err)
	}
	if rep.MachineStep.Speedup != 5.0 || rep.CollectMaxContention.Speedup != 6.0 {
		t.Errorf("round-trip mismatch: %+v", rep)
	}
	if rep.SchemaVersion != SchemaVersion {
		t.Errorf("written schema version %d, want %d", rep.SchemaVersion, SchemaVersion)
	}
	if !strings.Contains(stdout.String(), "wrote "+out) {
		t.Errorf("write confirmation missing:\n%s", stdout.String())
	}
}

func TestProfileFlags(t *testing.T) {
	stubMeasure(t, stubReport(5.0, 5.0))
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var stdout, errb strings.Builder
	if err := run([]string{"-out", filepath.Join(dir, "o.json"), "-cpuprofile", cpu, "-memprofile", mem}, &stdout, &errb); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestRejectsPositionalArgs(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"extra"}, &out, &errb); err == nil {
		t.Fatal("positional args accepted")
	}
}
