package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinySizes shrinks every workload so the smoke test runs in seconds.
var tinySizes = sizes{
	setupReps: 1,
	coldOps:   100,
	coldCheck: 2,
	campCores: 16,
	campOps:   10,
	jobUnits:  200,
	hotReps:   1,
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runTiny runs one workload at tinySizes and returns the result line and
// the digest line.
func runTiny(t *testing.T, workload, trace string) (result, string) {
	t.Helper()
	var out, errs bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--workdir", t.TempDir()}
	if err := run(args, &out, &errs, tinySizes); err != nil {
		t.Fatalf("%s trace %s: %v\n%s", workload, trace, err, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	digest := ""
	for _, l := range lines {
		if strings.HasPrefix(l, `{"digest"`) {
			digest = l
		}
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s trace %s: correct %v attempted %d failed %d\n%s", workload, trace, res.Correct, res.Attempted, res.Failed, errs.String())
	}
	return res, digest
}

func checkMetrics(t *testing.T, workload string, got metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, %d declared", workload, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: metric %s has unit %q, declared %q", workload, w.Name, m.Unit, w.Unit)
		}
	}
}

// TestSmoke runs every declared workload at a tiny size, untraced and
// traced: each must pass its output check with no failed operation, print
// exactly the declared metrics with their units, and print the same
// simulated digest in both runs.
func TestSmoke(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workload) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(d.Workload), len(workloads))
	}
	for _, w := range d.Workload {
		t.Run(w.Name, func(t *testing.T) {
			res, plain := runTiny(t, w.Name, "0")
			checkMetrics(t, w.Name, res.Metrics, d.EndToEnd)
			res, traced := runTiny(t, w.Name, "1")
			checkMetrics(t, w.Name, res.Metrics, d.PerLayer)
			if plain == "" || plain != traced {
				t.Errorf("digest differs between untraced and traced runs:\n%s\n%s", plain, traced)
			}
		})
	}
}

func TestFlagsRejectBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "run-hot", "--seconds", "0"},
		{"--workload", "run-hot", "--trace", "2"},
		{"--workload", "run-hot", "extra"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
}
