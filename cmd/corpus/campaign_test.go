package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// writeMegaCampaign builds a campaign spec file of the given unit count:
// two minimal scenarios with unequal seed schedules, so the unit mapping
// crosses a scenario boundary.
func writeMegaCampaign(t *testing.T, dir string, units int64) string {
	t.Helper()
	a := units * 2 / 3
	spec := fmt.Sprintf(`{
  "name": "mega-sweep",
  "scenarios": [
    {
      "name": "mega-a",
      "cores": 2,
      "run": "isolation",
      "workloads": [{"core": 0, "workload": "canrdr", "ops": 8}],
      "seeds": {"base": 1, "runs": %d}
    },
    {
      "name": "mega-b",
      "cores": 2,
      "run": "isolation",
      "workloads": [{"core": 0, "workload": "canrdr", "ops": 8}],
      "seeds": {"base": 1, "runs": %d}
    }
  ]
}`, a, units-a)
	path := filepath.Join(dir, "campaign.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCampaignWorkerHelper is not a test: it is the shard-worker process
// body the differential suite re-execs. Everything after "--" in the
// command line is a corpus argument vector.
func TestCampaignWorkerHelper(t *testing.T) {
	if os.Getenv("CORPUS_WORKER_HELPER") != "1" {
		t.Skip("helper process entry point")
	}
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	if err := run(args, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// workerCmd builds a re-exec of this test binary as a corpus shard worker.
func workerCmd(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run", "TestCampaignWorkerHelper", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "CORPUS_WORKER_HELPER=1")
	return cmd
}

func runWorker(t *testing.T, args ...string) string {
	t.Helper()
	cmd := workerCmd(t, args...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Run(); err != nil {
		t.Fatalf("worker %v: %v\n%s", args, err, buf.String())
	}
	return buf.String()
}

// TestShardedMegaCampaignProcesses is the acceptance differential for the
// sharded-campaign stack: a ≥10⁶-unit (scenario, seed) sweep executed as
// K separate worker processes for K ∈ {1, 2, 8} — including a mid-shard
// budgeted stop with resume and a real SIGKILL with resume — always merges
// to report bytes identical to the in-process single-machine reference.
func TestShardedMegaCampaignProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("mega campaign differential is minutes-scale under -short budgets")
	}
	const units = 1_000_002
	base := t.TempDir()
	specPath := writeMegaCampaign(t, base, units)

	// Single-process reference, no checkpoints.
	refPath := filepath.Join(base, "ref.json")
	refOut := runWorker(t, "-campaign", specPath, "-reference", "-report", refPath)
	_ = refOut
	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 2, 8} {
		k := k
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			ckpt := filepath.Join(base, fmt.Sprintf("ck-%d", k))
			common := []string{"-campaign", specPath, "-shards", fmt.Sprint(k), "-checkpoint", ckpt, "-checkpoint-every", "262144"}

			// One worker process per shard, concurrently — a real fleet.
			var wg sync.WaitGroup
			errs := make([]error, k)
			outs := make([]string, k)
			for i := 0; i < k; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					args := append(append([]string{}, common...), "-shard", fmt.Sprint(i))
					if k == 2 && i == 0 {
						// Budgeted mid-shard stop: the deterministic
						// kill-and-resume leg. The resume run below finishes it.
						args = append(args, "-max-units", "131072")
					}
					cmd := workerCmd(t, args...)
					var buf bytes.Buffer
					cmd.Stdout, cmd.Stderr = &buf, &buf
					errs[i] = cmd.Run()
					outs[i] = buf.String()
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("shard %d: %v\n%s", i, err, outs[i])
				}
			}
			if k == 2 {
				// Resume the budget-stopped shard in a fresh process.
				out := runWorker(t, append(append([]string{}, common...), "-shard", "0")...)
				if !strings.Contains(out, "complete") {
					t.Fatalf("resumed shard did not complete:\n%s", out)
				}
			}

			// Merge in yet another process and compare byte-for-byte.
			mergedPath := filepath.Join(base, fmt.Sprintf("merged-%d.json", k))
			runWorker(t, append(append([]string{}, common...), "-merge", "-report", mergedPath)...)
			merged, err := os.ReadFile(mergedPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(merged, ref) {
				t.Fatalf("K=%d merged report differs from single-process reference\nmerged: %.400s\nref:    %.400s", k, merged, ref)
			}
		})
	}
}

// TestShardKillResume sends a real SIGKILL to a worker process mid-shard,
// restarts it, and proves the merged bytes still match the reference — the
// crash-consistency leg (atomic checkpoint rename, resume from the last
// complete chunk).
func TestShardKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-and-resume differential is skipped under -short")
	}
	const units = 120_000
	base := t.TempDir()
	specPath := writeMegaCampaign(t, base, units)

	refPath := filepath.Join(base, "ref.json")
	runWorker(t, "-campaign", specPath, "-reference", "-report", refPath)
	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(base, "ck")
	common := []string{"-campaign", specPath, "-shards", "2", "-checkpoint", ckpt, "-checkpoint-every", "4096"}

	// Start shard 0, wait for its first checkpoint to land, SIGKILL it.
	victim := workerCmd(t, append(append([]string{}, common...), "-shard", "0")...)
	victim.Stdout, victim.Stderr = io.Discard, io.Discard
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	shard0 := filepath.Join(ckpt, "shard-0000.json")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(shard0); err == nil {
			break
		}
		if time.Now().After(deadline) {
			_ = victim.Process.Kill()
			t.Fatal("shard 0 never checkpointed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = victim.Wait() // reap; exit status is the kill, not a failure

	// Resume the killed shard and run shard 1 normally.
	out := runWorker(t, append(append([]string{}, common...), "-shard", "0")...)
	if !strings.Contains(out, "complete") {
		t.Fatalf("resumed shard did not complete:\n%s", out)
	}
	runWorker(t, append(append([]string{}, common...), "-shard", "1")...)

	mergedPath := filepath.Join(base, "merged.json")
	runWorker(t, append(append([]string{}, common...), "-merge", "-report", mergedPath)...)
	merged, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, ref) {
		t.Fatalf("kill-and-resume merged report differs from reference\nmerged: %.400s\nref:    %.400s", merged, ref)
	}

	// The checkpoint store must refuse a premature merge: wipe shard 1 and
	// check the coordinator fails loudly rather than emitting a partial
	// report.
	if err := os.Remove(filepath.Join(ckpt, "shard-0001.json")); err != nil {
		t.Fatal(err)
	}
	cmd := workerCmd(t, append(append([]string{}, common...), "-merge", "-report", filepath.Join(base, "bad.json"))...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Run(); err == nil {
		t.Fatalf("merge over an incomplete store must fail\n%s", buf.String())
	}
}
