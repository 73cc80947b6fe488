// Command perfbench is the repository's benchmark. One process runs one
// named workload against the creditbus layers — the cbad service over
// loopback HTTP, shard campaigns with checkpoint stores, and the simulator
// underneath — checks every output against a direct library computation,
// and prints one JSON object as the last line of standard output: the
// end-to-end metrics, or with --trace 1 the per-layer metrics.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload run-hot --seed 1 --seconds 10 --trace 0
//
// BENCHMARK.json lists the workloads and metrics and says why each workload
// was chosen. The end-to-end costs are per completed operation: process
// CPU time, host time less the hypervisor's steal time, and bytes
// allocated; the raw wall-clock figures are printed too, and reported with
// the per-layer metrics. Every generated input derives from --seed;
// all scratch files live under --workdir and are removed on exit, except
// the traced run's span file.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"creditbus/internal/stats"
)

// Workers is the simulation worker count of every workload: the service
// pool, the shard runner and the job engine. Clients is the number of
// closed-loop HTTP clients, and of connections they share.
const (
	Workers = 2
	Clients = 2
)

// maxSetupReps bounds the set-ups timed in one run.
const maxSetupReps = 1001

// sizes fixes how much work one operation of each workload does. The
// benchmark runs fullSizes; the smoke test runs tinySizes.
type sizes struct {
	setupReps int // fewest set-ups timed per run; their median is setup_s
	coldOps   int // run-cold TuA operations
	coldCheck int // run-cold requests verified (a schedule prefix)
	campCores int // campaign-1024 masters
	campOps   int // campaign-1024 TuA operations
	jobUnits  int // jobs-tiny seeds per job
	hotReps   int // traced handler replays over the run-hot specs
}

var fullSizes = sizes{
	setupReps: 9,
	coldOps:   300,
	coldCheck: 4,
	campCores: 1024,
	campOps:   50,
	jobUnits:  100000,
	hotReps:   4,
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
}

func parseFlags(args []string) (options, error) {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(io.Discard)
	var o options
	var trace int
	fset.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fset.Uint64Var(&o.seed, "seed", TuningSeed, fmt.Sprintf("input seed (sizes tuned on %d; %d held out)", TuningSeed, HeldOutSeed))
	fset.Float64Var(&o.seconds, "seconds", 10, "measured window in seconds")
	fset.IntVar(&trace, "trace", 0, "1 = per-layer metrics from a traced run")
	fset.StringVar(&o.workdir, "workdir", ".bench_build", "directory for scratch files and the trace")
	if err := fset.Parse(args); err != nil {
		return o, err
	}
	if fset.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments: %v", fset.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, fullSizes); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// provenance identifies the host and the code that produced a result.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Commit is the VCS revision stamped at build time ("none" when built
	// outside a repository); Source hashes the Go sources actually built.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
}

func hostProvenance() provenance {
	p := provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "none",
		Source:     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					p.Commit += "+modified"
				}
			}
		}
	}
	return p
}

// sourceDigest hashes every go.mod and .go file under root (paths and
// contents, in lexical order), skipping hidden directories such as the
// build directory.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the fingerprint
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if name := d.Name(); name != "go.mod" && !strings.HasSuffix(name, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// recorder accumulates one measured window's operations. Safe for
// concurrent clients.
type recorder struct {
	mu       sync.Mutex
	latMs    []float64
	attempts int64
	failed   int64
	units    int64
	cycles   int64
	last     time.Time
}

// failedLatencyMs stands in for a failed operation's latency: a failure
// misses any latency limit, so it sorts above every success.
const failedLatencyMs = 60_000

func (r *recorder) ok(d time.Duration, units, cycles int64) {
	r.mu.Lock()
	r.attempts++
	r.latMs = append(r.latMs, float64(d)/1e6)
	r.units += units
	r.cycles += cycles
	r.last = time.Now()
	r.mu.Unlock()
}

func (r *recorder) fail(err error, log io.Writer) {
	r.mu.Lock()
	r.attempts++
	r.failed++
	r.latMs = append(r.latMs, failedLatencyMs)
	r.last = time.Now()
	first := r.failed == 1
	r.mu.Unlock()
	if first {
		fmt.Fprintln(log, "operation failed:", err)
	}
}

// succeeded is the number of operations that completed, at least 1 so a
// run where every one failed still reports (as incorrect).
func (r *recorder) succeeded() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return max(1, r.attempts-r.failed)
}

// elapsed is the window from start to the last completed operation.
func (r *recorder) elapsed(start time.Time) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.last.Before(start) {
		return time.Since(start)
	}
	return r.last.Sub(start)
}

// digest summarises the simulated statistics a workload checked: the
// FNV-1a fold of shard.ResultDigest over the checked results in schedule
// order (for the campaign workloads, the checked reports' result_hash
// values, each a SHA-256 of the same per-unit stream), and their total
// simulated cycles. It depends only on the inputs, so it repeats exactly
// for a seed, traced or not, and a speed-only change must leave it
// unchanged.
type digest struct {
	Results   int64  `json:"results"`
	Digest    string `json:"digest"`
	SimCycles int64  `json:"sim_cycles"`
}

// fixture is a set-up workload.
type fixture interface {
	// loop runs operations until deadline, recording each one. A nil
	// tracer leaves the loop untraced.
	loop(deadline time.Time, rec *recorder, tr *tracer)
	// check verifies the outputs collected so far against direct library
	// computations and returns the simulated digest.
	check() (digest, error)
	// layers measures the per-layer metrics, recording spans in tr.
	layers(tr *tracer, m metrics) error
	close()
}

type setupFunc func(b *bench) (fixture, error)

var workloads = map[string]setupFunc{
	"run-hot":       setupHot,
	"run-cold":      setupCold,
	"campaign-1024": setupCampaign,
	"jobs-tiny":     setupJobs,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench is the run's shared context.
type bench struct {
	opts options
	sz   sizes
	dir  string    // per-run scratch directory
	log  io.Writer // diagnostics (standard error)
}

func run(args []string, stdout, stderr io.Writer, sz sizes) error {
	opts, err := parseFlags(args)
	if err != nil {
		return err
	}
	prov := hostProvenance()
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(opts.workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := &bench{opts: opts, sz: sz, dir: dir, log: stderr}

	// Set up at least sz.setupReps times, and more while under half a
	// second of CPU time has gone to it, so a set-up of a few milliseconds
	// still has a steady median. The last fixture is kept.
	var setups []float64
	var fx fixture
	for spent := 0.0; len(setups) < sz.setupReps || (spent < 0.5 && len(setups) < maxSetupReps); {
		if fx != nil {
			fx.close()
		}
		cpu0 := processCPU()
		if fx, err = workloads[opts.workload](b); err != nil {
			return fmt.Errorf("set up %s: %w", opts.workload, err)
		}
		setups = append(setups, (processCPU() - cpu0).Seconds())
		spent += setups[len(setups)-1]
	}
	defer fx.close()

	// One untimed operation per client lets lazy set-up finish (heap
	// growth, first-use page faults) before timing. It is still counted
	// as attempted, and as failed if it fails.
	warm := &recorder{}
	fx.loop(time.Now(), warm, nil)

	res := result{Correct: true, Metrics: metrics{}}
	var rec *recorder
	if !opts.trace {
		res.Metrics.set("setup_s", stats.Percentile(setups, 0.5), "s")
		rec, err = endToEnd(b, fx, res.Metrics, stdout)
	} else {
		rec, err = perLayer(b, fx, res.Metrics, prov)
	}
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = warm.attempts+rec.attempts, warm.failed+rec.failed
	if res.Failed > 0 {
		// A refused or failed operation costs little, so a change that
		// sheds work must not read as a speed-up.
		res.Correct = false
		fmt.Fprintf(stderr, "%d of %d operations failed\n", res.Failed, res.Attempted)
	}
	dg, err := fx.check()
	if err != nil {
		res.Correct = false
		fmt.Fprintln(stderr, "check failed:", err)
	}
	fmt.Fprintf(stderr, "%s seed %d: %d ops (%d failed), %d units, %d latency samples; %d set-ups\n",
		opts.workload, opts.seed, rec.attempts, rec.failed, rec.units, len(rec.latMs), len(setups))

	if err := printLine(stdout, "provenance", prov); err != nil {
		return err
	}
	if err := printLine(stdout, "digest", struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		digest
	}{opts.workload, opts.seed, dg}); err != nil {
		return err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", data)
	return err
}

// endToEnd measures the untraced window and sets the end-to-end metrics
// other than setup_s, each per completed operation. cpu_ms_per_op is the
// process's CPU time, which counts only the work it did. wall_ms_per_op is
// the window's host time less the hypervisor's steal time spread over the
// host's CPUs: on a shared host steal inflates every wall-clock figure by
// whatever the neighbours use, but it accrues only while a CPU has work, so
// the figure still counts every wait — fsync, the pool's queue, locks, the
// job poll — that CPU time misses. The raw wall-clock figures are printed
// on a line of their own.
func endToEnd(b *bench, fx fixture, m metrics, stdout io.Writer) (*recorder, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := &recorder{}
	cpu0 := processCPU()
	secs, steal := rec.measure(fx, b.window(), nil)
	cpu := (processCPU() - cpu0).Seconds()
	runtime.ReadMemStats(&after)
	ops := float64(rec.succeeded())
	m.set("cpu_ms_per_op", 1e3*cpu/ops, "ms")
	m.set("wall_ms_per_op", 1e3*(secs-steal.Seconds()/float64(runtime.NumCPU()))/ops, "ms")
	m.set("alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/ops/1e6, "MB")
	return rec, printLine(stdout, "wall", wallFigures(rec, secs, steal))
}

// perLayer measures the window in quarters, alternately untraced and
// traced — the difference in CPU time per unit is the tracing overhead, and
// alternating keeps drift over the window out of it — then runs the
// fixture's layer probes and writes the spans out.
func perLayer(b *bench, fx fixture, m metrics, prov provenance) (*recorder, error) {
	plain, traced := &recorder{}, &recorder{}
	tr := newTracer()
	var plainCPU, tracedCPU, plainSteal time.Duration
	plainSecs := 0.0
	for q := 0; q < 4; q++ {
		cpu0 := processCPU()
		if q%2 == 1 {
			traced.measure(fx, b.window()/4, tr)
			tracedCPU += processCPU() - cpu0
			continue
		}
		secs, steal := plain.measure(fx, b.window()/4, nil)
		plainCPU += processCPU() - cpu0
		plainSecs += secs
		plainSteal += steal
	}
	for name, v := range wallFigures(plain, plainSecs, plainSteal) {
		m[name] = v
	}
	m.set("runtime.peak_rss_mb", peakRSSMB(), "MB")
	plainCost := plainCPU.Seconds() / float64(plain.units)
	tracedCost := tracedCPU.Seconds() / float64(traced.units)
	m.set("trace.overhead_pct", 100*(tracedCost/plainCost-1), "%")
	m.set("trace.spans", float64(tr.count()), "count")
	m.set("trace.span_ns", spanCostNs(), "ns")
	if err := fx.layers(tr, m); err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	path := filepath.Join(b.opts.workdir, fmt.Sprintf("trace-%s-%d.jsonl", b.opts.workload, b.opts.seed))
	if err := tr.write(path, map[string]any{"provenance": prov, "workload": b.opts.workload, "seed": b.opts.seed}); err != nil {
		return nil, err
	}
	tr.printSelfTimes(b.log)
	fmt.Fprintf(b.log, "spans written to %s\n", path)
	return &recorder{
		latMs:    append(plain.latMs, traced.latMs...),
		attempts: plain.attempts + traced.attempts,
		failed:   plain.failed + traced.failed,
		units:    plain.units + traced.units,
	}, nil
}

func (b *bench) window() time.Duration { return time.Duration(b.opts.seconds * float64(time.Second)) }

// printLine writes {key: v} as one JSON line.
func printLine(w io.Writer, key string, v any) error {
	data, err := json.Marshal(map[string]any{key: v})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// measure runs the fixture's operations for d into r and returns the
// seconds until the last one ended and the host's steal time meanwhile.
func (r *recorder) measure(fx fixture, d time.Duration, tr *tracer) (float64, time.Duration) {
	steal0 := hostSteal()
	start := time.Now()
	fx.loop(start.Add(d), r, tr)
	return r.elapsed(start).Seconds(), hostSteal() - steal0
}

// wallFigures are the wall-clock figures of r's operations over secs
// seconds, with the share of the host's CPU time the hypervisor gave to
// other guests meanwhile (steal), which inflates every one of them.
func wallFigures(r *recorder, secs float64, steal time.Duration) metrics {
	m := metrics{}
	m.set("wall.units_per_s", float64(r.units)/secs, "1/s")
	m.set("wall.latency_p50_ms", stats.Percentile(r.latMs, 0.5), "ms")
	m.set("wall.latency_p95_ms", stats.Percentile(r.latMs, 0.95), "ms")
	m.set("wall.latency_samples", float64(len(r.latMs)), "count")
	m.set("wall.sim_mcycles_per_s", float64(r.cycles)/secs/1e6, "Mcycles/s")
	m.set("host.steal_pct", 100*steal.Seconds()/(secs*float64(runtime.NumCPU())), "%")
	return m
}

// spanCostNs measures what recording one span costs.
func spanCostNs() float64 {
	tr := newTracer()
	const n = 100000
	start := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.begin("probe", 0, int64(i)))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal returns the CPU time the hypervisor gave to other guests, summed
// over this host's CPUs (the steal column of /proc/stat), or 0 where the
// kernel does not report it.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB (10⁶ bytes).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	return math.NaN()
}
