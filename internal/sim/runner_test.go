package sim

import (
	"reflect"
	"testing"

	"creditbus/internal/bus"
	"creditbus/internal/core"
	"creditbus/internal/cpu"
)

// TestRunEntryPoints pins the one run loop behind every entry point: for
// each run kind, a fresh machine and a warm recycled Runner, with and
// without a probe — and, for workloads runs, with and without a grant
// observer — return the same Result field for field, and the probe fires
// exactly once per engine step on both engines.
func TestRunEntryPoints(t *testing.T) {
	const seed = 11
	tua := func(t *testing.T) cpu.Program { return diffPrograms(t, "cacheb") }
	workloads := func(t *testing.T, cfg Config) []cpu.Program {
		ps := make([]cpu.Program, cfg.Cores)
		for i := range ps {
			ps[i] = diffCoRunner()
		}
		ps[cfg.TuA] = tua(t)
		return ps
	}
	single := func(t *testing.T, cfg Config) []cpu.Program {
		ps := make([]cpu.Program, cfg.Cores)
		ps[cfg.TuA] = tua(t)
		return ps
	}
	kinds := []struct {
		name     string
		mode     core.Mode
		programs func(*testing.T, Config) []cpu.Program // the vector the machine runs
		fresh    func(*testing.T, Config) (Result, error)
		run      func(*testing.T, *Runner, Config, Probe, func(bus.GrantEvent)) (Result, error)
	}{
		{"isolation", core.OperationMode, single,
			func(t *testing.T, cfg Config) (Result, error) { return RunIsolation(cfg, tua(t), seed) },
			func(t *testing.T, rn *Runner, cfg Config, p Probe, _ func(bus.GrantEvent)) (Result, error) {
				return rn.Isolation(cfg, tua(t), seed, p)
			}},
		{"wcet", core.WCETMode, single,
			func(t *testing.T, cfg Config) (Result, error) { return RunMaxContention(cfg, tua(t), seed) },
			func(t *testing.T, rn *Runner, cfg Config, p Probe, _ func(bus.GrantEvent)) (Result, error) {
				return rn.MaxContention(cfg, tua(t), seed, p)
			}},
		{"workloads", core.OperationMode, workloads,
			func(t *testing.T, cfg Config) (Result, error) { return RunWorkloads(cfg, workloads(t, cfg), seed) },
			func(t *testing.T, rn *Runner, cfg Config, p Probe, obs func(bus.GrantEvent)) (Result, error) {
				return rn.Workloads(cfg, workloads(t, cfg), seed, p, obs)
			}},
	}

	for _, perCycle := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Credit.Kind = CreditCBA
		cfg.ForcePerCycle = perCycle
		for _, k := range kinds {
			name := k.name + map[bool]string{false: "/fast", true: "/per-cycle"}[perCycle]
			t.Run(name, func(t *testing.T) {
				want, err := k.fresh(t, cfg)
				if err != nil {
					t.Fatal(err)
				}

				// The independent step count: drive the same platform by
				// hand with the exported single-step methods.
				mcfg := cfg
				mcfg.Mode = k.mode
				m, err := NewMachine(mcfg, k.programs(t, mcfg), seed)
				if err != nil {
					t.Fatal(err)
				}
				steps := 0
				for !m.Core(cfg.TuA).Done() {
					if perCycle {
						m.Tick()
					} else {
						m.Step()
					}
					steps++
				}

				observers := []bool{false}
				if k.name == "workloads" {
					observers = append(observers, true)
				}
				for _, warm := range []bool{false, true} {
					for _, probed := range []bool{false, true} {
						for _, observed := range observers {
							rn := new(Runner)
							if warm {
								// Serve a run of another platform shape first.
								other := cfg
								other.Credit.Kind = CreditOff
								if _, err := k.run(t, rn, other, nil, nil); err != nil {
									t.Fatal(err)
								}
							}
							var probe Probe
							calls, last := 0, int64(0)
							if probed {
								probe = func(m *Machine) {
									if m.Cycle() <= last {
										t.Errorf("probe at cycle %d after cycle %d: not once per step", m.Cycle(), last)
									}
									calls++
									last = m.Cycle()
								}
							}
							var obs func(bus.GrantEvent)
							grants := 0
							if observed {
								obs = func(bus.GrantEvent) { grants++ }
							}
							got, err := k.run(t, rn, cfg, probe, obs)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("warm=%v probed=%v observed=%v: result diverges from the fresh run:\n got %+v\nwant %+v",
									warm, probed, observed, got, want)
							}
							if probed && (calls != steps || last != want.WallCycles) {
								t.Fatalf("warm=%v: probe fired %d times up to cycle %d, want %d steps up to cycle %d",
									warm, calls, last, steps, want.WallCycles)
							}
							if observed && grants == 0 {
								t.Fatal("grant observer never fired")
							}
						}
					}
				}
			})
		}
	}
}
