package core

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"creditbus/internal/rng"
)

// denseArbiter is the eager CBA accounting the lazy Arbiter replaced: every
// budget is stepped on every cycle, O(masters) per Tick. It borrows its
// configuration (weights, thresholds, caps, initial budgets) from an Arbiter
// and keeps its own budgets, so the two can be driven side by side.
type denseArbiter struct {
	cfg        *Arbiter
	budget     []int64
	underflows int64
}

func newDense(cfg *Arbiter) *denseArbiter {
	d := &denseArbiter{cfg: cfg, budget: make([]int64, cfg.Masters())}
	d.Reset()
	return d
}

func (d *denseArbiter) Reset() {
	for i := range d.budget {
		d.budget[i] = d.cfg.InitialBudget(i)
	}
	d.underflows = 0
}

// Tick is the per-cycle Eq. 1 update applied to every master.
func (d *denseArbiter) Tick(holder int) {
	a := d.cfg
	for i := range d.budget {
		b := d.budget[i] + a.weights[i]
		if i == holder {
			b -= a.scale
		}
		if b > a.cap[i] {
			b = a.cap[i]
		}
		if b < 0 {
			b = 0
			d.underflows++
		}
		d.budget[i] = b
	}
}

// TickN is the dense closed form: every non-holder refills by n·w_i with
// saturation, the holder drains, and a drain past zero falls back to the
// per-cycle loop so underflows are counted per clamped cycle.
func (d *denseArbiter) TickN(holder int, n int64) {
	a := d.cfg
	if holder >= 0 {
		net := a.weights[holder] - a.scale
		if d.budget[holder]+net*n < 0 {
			for k := int64(0); k < n; k++ {
				d.Tick(holder)
			}
			return
		}
	}
	for i := range d.budget {
		if i == holder {
			nb := d.budget[i] + (a.weights[i]-a.scale)*n
			if nb > a.cap[i] {
				nb = a.cap[i]
			}
			d.budget[i] = nb
			continue
		}
		nb := d.budget[i] + a.weights[i]*n
		if nb > a.cap[i] || nb < d.budget[i] {
			nb = a.cap[i]
		}
		d.budget[i] = nb
	}
}

func (d *denseArbiter) eligible(m int) bool  { return d.budget[m] >= d.cfg.threshold[m] }
func (d *denseArbiter) saturated(m int) bool { return d.budget[m] >= d.cfg.cap[m] }

func (d *denseArbiter) cyclesUntil(m int, level int64) int64 {
	short := level - d.budget[m]
	if short <= 0 {
		return 0
	}
	w := d.cfg.weights[m]
	return (short + w - 1) / w
}

// denseSignals is the per-contender COMP latch scan the word-level
// Signals.Update replaced.
type denseSignals struct {
	d    *denseArbiter
	mode Mode
	tua  int
	comp []bool
}

func newDenseSignals(d *denseArbiter, mode Mode, tua int) *denseSignals {
	s := &denseSignals{d: d, mode: mode, tua: tua, comp: make([]bool, len(d.budget))}
	s.Reset()
	return s
}

func (s *denseSignals) Reset() {
	for i := range s.comp {
		s.comp[i] = s.mode == OperationMode || i == s.tua
	}
}

func (s *denseSignals) Update(tuaReady bool) {
	if s.mode == OperationMode || !tuaReady {
		return
	}
	for i := range s.comp {
		if i != s.tua && s.d.saturated(i) {
			s.comp[i] = true
		}
	}
}

func (s *denseSignals) OnGrant(m int) {
	if s.mode == WCETMode && m != s.tua {
		s.comp[m] = false
	}
}

// sameState reports the first observable difference between the lazy
// arbiter (and its signal block) and the dense reference.
func sameState(a *Arbiter, d *denseArbiter, sig *Signals, ds *denseSignals) error {
	if a.Underflows() != d.underflows {
		return fmt.Errorf("underflows %d, dense %d", a.Underflows(), d.underflows)
	}
	for m := 0; m < a.Masters(); m++ {
		switch {
		case a.Budget(m) != d.budget[m]:
			return fmt.Errorf("master %d: budget %d, dense %d", m, a.Budget(m), d.budget[m])
		case a.Eligible(m) != d.eligible(m):
			return fmt.Errorf("master %d: eligible %v, dense %v", m, a.Eligible(m), d.eligible(m))
		case a.satBits.Test(m) != d.saturated(m):
			return fmt.Errorf("master %d: saturated %v, dense %v", m, a.satBits.Test(m), d.saturated(m))
		case a.CyclesUntilEligible(m) != d.cyclesUntil(m, a.Threshold(m)):
			return fmt.Errorf("master %d: CyclesUntilEligible %d, dense %d", m, a.CyclesUntilEligible(m), d.cyclesUntil(m, a.Threshold(m)))
		case a.CyclesUntilSaturated(m) != d.cyclesUntil(m, a.Cap(m)):
			return fmt.Errorf("master %d: CyclesUntilSaturated %d, dense %d", m, a.CyclesUntilSaturated(m), d.cyclesUntil(m, a.Cap(m)))
		case sig.Competing(m) != ds.comp[m]:
			return fmt.Errorf("master %d: COMP %v, dense %v", m, sig.Competing(m), ds.comp[m])
		case sig.comp.Test(m) != ds.comp[m]:
			return fmt.Errorf("master %d: COMP bit %v, dense %v", m, sig.comp.Test(m), ds.comp[m])
		}
	}
	return nil
}

// diffConfig builds one of the three CBA shapes — homogeneous, H-CBA
// variant 1 (raised cap) and variant 2 (heterogeneous weights) — over 1..80
// masters (so the bitsets span a word boundary), with a random subset of
// StartEmpty masters.
func diffConfig(src *rng.Stream) (Config, error) {
	n := 1 + int(src.Uint64()%80)
	maxHold := 1 + int64(src.Uint64()%24)
	var cfg Config
	var err error
	switch kind := src.Uint64() % 3; {
	case kind == 0 || n < 2:
		cfg = Homogeneous(n, maxHold)
	case kind == 1:
		cfg, err = HeterogeneousCap(n, maxHold, int(src.Uint64()%uint64(n)), 2+int64(src.Uint64()%3))
	default:
		cfg, err = HeterogeneousWeights(n, maxHold, int(src.Uint64()%uint64(n)), 1, 2+int64(src.Uint64()%3))
	}
	if err != nil {
		return Config{}, err
	}
	cfg.StartEmpty = make([]bool, n)
	for i := range cfg.StartEmpty {
		cfg.StartEmpty[i] = src.Uint64()%4 == 0
	}
	return cfg, nil
}

// TestQuickLazyMatchesDense drives the lazy arbiter and the dense
// reference through the same random holder sequences, with SetBudgetForTest
// and Reset interleaved, and compares every observable after every cycle
// (after every span for TickN): budgets, eligibility, the saturated and COMP
// bits, the crossing distances the bus horizon uses, and the underflow
// count. Well-formed sequences grant only eligible masters for at most MaxL
// cycles; ill-formed ones hold arbitrary masters for arbitrary spans, which
// drives budgets into the zero clamp.
func TestQuickLazyMatchesDense(t *testing.T) {
	prop := func(seed uint64, wellFormed bool) bool {
		src := rng.New(seed)
		cfg, err := diffConfig(src)
		if err != nil {
			t.Fatalf("generator produced invalid config: %v", err)
		}
		a := MustNew(cfg)
		d := newDense(a)
		n := a.Masters()
		mode := Mode(src.Uint64() % 2)
		tua := int(src.Uint64() % uint64(n))
		sig := NewSignals(a, mode, tua)
		ds := newDenseSignals(d, mode, tua)
		check := func(what string) bool {
			if err := sameState(a, d, sig, ds); err != nil {
				t.Errorf("seed %d (%d masters, well-formed %v) after %s: %v", seed, n, wellFormed, what, err)
				return false
			}
			return true
		}
		if !check("New") {
			return false
		}
		for op := 0; op < 120; op++ {
			switch r := src.Uint64() % 100; {
			case r < 2:
				a.Reset()
				d.Reset()
				sig.Reset()
				ds.Reset()
				if !check("Reset") {
					return false
				}
				continue
			case r < 8:
				m := int(src.Uint64() % uint64(n))
				b := int64(src.Uint64() % uint64(a.Cap(m)+1))
				a.SetBudgetForTest(m, b)
				d.budget[m] = b
				if !check(fmt.Sprintf("SetBudgetForTest(%d,%d)", m, b)) {
					return false
				}
				continue
			case r < 30:
				// An idle stretch, per cycle or in one closed-form span.
				span := 1 + int64(src.Uint64()%(4*uint64(a.MaxHold())*uint64(n)))
				ready := src.Uint64()%2 == 0
				if src.Uint64()%2 == 0 {
					sig.Update(ready)
					ds.Update(ready)
					a.TickN(-1, span)
					d.TickN(-1, span)
					if !check(fmt.Sprintf("TickN(-1,%d)", span)) {
						return false
					}
					continue
				}
				for c := int64(0); c < span && c < 64; c++ {
					sig.Update(ready)
					ds.Update(ready)
					a.Tick(-1)
					d.Tick(-1)
					if !check("Tick(-1)") {
						return false
					}
				}
				continue
			}
			// A grant: a master holds the bus for a stretch.
			m := int(src.Uint64() % uint64(n))
			hold := 1 + int64(src.Uint64()%uint64(a.MaxHold()))
			if wellFormed {
				if !a.Eligible(m) {
					continue
				}
			} else {
				hold = 1 + int64(src.Uint64()%uint64(3*a.MaxHold()*int64(n)))
			}
			sig.OnGrant(m)
			ds.OnGrant(m)
			if src.Uint64()%2 == 0 {
				a.Tick(m)
				d.Tick(m)
				if !check(fmt.Sprintf("Tick(%d)", m)) {
					return false
				}
				if hold > 1 {
					a.TickN(m, hold-1)
					d.TickN(m, hold-1)
					if !check(fmt.Sprintf("TickN(%d,%d)", m, hold-1)) {
						return false
					}
				}
				continue
			}
			hold = min(hold, 3*a.MaxHold()) // per-cycle checks cost O(masters) each
			for c := int64(0); c < hold; c++ {
				ready := src.Uint64()%4 != 0
				sig.Update(ready)
				ds.Update(ready)
				a.Tick(m)
				d.Tick(m)
				if !check(fmt.Sprintf("Tick(%d) cycle %d/%d", m, c+1, hold)) {
					return false
				}
			}
		}
		if wellFormed && a.Underflows() != 0 {
			t.Errorf("seed %d: well-formed sequence underflowed %d times", seed, a.Underflows())
			return false
		}
		return true
	}
	count := 1000
	if testing.Short() {
		count = 100
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
}

// TestLazyAllocationFree pins the hot path at zero allocations on a warm
// 1024-master arbiter: the calendar is sized at New and never grows.
func TestLazyAllocationFree(t *testing.T) {
	cfg := Homogeneous(1024, 56)
	cfg.StartEmpty = make([]bool, 1024)
	cfg.StartEmpty[0] = true
	a := MustNew(cfg)
	sig := NewSignals(a, WCETMode, 0)
	holder := 1
	step := func() {
		// Rotate grants so every master is released into the calendar.
		for c := 0; c < 56; c++ {
			sig.Update(true)
			a.Tick(holder)
		}
		sig.OnGrant(holder)
		a.TickN(-1, 7)
		holder = 1 + holder%1023
	}
	for i := 0; i < 2048; i++ {
		step()
	}
	for name, fn := range map[string]func(){
		"Tick":           func() { a.Tick(holder); holder = 1 + holder%1023 },
		"TickN":          func() { a.TickN(holder, 3); holder = 1 + holder%1023 },
		"Signals.Update": func() { sig.Update(true) },
		"Reset":          a.Reset,
		"rotation":       step,
	} {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs per call on a warm arbiter, want 0", name, allocs)
		}
	}
}

// TestNewFootprint bounds what New allocates at 1024 masters: the anchors,
// the bitsets and the fixed-size calendar, about as much as the dense
// budget accounting needed (~60 KB).
func TestNewFootprint(t *testing.T) {
	cfg := Homogeneous(1024, 56)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := MustNew(cfg)
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 72<<10 {
		t.Errorf("core.New(1024 masters) allocates %d bytes, want ≤ %d", bytes, 72<<10)
	}
	runtime.KeepAlive(a)
}
