package core

import (
	"testing"
)

// FuzzCreditArbiterConfig builds arbiters from arbitrary configurations and
// asserts New's contract: it either returns a descriptive error or a fully
// valid arbiter — never a panic, never an arbiter that violates the budget
// invariants. Accepted arbiters are then driven through an arbitrary grant
// schedule, each span through either the bulk TickN or per-cycle Tick, and
// checked after every span against the dense per-cycle reference (budgets,
// eligibility, underflows) — the equivalence both the simulator's engines
// rely on.
func FuzzCreditArbiterConfig(f *testing.F) {
	f.Add(4, int64(56), []byte{1, 1, 1, 1}, int64(0), []byte{}, []byte{}, []byte{}, []byte{3, 7})
	f.Add(4, int64(56), []byte{3, 1, 1, 1}, int64(6), []byte{}, []byte{}, []byte{1, 0, 0, 0}, []byte{20, 1})
	f.Add(2, int64(1), []byte{1, 2}, int64(9), []byte{8}, []byte{12}, []byte{}, []byte{255, 0, 9})
	f.Add(0, int64(-5), []byte{}, int64(-1), []byte{0}, []byte{0}, []byte{1, 1, 1}, []byte{})
	f.Add(3, int64(64), []byte{9, 9, 9}, int64(100), []byte{200, 0, 3}, []byte{255, 255, 255}, []byte{0, 1}, []byte{4, 4, 4, 4})

	f.Fuzz(func(t *testing.T, masters int, maxHold int64, weights []byte,
		scale int64, thresholds, caps, startEmpty, schedule []byte) {
		cfg := Config{Masters: masters, MaxHold: maxHold, Scale: scale}
		for _, w := range weights {
			cfg.Weights = append(cfg.Weights, int64(w))
		}
		for _, v := range thresholds {
			cfg.EligibilityThreshold = append(cfg.EligibilityThreshold, maxHold*int64(v))
		}
		for _, v := range caps {
			cfg.Cap = append(cfg.Cap, maxHold*int64(v))
		}
		for _, v := range startEmpty {
			cfg.StartEmpty = append(cfg.StartEmpty, v&1 == 1)
		}

		arb, err := New(cfg) // must not panic on any input
		if err != nil {
			return
		}
		ref := newDense(MustNew(cfg)) // a config New accepted must stay acceptable

		n := arb.Masters()
		for i := 0; i < n; i++ {
			if b := arb.Budget(i); b < 0 || b > arb.Cap(i) {
				t.Fatalf("initial budget %d of master %d outside [0,%d]", b, i, arb.Cap(i))
			}
		}

		// Arbitrary holder schedule (including idle), lazy vs dense.
		for si := 0; si+1 < len(schedule); si += 2 {
			holder := int(schedule[si])%(n+1) - 1 // -1..n-1
			span := 1 + int64(schedule[si+1])%(2*spanBase(maxHold))
			if schedule[si]&0x80 == 0 {
				arb.TickN(holder, span)
			} else {
				for c := int64(0); c < span; c++ {
					arb.Tick(holder)
				}
			}
			for c := int64(0); c < span; c++ {
				ref.Tick(holder)
			}
			for i := 0; i < n; i++ {
				if arb.Budget(i) != ref.budget[i] {
					t.Fatalf("span (%d,%d) diverged from the dense reference on master %d: %d vs %d",
						holder, span, i, arb.Budget(i), ref.budget[i])
				}
				if arb.Eligible(i) != ref.eligible(i) {
					t.Fatalf("span (%d,%d): master %d eligible %v, dense %v", holder, span, i, arb.Eligible(i), ref.eligible(i))
				}
				if b := arb.Budget(i); b < 0 || b > arb.Cap(i) {
					t.Fatalf("budget %d of master %d outside [0,%d]", b, i, arb.Cap(i))
				}
			}
			if arb.Underflows() != ref.underflows {
				t.Fatalf("underflow accounting diverged: %d vs %d", arb.Underflows(), ref.underflows)
			}
		}
	})
}

// spanBase clamps the schedule span base to a sane positive value.
func spanBase(v int64) int64 {
	if v < 1 {
		return 1
	}
	if v > 1<<20 {
		return 1 << 20
	}
	return v
}
