// Package core implements Credit-Based Arbitration (CBA), the contribution
// of Slijepcevic et al., "Design and Implementation of a Fair Credit-Based
// Bandwidth Sharing Scheme for Buses" (DATE 2017).
//
// CBA is a filter in front of any slot-fair arbitration policy. Each bus
// master owns a budget measured in (scaled) cycles of bus occupancy:
//
//	Budget_i(t+1) = min(Budget_i(t) + 1/N, MaxL)          (paper Eq. 1)
//
// and the budget additionally decreases by 1 for every cycle master i holds
// the bus. Only masters whose budget is full (MaxL) are eligible for
// arbitration. Because a master that held the bus for L cycles must wait
// L*(N-1) cycles for its budget to refill, its long-run bandwidth share is
// capped at 1/N regardless of how long its individual requests are — this is
// fairness in cycles instead of fairness in slots.
//
// To keep the arithmetic integral the implementation scales Eq. 1 by S: all
// budgets gain their refill weight w_i per cycle (saturating at the cap) and
// the bus holder loses S per cycle. Homogeneous CBA uses w_i = 1, S = N and
// cap = S*MaxL; the paper's 4-core, MaxL = 56 instance is an 8-bit counter
// per core saturating at 224 (Table I prints 228 with the annotation "56x4";
// 56×4 = 224, so this implementation uses the arithmetically consistent
// value and leaves the cap configurable).
//
// Heterogeneous bandwidth allocation (H-CBA, §III.A) is supported both ways
// the paper describes:
//
//   - variant 1: raise one master's saturation cap above its eligibility
//     threshold (e.g. 2*S*MaxL), allowing back-to-back grants at the price
//     of temporal starvation of the others;
//   - variant 2: heterogeneous refill weights summing to S (e.g. w = {3,1,1,1},
//     S = 6 gives the paper's 1/2 vs 1/6 split).
package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"creditbus/internal/bitset"
)

// Config describes a CBA instance.
type Config struct {
	// Masters is the number of bus masters (cores). Required.
	Masters int

	// MaxHold is MaxL: the maximum (or upper bound of the) bus hold time of
	// any request, in cycles. Required.
	MaxHold int64

	// Weights holds the scaled per-cycle refill w_i of each master.
	// nil means homogeneous (all 1).
	Weights []int64

	// Scale is S, the scaled budget drain per cycle of bus occupancy.
	// 0 means the sum of Weights, which makes refill and drain balance at
	// full bus utilisation (Σ w_i = S ⇒ shares sum to 1).
	Scale int64

	// EligibilityThreshold is the scaled budget a master needs to be
	// arbitrable; nil means Scale*MaxHold for every master (the paper's
	// "budget of exactly MaxL").
	EligibilityThreshold []int64

	// Cap is the scaled saturation limit of each budget counter; nil means
	// equal to the eligibility threshold. Cap > threshold is H-CBA
	// variant 1: credit beyond one full request accumulates, allowing
	// back-to-back grants.
	Cap []int64

	// StartEmpty lists masters whose budget starts at zero instead of at
	// the cap. The paper's WCET-estimation mode starts the task under
	// analysis empty to delay its first request maximally (§III.B).
	StartEmpty []bool
}

// Arbiter is the credit-based arbitration filter. It tracks one scaled
// budget counter per master; the bus calls Tick once per cycle and consults
// Eligible / AndEligible / FilterEligible before handing masters to the
// underlying policy.
//
// Budgets are accounted lazily. Between grants a non-holder's budget is the
// saturating affine refill of Eq. 1, so each master stores only an anchor
// (base, since) and its budget at cycle now is min(cap, base + (now−since)·w)
// — computed when read, never stepped. Only the bus holder's anchor moves
// every cycle. The two budget predicates the bus consumes, eligibility
// (budget ≥ threshold) and saturation (budget = cap, the COMP latch
// condition), change for a non-holder only at fixed future cycles — its
// eligibility crossing since + ⌈(threshold−base)/w⌉ and its saturation
// crossing since + ⌈(cap−base)/w⌉ — which a calendar of pending crossings
// delivers as the clock passes them. Tick and TickN therefore cost
// O(1 + crossings), independent of the master count, and the bitsets are
// exact after every call, so the bus-side arbitration mask is a word AND.
type Arbiter struct {
	masters    int
	maxHold    int64
	scale      int64
	weights    []int64
	threshold  []int64
	cap        []int64
	startEmpty []bool
	underflows int64

	// now counts cycles since Reset. Master i's budget refilled from
	// base[i] starting at cycle since[i]; the held master's anchor is kept
	// at since = now.
	now   int64
	base  []int64
	since []int64
	// held is the master drained by the last Tick/TickN (its anchor is
	// current and it has no calendar entry), or -1.
	held int

	// eligibleBits mirrors budget ≥ threshold and satBits budget = cap, for
	// every master at cycle now.
	eligibleBits bitset.Set
	satBits      bitset.Set
	// cal holds the next pending crossing of every master that is neither
	// held nor saturated.
	cal calendar
}

// New validates cfg and builds the arbiter with all budgets at their initial
// level (cap, or zero for StartEmpty masters).
func New(cfg Config) (*Arbiter, error) {
	if cfg.Masters <= 0 {
		return nil, fmt.Errorf("core: Masters = %d, need > 0", cfg.Masters)
	}
	if cfg.MaxHold <= 0 {
		return nil, fmt.Errorf("core: MaxHold = %d, need > 0", cfg.MaxHold)
	}
	n := cfg.Masters

	weights := cfg.Weights
	if weights == nil {
		weights = make([]int64, n)
		for i := range weights {
			weights[i] = 1
		}
	} else {
		weights = append([]int64(nil), weights...)
	}
	if len(weights) != n {
		return nil, fmt.Errorf("core: len(Weights) = %d, want %d", len(weights), n)
	}
	var sum int64
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("core: Weights[%d] = %d, need > 0", i, w)
		}
		sum += w
	}

	scale := cfg.Scale
	if scale == 0 {
		scale = sum
	}
	if scale < sum {
		return nil, fmt.Errorf("core: Scale = %d below Σweights = %d would oversubscribe the bus", scale, sum)
	}
	for i, w := range weights {
		if w > scale {
			return nil, fmt.Errorf("core: Weights[%d] = %d exceeds Scale = %d", i, w, scale)
		}
	}

	threshold := cfg.EligibilityThreshold
	if threshold == nil {
		threshold = make([]int64, n)
		for i := range threshold {
			threshold[i] = scale * cfg.MaxHold
		}
	} else {
		threshold = append([]int64(nil), threshold...)
	}
	if len(threshold) != n {
		return nil, fmt.Errorf("core: len(EligibilityThreshold) = %d, want %d", len(threshold), n)
	}

	capSrc := cfg.Cap
	if capSrc == nil {
		capSrc = threshold
	}
	capacity := append([]int64(nil), capSrc...)
	if len(capacity) != n {
		return nil, fmt.Errorf("core: len(Cap) = %d, want %d", len(capacity), n)
	}
	for i := 0; i < n; i++ {
		// Eligibility must be reachable and cover one worst-case request:
		// a master granted at its threshold loses MaxHold*(scale-w_i) net,
		// which must not drive the budget negative.
		if threshold[i] <= 0 {
			return nil, fmt.Errorf("core: EligibilityThreshold[%d] = %d, need > 0", i, threshold[i])
		}
		if capacity[i] < threshold[i] {
			return nil, fmt.Errorf("core: Cap[%d] = %d below threshold %d", i, capacity[i], threshold[i])
		}
		if capacity[i] > math.MaxInt64-scale {
			return nil, fmt.Errorf("core: Cap[%d] = %d leaves no int64 headroom for a refill of up to Scale = %d",
				i, capacity[i], scale)
		}
		if need := cfg.MaxHold * (scale - weights[i]); threshold[i] < need {
			return nil, fmt.Errorf("core: EligibilityThreshold[%d] = %d cannot fund a MaxHold request (need ≥ %d)",
				i, threshold[i], need)
		}
	}

	startEmpty := cfg.StartEmpty
	if startEmpty == nil {
		startEmpty = make([]bool, n)
	} else {
		startEmpty = append([]bool(nil), startEmpty...)
	}
	if len(startEmpty) != n {
		return nil, fmt.Errorf("core: len(StartEmpty) = %d, want %d", len(startEmpty), n)
	}

	anchors := make([]int64, 2*n)
	a := &Arbiter{
		masters:      n,
		maxHold:      cfg.MaxHold,
		scale:        scale,
		weights:      weights,
		threshold:    threshold,
		cap:          capacity,
		startEmpty:   startEmpty,
		base:         anchors[:n:n],
		since:        anchors[n:],
		eligibleBits: bitset.New(n),
		satBits:      bitset.New(n),
		cal:          newCalendar(n),
	}
	a.Reset()
	return a, nil
}

// MustNew is New that panics on error, for tests and fixed configurations.
func MustNew(cfg Config) *Arbiter {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Homogeneous returns the paper's base configuration: n masters, equal
// weights, eligibility and saturation at n*maxHold.
func Homogeneous(n int, maxHold int64) Config {
	return Config{Masters: n, MaxHold: maxHold}
}

// HeterogeneousWeights returns an H-CBA variant-2 configuration where master
// privileged receives share num/den of the bandwidth and the remaining
// masters split the rest evenly. The paper's evaluation gives the task under
// analysis 1/2 and each of the 3 contenders 1/6: that is
// HeterogeneousWeights(4, maxHold, tua, 1, 2).
func HeterogeneousWeights(n int, maxHold int64, privileged int, num, den int64) (Config, error) {
	if n < 2 || privileged < 0 || privileged >= n {
		return Config{}, errors.New("core: invalid master count or privileged index")
	}
	if num <= 0 || den <= 0 || num >= den {
		return Config{}, fmt.Errorf("core: share %d/%d must be in (0,1)", num, den)
	}
	// Privileged share num/den; others (den-num)/(den*(n-1)) each.
	// Scale = den*(n-1) keeps everything integral.
	scale := den * int64(n-1)
	w := make([]int64, n)
	for i := range w {
		if i == privileged {
			w[i] = num * int64(n-1)
		} else {
			w[i] = den - num
		}
	}
	return Config{Masters: n, MaxHold: maxHold, Weights: w, Scale: scale}, nil
}

// HeterogeneousCap returns an H-CBA variant-1 configuration: homogeneous
// weights, but master privileged saturates at factor times the eligibility
// threshold, letting it bank enough credit for factor back-to-back
// worst-case requests.
func HeterogeneousCap(n int, maxHold int64, privileged int, factor int64) (Config, error) {
	if n < 2 || privileged < 0 || privileged >= n {
		return Config{}, errors.New("core: invalid master count or privileged index")
	}
	if factor < 2 {
		return Config{}, fmt.Errorf("core: cap factor %d must be ≥ 2", factor)
	}
	base := int64(n) * maxHold
	threshold := make([]int64, n)
	capacity := make([]int64, n)
	for i := range threshold {
		threshold[i] = base
		capacity[i] = base
	}
	capacity[privileged] = factor * base
	return Config{
		Masters: n, MaxHold: maxHold,
		EligibilityThreshold: threshold, Cap: capacity,
	}, nil
}

// Reset restores all budgets to their initial level.
func (a *Arbiter) Reset() {
	a.now = 0
	a.held = -1
	a.underflows = 0
	a.cal.clear()
	for i := range a.base {
		b := a.InitialBudget(i)
		a.base[i], a.since[i] = b, 0
		a.eligibleBits.Assign(i, b >= a.threshold[i])
		a.satBits.Assign(i, b >= a.cap[i])
		a.file(i)
	}
}

// Tick advances one cycle: every budget refills by its weight and the bus
// holder, if any, additionally drains Scale; the result saturates at the cap
// (and at zero). holder is -1 when the bus is idle.
//
// This is Table I with both columns applied at the same clock edge: BUDGi ←
// min(BUDGi + 1 − (using ? 4 : 0), 228). Saturating the combined result
// (rather than the increment alone) keeps the holder's net drain at exactly
// Scale−w_i per busy cycle even on the first cycle after saturation, so a
// full-budget master holding for MaxHold cycles lands at exactly
// threshold − MaxHold·(Scale−w_i) ≥ 0. Only the holder's anchor and the
// crossings the clock passes are touched: O(1 + crossings).
func (a *Arbiter) Tick(holder int) {
	if holder >= a.masters {
		panic(fmt.Sprintf("core: Tick holder %d out of range", holder))
	}
	a.advance(holder, 1)
}

// TickN applies n consecutive Ticks with a constant holder (or -1 for an
// idle bus) in closed form: non-holders refill lazily anyway, and the
// holder's budget falls by n·(Scale−w_i), clamping at zero. The
// event-horizon stepping engine (sim.Machine.Step) relies on this being
// bit-identical to calling Tick n times, including the underflow count:
// a holder driven below zero — unreachable from a well-formed bus, where
// holds are bounded by MaxHold and grants require a threshold budget —
// counts one underflow per clamped cycle, as Tick does.
func (a *Arbiter) TickN(holder int, n int64) {
	if n <= 0 {
		if n == 0 {
			return
		}
		panic(fmt.Sprintf("core: TickN with n = %d", n))
	}
	if holder >= a.masters {
		panic(fmt.Sprintf("core: TickN holder %d out of range", holder))
	}
	a.advance(holder, n)
}

// advance moves the clock n cycles with a constant holder (any negative
// value is an idle bus).
func (a *Arbiter) advance(holder int, n int64) {
	if holder < 0 {
		holder = -1
	}
	if holder != a.held {
		if a.held >= 0 {
			// The previous holder starts refilling from its current anchor.
			a.file(a.held)
		}
		if holder >= 0 {
			a.base[holder] = a.Budget(holder)
			a.since[holder] = a.now
			a.cal.remove(holder)
		}
		a.held = holder
	}
	a.now += n
	if holder >= 0 {
		a.drain(holder, n)
	}
	for a.cal.next() <= a.now {
		a.pass(a.cal.pop())
	}
}

// drain applies n holding cycles to the held master's current anchor: a net
// loss of Scale−w per cycle (never positive: New enforces w ≤ Scale),
// clamped at zero with one underflow counted per clamped cycle.
func (a *Arbiter) drain(m int, n int64) {
	b := a.base[m]
	if d := a.scale - a.weights[m]; d > 0 {
		if hi, lo := bits.Mul64(uint64(n), uint64(d)); hi == 0 && lo <= uint64(b) {
			b -= int64(lo)
		} else {
			// The budget funds b/d cycles; each later one clamps.
			a.underflows += n - b/d
			b = 0
		}
	}
	a.base[m], a.since[m] = b, a.now
	a.eligibleBits.Assign(m, b >= a.threshold[m])
	a.satBits.Assign(m, b >= a.cap[m])
}

// file calendars a non-held master's next crossing: eligibility first, then
// saturation. A crossing the clock has already reached is passed at once.
func (a *Arbiter) file(m int) {
	level := a.cap[m]
	if !a.eligibleBits.Test(m) {
		level = a.threshold[m]
	} else if a.satBits.Test(m) {
		return
	}
	if at := a.crossing(m, level); at > a.now {
		a.cal.push(m, at)
		return
	}
	a.pass(m)
}

// pass flips the bit of master m's calendared crossing, which the clock has
// reached, and files the next one. With cap = threshold both crossings are
// the same cycle.
func (a *Arbiter) pass(m int) {
	if a.eligibleBits.Test(m) || a.cap[m] == a.threshold[m] {
		a.eligibleBits.Set(m)
		a.satBits.Set(m)
		return
	}
	a.eligibleBits.Set(m)
	a.file(m)
}

// crossing returns the first cycle at which master m's refill from its
// anchor reaches level (> base), saturating at math.MaxInt64.
func (a *Arbiter) crossing(m int, level int64) int64 {
	w := a.weights[m]
	k := (level - a.base[m] + w - 1) / w // no overflow: New bounds cap ≤ MaxInt64−Scale
	if k > math.MaxInt64-a.since[m] {
		return math.MaxInt64
	}
	return a.since[m] + k
}

// CyclesUntilEligible returns how many refill-only cycles master m needs
// before Eligible(m) becomes true: 0 if it already is, otherwise
// ceil((threshold − budget)/w_m). "Refill-only" means m does not hold the
// bus in the meantime (the caller's concern on an idle or otherwise-held
// bus).
func (a *Arbiter) CyclesUntilEligible(m int) int64 {
	return a.cyclesUntil(m, a.threshold[m])
}

// CyclesUntilSaturated returns how many refill-only cycles master m needs
// for its budget to reach the saturation cap — the budget half of the
// Table I COMP latch condition.
func (a *Arbiter) CyclesUntilSaturated(m int) int64 {
	return a.cyclesUntil(m, a.cap[m])
}

// cyclesUntil is the refill distance from m's current budget to level.
func (a *Arbiter) cyclesUntil(m int, level int64) int64 {
	short := level - a.Budget(m)
	if short <= 0 {
		return 0
	}
	w := a.weights[m]
	return (short + w - 1) / w
}

// Eligible reports whether master m currently has enough budget to be
// arbitrated (budget ≥ eligibility threshold; with the default config the
// threshold equals the cap, so this is the paper's "budget of exactly
// MaxL").
func (a *Arbiter) Eligible(m int) bool { return a.eligibleBits.Test(m) }

// FilterEligible writes pending ∧ eligible into out (which may alias
// pending) and returns out. Both slices must have Masters entries.
func (a *Arbiter) FilterEligible(pending, out []bool) []bool {
	for i := 0; i < a.masters; i++ {
		out[i] = pending[i] && a.Eligible(i)
	}
	return out
}

// AndEligible intersects dst with the budget-eligibility set in place: the
// word-level form of FilterEligible the bus's arbitration mask is built
// from. dst must have bitset.Words(Masters()) words.
func (a *Arbiter) AndEligible(dst bitset.Set) { dst.And(a.eligibleBits) }

// Budget returns master m's current scaled budget, materialised from its
// anchor. Below saturation the refill term is exact: it stays under
// cap − base, so it cannot overflow.
func (a *Arbiter) Budget(m int) int64 {
	if a.satBits.Test(m) {
		return a.cap[m]
	}
	return a.base[m] + (a.now-a.since[m])*a.weights[m]
}

// InitialBudget returns master m's scaled budget at Reset: zero for
// StartEmpty masters (the WCET-mode TuA), the saturation cap otherwise.
// Budget-conservation oracles need it as the starting point of the identity
// budget(t) ≤ InitialBudget + t·w_m − S·held_m(t).
func (a *Arbiter) InitialBudget(m int) int64 {
	if a.startEmpty[m] {
		return 0
	}
	return a.cap[m]
}

// BudgetCycles returns master m's budget converted to cycles of bus
// occupancy it could fund (floor of budget / scale).
func (a *Arbiter) BudgetCycles(m int) int64 { return a.Budget(m) / a.scale }

// Masters returns the number of masters.
func (a *Arbiter) Masters() int { return a.masters }

// MaxHold returns MaxL.
func (a *Arbiter) MaxHold() int64 { return a.maxHold }

// Scale returns S, the scaled drain per busy cycle.
func (a *Arbiter) Scale() int64 { return a.scale }

// Weight returns master m's scaled refill weight.
func (a *Arbiter) Weight(m int) int64 { return a.weights[m] }

// Cap returns master m's scaled saturation cap.
func (a *Arbiter) Cap(m int) int64 { return a.cap[m] }

// Threshold returns master m's scaled eligibility threshold.
func (a *Arbiter) Threshold(m int) int64 { return a.threshold[m] }

// Underflows returns how many times a drain was clamped at zero; it is 0 in
// any well-formed system (holds bounded by MaxHold, grants only to eligible
// masters).
func (a *Arbiter) Underflows() int64 { return a.underflows }

// Share returns master m's guaranteed long-run bandwidth share, w_i/S.
// This is the bandwidth-fairness theorem of §III: a master continuously
// requesting receives exactly this fraction of bus cycles, independent of
// its request length.
func (a *Arbiter) Share(m int) float64 {
	return float64(a.weights[m]) / float64(a.scale)
}

// RefillCycles returns how many cycles master m needs to regain eligibility
// after holding the bus for hold cycles starting from a full (threshold)
// budget: ceil(hold*(S-w_i)/w_i).
func (a *Arbiter) RefillCycles(m int, hold int64) int64 {
	net := hold * (a.scale - a.weights[m])
	w := a.weights[m]
	return (net + w - 1) / w
}

// WorstCaseWait bounds the cycles an eligible, pending request of master m
// can wait before being granted, assuming a work-conserving underlying
// policy (any of the package arbiter policies except TDMA).
//
// The bound is a budget-conservation ("energy") argument: while m waits, the
// bus is never idle (work conservation would otherwise grant m), so every
// cycle drains Scale from some other master's budget. Master j's total
// occupancy H_j over a window of W cycles satisfies
//
//	Scale*H_j ≤ Cap_j + W*w_j      (budget starts ≤ Cap_j, ends ≥ 0)
//
// and Σ_{j≠m} H_j ≥ W, which yields
//
//	W ≤ Σ_{j≠m} Cap_j / (Scale − Σ_{j≠m} w_j).
//
// The denominator is ≥ w_m > 0 because Σ w ≤ Scale. One extra cycle covers
// arbitration. The bound is conservative (the grant-at-threshold rule makes
// real waits much shorter — see the starvation tests) but it is sound for
// every CBA variant, including H-CBA caps above the eligibility threshold.
func (a *Arbiter) WorstCaseWait(m int) int64 {
	var capSum, wSum int64
	for j := 0; j < a.masters; j++ {
		if j == m {
			continue
		}
		capSum += a.cap[j]
		wSum += a.weights[j]
	}
	denom := a.scale - wSum
	if denom <= 0 {
		// Unreachable: New enforces Σ weights ≤ Scale and weights > 0.
		panic("core: non-positive starvation denominator")
	}
	return (capSum+denom-1)/denom + 1
}

// SetBudgetForTest overrides master m's budget; tests use it to explore
// boundary states without simulating the refill preamble.
func (a *Arbiter) SetBudgetForTest(m int, b int64) {
	if b < 0 || b > a.cap[m] {
		panic("core: SetBudgetForTest out of range")
	}
	a.cal.remove(m)
	a.base[m], a.since[m] = b, a.now
	a.eligibleBits.Assign(m, b >= a.threshold[m])
	a.satBits.Assign(m, b >= a.cap[m])
	if m != a.held {
		a.file(m)
	}
}
