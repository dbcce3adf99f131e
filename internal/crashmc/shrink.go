package crashmc

import (
	"fmt"

	"github.com/slimio/slimio/internal/sim"
)

// Shrink greedily minimizes a failing schedule to a smallest failing one,
// holding the cut instant fixed: first the workload prefix is halved while
// the oracle keeps failing, then walked down one op at a time. The
// simulation prefix before the cut only depends on ops that started before
// it, so the first phase usually collapses straight to the few ops the cut
// can observe; the decrement phase then squeezes whatever remains.
//
// It returns the smallest failing workload and the violation it produces
// (which a repro replay must reproduce bit-identically), or an error if
// the given schedule does not fail at cut in the first place.
func Shrink(tgt Target, w Workload, cut sim.Time) (Workload, *Violation, error) {
	fails := func(ops int) (*Violation, error) {
		w2 := w
		w2.Ops = ops
		return replay(tgt, w2, cut)
	}
	best, err := fails(w.Ops)
	if err != nil {
		return w, nil, err
	}
	if best == nil {
		return w, nil, fmt.Errorf("crashmc: shrink: schedule does not fail at cut %v", cut)
	}
	cur := w.Ops
	for _, step := range []func(int) int{func(n int) int { return n / 2 }, func(n int) int { return n - 1 }} {
		for cur > 1 {
			v, err := fails(step(cur))
			if err != nil {
				return w, nil, err
			}
			if v == nil {
				break
			}
			cur, best = step(cur), v
		}
	}
	w.Ops = cur
	return w, best, nil
}
