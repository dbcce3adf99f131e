package exp

import "testing"

// TestPoolFootprintBudgets pins how many page segments a tiny Table-3 cell
// ever carves from its pool — the deterministic stand-in for peak RSS. The
// count follows live data only while two things hold: NAND drops a page's
// bytes when the FTL unmaps it (not when its block erases), and kernel-path
// writeback shares the cache page's segment instead of copying it. Each budget
// sits just above today's count (3801 and 3818) and below what losing either
// half costs (7421 on SlimIO; about 7500 on the baseline, 10375 with both gone).
func TestPoolFootprintBudgets(t *testing.T) {
	for _, b := range []struct {
		kind   BackendKind
		budget int64
	}{
		{SlimIOFDP, 4000},
		{BaselineF2FS, 4000},
	} {
		res := runTinyCell(t, b.kind)
		got := res.Stack.Pool().Allocated()
		if got > b.budget {
			t.Errorf("%v: pool carved %d segments, budget %d", b.kind, got, b.budget)
		}
		if err := res.ReleaseHeavy(); err != nil {
			t.Error(err)
		}
	}
}
