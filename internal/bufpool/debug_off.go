//go:build !race

package bufpool

// debugInfo is empty in non-race builds; the field on Segment stays nil and
// the hooks below compile to nothing, keeping the hot path allocation-free.
type debugInfo struct{}

// raceEnabled lets tests skip allocation budgets that the race-mode site
// tracking deliberately breaks.
const raceEnabled = false

func debugAcquire(*Segment) {}

func debugRelease(*Segment) {}

func debugPoison(*Segment) {}

func debugDump(*Segment) string { return "" }
