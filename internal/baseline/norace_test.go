//go:build !race

package baseline

// raceEnabled lets tests skip allocation budgets that race builds break.
const raceEnabled = false
