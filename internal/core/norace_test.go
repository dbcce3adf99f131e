//go:build !race

package core

// raceEnabled lets tests skip allocation budgets that race builds break.
const raceEnabled = false
