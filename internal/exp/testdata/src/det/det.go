// Deliberately violating fixture for the determinism contract:
// internal/analysis.TestDeterminismContract requires at least three of its
// passes to fire here (wallclock, globalrand, rawgoroutine and maporder
// do), so a contract run that finds nothing in the module is known to have
// run live passes.
package det

import (
	"fmt"
	"math/rand"
	"time"
)

func clock() time.Time {
	return time.Now()
}

func roll() int {
	return rand.Intn(6)
}

func fanOut() {
	go fmt.Println("untracked")
}

func printMap(m map[string]int) {
	for k := range m {
		fmt.Println(k)
	}
}
