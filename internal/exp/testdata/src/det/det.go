// Deliberately violating fixture for slimio-vet's determinism contract on
// itself: the driver's double-run test lints this package twice and
// requires byte-identical output, and the SARIF test feeds the same
// findings through the exporter. Several passes fire here (wallclock,
// globalrand, rawgoroutine, maporder) so the global (file, offset, pass)
// ordering is actually exercised.
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
