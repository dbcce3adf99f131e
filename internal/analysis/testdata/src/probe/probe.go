// Fixture for RunPackage: exercises the full driver flow —
// scoped analyzers, malformed //slimio:allow reporting, and suppression.
package probe

import "fmt"

//slimio:allow maporder
func Dump(m map[string]int) {
	for k := range m {
		fmt.Println(k)
	}
}

func Allowed(m map[string]int) {
	//slimio:allow maporder fixture: caller sorts the output downstream
	for k := range m {
		fmt.Println(k)
	}
}
