// Fixture for the maporder pass: map iteration feeding ordered sinks
// fires; the collect-then-sort idiom, map copies, and deletes do not; and
// //slimio:allow suppresses. A collected slice the function never sorts is
// an ordered sink like any other.
package a

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

func badAppend(m map[string]int) []string {
	var out []string
	for k, v := range m { // want `appends to a slice`
		out = append(out, fmt.Sprintf("%s=%d", k, v))
	}
	return out
}

func badStream(m map[string]int, w *strings.Builder) {
	for k := range m { // want `writes to a stream`
		w.WriteString(k)
	}
}

func badPrint(m map[string]int) {
	for k := range m { // want `writes formatted output`
		fmt.Println(k)
	}
}

type scheduler struct{}

func (scheduler) Schedule(name string)    {}
func (scheduler) SpawnDaemon(name string) {}

func badSchedule(m map[string]int, s scheduler) {
	for k := range m { // want `schedules simulation work`
		s.Schedule(k)
	}
	for k := range m { // want `schedules simulation work`
		s.SpawnDaemon(k)
	}
}

func badSend(m map[string]int, ch chan string) {
	for k := range m { // want `sends on a channel`
		ch <- k
	}
}

func goodCollectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m { // the sanctioned idiom: sole statement collects the loop var
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return out
}

func goodCollectThenSlicesSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func badCollectWithoutSort(m map[string]int) []string {
	var keys []string
	for k := range m { // want `appends to a slice`
		keys = append(keys, k)
	}
	return keys
}

func badCollectSortOther(m map[string]int, other []string) []string {
	var keys []string
	for k := range m { // want `appends to a slice`
		keys = append(keys, k)
	}
	sort.Strings(other)
	return keys
}

func goodCopyAndDelete(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m { // map-to-map copy is order-insensitive
		out[k] = v
	}
	for k, v := range m { // deletes and arithmetic are order-insensitive
		if v == 0 {
			delete(out, k)
		}
	}
	return out
}

func goodIntSum(m map[string]int) int {
	var total int
	for _, v := range m { // integer accumulation is exact in any order
		total += v
	}
	return total
}

func allowed(m map[string]int) []string {
	var out []string
	//slimio:allow maporder fixture: proves the suppression path works
	for k := range m {
		out = append(out, k+"!")
	}
	return out
}
