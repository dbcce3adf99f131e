package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/slimio/slimio/internal/sim"
)

// Series accumulates event counts into fixed-width virtual-time intervals,
// producing rate-over-time data such as the runtime RPS plots in Figures 4
// and 5 of the paper.
type Series struct {
	interval sim.Duration
	counts   []int64
	dropped  int64
}

// NewSeries returns a Series with the given bucket width.
func NewSeries(interval sim.Duration) *Series {
	if interval <= 0 {
		panic("metrics: Series interval must be positive")
	}
	return &Series{interval: interval}
}

// MaxSeriesBuckets caps how many buckets a Series will grow to. A
// misconfigured interval (nanosecond buckets over a seconds-long run) would
// otherwise allocate an effectively unbounded slice; past the cap, samples
// are dropped and counted instead of extending the series.
const MaxSeriesBuckets = 1 << 22

// Add records n events at virtual time t. Samples at negative times or past
// the bucket cap are dropped (and reported via Errors): both indicate a
// misconfiguration, and neither is allowed to corrupt or OOM a run.
func (s *Series) Add(t sim.Time, n int64) {
	if t < 0 {
		s.dropped++
		return
	}
	idx := int(int64(t) / int64(s.interval))
	if idx >= MaxSeriesBuckets {
		s.dropped++
		return
	}
	for len(s.counts) <= idx {
		s.counts = append(s.counts, 0)
	}
	s.counts[idx] += n
}

// Errors reports how many Add calls were dropped for a negative time or an
// over-cap bucket index, with a nil error when there were none.
func (s *Series) Errors() (dropped int64, err error) {
	if s.dropped == 0 {
		return 0, nil
	}
	return s.dropped, fmt.Errorf("metrics: %d samples dropped (negative time or bucket index >= %d)", s.dropped, MaxSeriesBuckets)
}

// Interval reports the bucket width.
func (s *Series) Interval() sim.Duration { return s.interval }

// Len reports the number of buckets (including trailing zeros up to the last
// recorded event).
func (s *Series) Len() int { return len(s.counts) }

// Count returns the raw event count of bucket i.
func (s *Series) Count(i int) int64 {
	if i < 0 || i >= len(s.counts) {
		return 0
	}
	return s.counts[i]
}

// Rate returns bucket i's event rate in events per second.
func (s *Series) Rate(i int) float64 {
	return float64(s.Count(i)) / s.interval.Seconds()
}

// Total reports the sum of all recorded events.
func (s *Series) Total() int64 {
	var t int64
	for _, c := range s.counts {
		t += c
	}
	return t
}

// CSV renders the series as "t_seconds,rate" lines, the format consumed by
// external plotting of Figures 4-5.
func (s *Series) CSV() string {
	var b strings.Builder
	b.WriteString("t_seconds,rate_per_sec\n")
	for i := range s.counts {
		t := sim.Duration(i) * s.interval
		fmt.Fprintf(&b, "%.3f,%.1f\n", t.Seconds(), s.Rate(i))
	}
	return b.String()
}

// Counter is a named monotonic counter set. It is safe for concurrent use:
// one Counter is shared by every experiment cell, and the parallel cell
// scheduler runs cells on separate goroutines.
type Counter struct {
	mu   sync.Mutex
	vals map[string]int64
}

// Inc adds n to the named counter.
func (c *Counter) Inc(name string, n int64) {
	c.mu.Lock()
	if c.vals == nil {
		c.vals = make(map[string]int64)
	}
	c.vals[name] += n
	c.mu.Unlock()
}

// Get reads the named counter (0 if never incremented).
func (c *Counter) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vals[name]
}

// KV is one named counter value.
type KV struct {
	Key   string
	Value int64
}

// Sorted returns every counter as key-sorted pairs — the deterministic form
// every printing call site must use (map-order output is a lint violation;
// see DESIGN.md "Determinism contract").
func (c *Counter) Sorted() []KV {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.vals))
	for k := range c.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]KV, 0, len(keys))
	for _, k := range keys {
		out = append(out, KV{Key: k, Value: c.vals[k]})
	}
	return out
}
