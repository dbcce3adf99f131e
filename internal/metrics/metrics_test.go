package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/slimio/slimio/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.P999() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramSingle(t *testing.T) {
	var h Histogram
	h.Record(42 * sim.Microsecond)
	for _, p := range []float64{0, 50, 99, 99.9, 100} {
		if got := h.Percentile(p); got != 42*sim.Microsecond {
			t.Fatalf("p%v = %v, want 42µs", p, got)
		}
	}
	if h.Mean() != 42*sim.Microsecond {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	// Values below subBuckets land in width-1 buckets: exact percentiles.
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Record(sim.Duration(i))
	}
	if got := h.Percentile(50); got != 50 {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if got := h.Percentile(99); got != 99 {
		t.Fatalf("p99 = %v, want 99", got)
	}
	if got := h.Max(); got != 100 {
		t.Fatalf("max = %v, want 100", got)
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	var vals []int64
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~6 decades, typical of latency data.
		v := int64(math.Exp(rng.Float64()*14)) + 1
		vals = append(vals, v)
		h.Record(sim.Duration(v))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, p := range []float64{50, 90, 99, 99.9} {
		rank := int(math.Ceil(p/100*float64(len(vals)))) - 1
		exact := float64(vals[rank])
		got := float64(h.Percentile(p))
		if relErr := math.Abs(got-exact) / exact; relErr > 0.02 {
			t.Errorf("p%v: got %v, exact %v, rel err %.3f > 2%%", p, got, exact, relErr)
		}
	}
}

func TestHistogramRecordNegativeClamps(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative record: min=%v max=%v n=%d", h.Min(), h.Max(), h.Count())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Record(sim.Duration(10))
		b.Record(sim.Duration(1000))
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 10 || a.Max() != 1000 {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	if got := a.Percentile(25); got != 10 {
		t.Fatalf("merged p25 = %v, want 10", got)
	}
	if got := float64(a.Percentile(75)); math.Abs(got-1000)/1000 > 0.01 {
		t.Fatalf("merged p75 = %v, want ~1000", got)
	}
	var empty Histogram
	a.Merge(&empty) // must be a no-op
	if a.Count() != 200 {
		t.Fatal("merging empty changed count")
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear")
	}
}

// Property: percentile is within resolution bounds and monotone in p, and
// min <= p(x) <= max always.
func TestHistogramProperties(t *testing.T) {
	prop := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		for i := 0; i < n; i++ {
			h.Record(sim.Duration(rng.Int63n(1 << 40)))
		}
		prev := sim.Duration(-1)
		for p := 0.0; p <= 100; p += 7.3 {
			v := h.Percentile(p)
			if v < h.Min() || v > h.Max() || v < prev {
				return false
			}
			prev = v
		}
		return h.Percentile(100) == h.Max()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketRoundTrip(t *testing.T) {
	prop := func(raw uint64) bool {
		v := int64(raw % (1 << 50))
		major, minor := bucketOf(v)
		rep := bucketValue(major, minor)
		if v < subBuckets {
			return rep == v
		}
		// Representative must be within one sub-bucket width of v.
		return math.Abs(float64(rep-v))/float64(v) <= 1.0/subBuckets
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries(sim.Second)
	s.Add(0, 5)
	s.Add(sim.Time(1500*sim.Millisecond), 10)
	s.Add(sim.Time(1900*sim.Millisecond), 10)
	s.Add(sim.Time(4*sim.Second), 1)
	if s.Len() != 5 {
		t.Fatalf("len = %d, want 5", s.Len())
	}
	if s.Count(0) != 5 || s.Count(1) != 20 || s.Count(2) != 0 || s.Count(4) != 1 {
		t.Fatalf("counts = %d,%d,%d,%d", s.Count(0), s.Count(1), s.Count(2), s.Count(4))
	}
	if s.Rate(1) != 20 {
		t.Fatalf("rate(1) = %v, want 20/s", s.Rate(1))
	}
	if s.Total() != 26 {
		t.Fatalf("total = %d", s.Total())
	}
}

func TestSeriesOutOfRange(t *testing.T) {
	s := NewSeries(sim.Second)
	if s.Count(3) != 0 || s.Rate(-1) != 0 {
		t.Fatal("out-of-range buckets must read 0")
	}
}

func TestSeriesCSV(t *testing.T) {
	s := NewSeries(sim.Second)
	s.Add(0, 3)
	csv := s.CSV()
	want := "t_seconds,rate_per_sec\n0.000,3.0\n"
	if csv != want {
		t.Fatalf("csv = %q, want %q", csv, want)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	if c.Get("x") != 0 {
		t.Fatal("unset counter must be 0")
	}
	c.Inc("x", 2)
	c.Inc("x", 3)
	c.Inc("y", 1)
	if c.Get("x") != 5 || c.Get("y") != 1 {
		t.Fatalf("x=%d y=%d", c.Get("x"), c.Get("y"))
	}
}
