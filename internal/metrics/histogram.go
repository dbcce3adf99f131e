// Package metrics provides the measurement primitives shared by every
// experiment: log-bucketed latency histograms with high-percentile queries,
// fixed-interval time series (for runtime RPS plots), and simple counters.
// All values are virtual-time durations or plain counts; nothing here touches
// the wall clock.
package metrics

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/slimio/slimio/internal/sim"
)

// subBucketBits controls histogram resolution: each power-of-two range is
// split into 2^subBucketBits linear sub-buckets, giving a worst-case relative
// error of 2^-subBucketBits (≈0.8% with 7 bits), comparable to HdrHistogram
// at 2 significant digits.
const subBucketBits = 7

const subBuckets = 1 << subBucketBits

// Histogram records non-negative durations in logarithmic buckets and
// answers percentile queries. The zero value is ready to use.
type Histogram struct {
	counts [64 - subBucketBits][subBuckets]int64
	total  int64
	sum    sim.Duration
	min    sim.Duration
	max    sim.Duration
}

// Record adds one observation. Negative values are clamped to zero. A nil
// receiver is a no-op, so telemetry-off code paths can call through without
// branching (a nil telemetry.Cell hands out nil histograms).
func (h *Histogram) Record(d sim.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	if h.total == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.total++
	h.sum += d
	major, minor := bucketOf(int64(d))
	h.counts[major][minor]++
}

// bucketOf maps a value to its (major, minor) bucket. Bucket row 0 covers
// [0, subBuckets) at width 1; row m>=1 covers values whose most significant
// bit is at index subBucketBits+m-1, split into subBuckets linear sub-buckets
// of width 2^(m-1).
func bucketOf(v int64) (major, minor int) {
	if v < subBuckets {
		return 0, int(v)
	}
	e := 63 - bits.LeadingZeros64(uint64(v)) // MSB index, >= subBucketBits
	major = e - subBucketBits + 1
	minor = int(v>>uint(e-subBucketBits)) - subBuckets
	return major, minor
}

// bucketValue returns a representative (midpoint) duration for a bucket.
func bucketValue(major, minor int) int64 {
	if major == 0 {
		return int64(minor)
	}
	width := int64(1) << uint(major-1)
	lower := (int64(subBuckets) + int64(minor)) * width
	return lower + width/2
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total }

// Sum reports the sum of all observations.
func (h *Histogram) Sum() sim.Duration { return h.sum }

// Min reports the smallest observation, or 0 when empty.
func (h *Histogram) Min() sim.Duration {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest observation, or 0 when empty.
func (h *Histogram) Max() sim.Duration {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Mean reports the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() sim.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / sim.Duration(h.total)
}

// Percentile returns the value at or below which p percent of observations
// fall (p in [0,100]). Accuracy is bounded by the sub-bucket resolution,
// except for p high enough to select the final observation, where the exact
// recorded maximum is returned.
func (h *Histogram) Percentile(p float64) sim.Duration {
	if h.total == 0 {
		return 0
	}
	if p >= 100 {
		return h.max
	}
	if p < 0 {
		p = 0
	}
	rank := int64(math.Ceil(p / 100 * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for major := range h.counts {
		for minor, c := range h.counts[major] {
			seen += c
			if seen >= rank {
				if seen == h.total {
					// This bucket contains the max; report it exactly when
					// the query lands on the final observation.
					if rank == h.total {
						return h.max
					}
				}
				v := bucketValue(major, minor)
				if sim.Duration(v) > h.max {
					return h.max
				}
				if sim.Duration(v) < h.min {
					return h.min
				}
				return sim.Duration(v)
			}
		}
	}
	return h.max
}

// P50, P99 and P999 are shorthands for common tail-latency queries.
func (h *Histogram) P50() sim.Duration  { return h.Percentile(50) }
func (h *Histogram) P99() sim.Duration  { return h.Percentile(99) }
func (h *Histogram) P999() sim.Duration { return h.Percentile(99.9) }

// Merge adds all of other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.total == 0 {
		return
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.total += other.total
	h.sum += other.sum
	for major := range h.counts {
		for minor := range h.counts[major] {
			h.counts[major][minor] += other.counts[major][minor]
		}
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v p99.9=%v max=%v",
		h.total, h.Mean(), h.P50(), h.P99(), h.P999(), h.Max())
}
