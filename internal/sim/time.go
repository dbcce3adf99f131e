// Package sim implements the deterministic discrete-event simulation (DES)
// kernel that every other subsystem in this repository runs on.
//
// The simulation advances a virtual nanosecond clock by executing events in
// (time, sequence) order. User logic runs either as lightweight callbacks
// (for purely reactive components such as device timelines) or as processes:
// coroutines that the engine resumes one at a time on the goroutine that
// called Run, so that the whole simulation is single-threaded and
// bit-reproducible regardless of GOMAXPROCS.
//
// Processes must block only through sim primitives (Sleep, Resource.Acquire,
// Signal.Wait, Queue.Pop, ...). Blocking on ordinary Go channels or mutexes
// from inside a process deadlocks the engine by construction.
package sim

import "fmt"

// Time is an absolute virtual timestamp in nanoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units, mirroring package time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the timestamp d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as fractional seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Seconds reports d as fractional seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports d as fractional milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Microseconds reports d as fractional microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", d.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// DurationForBytes returns the time needed to move n bytes at a bandwidth of
// bytesPerSec, rounding up to a whole nanosecond. A non-positive bandwidth
// yields zero cost, which lets cost models disable a term.
func DurationForBytes(n int64, bytesPerSec int64) Duration {
	if bytesPerSec <= 0 || n <= 0 {
		return 0
	}
	// ns = n * 1e9 / bw, computed to avoid overflow for large n.
	whole := n / bytesPerSec
	rem := n % bytesPerSec
	ns := whole*int64(Second) + (rem*int64(Second)+bytesPerSec-1)/bytesPerSec
	return Duration(ns)
}
