package main

import (
	"bufio"
	"fmt"
	"hash/crc64"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// reading is one metric's value with the samples behind it, so the spread is
// visible next to the median the contract line reports.
type reading struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	N        int       `json:"n"`
	Readings []float64 `json:"readings,omitempty"`
}

// summarize reports the median of vals with their quartiles.
func summarize(unit string, vals []float64) reading {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return reading{
		Value:    quantile(s, 0.5),
		Unit:     unit,
		Q1:       quantile(s, 0.25),
		Q3:       quantile(s, 0.75),
		N:        len(s),
		Readings: vals,
	}
}

// quantile interpolates linearly in sorted (which must be ascending).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// hostMark is a snapshot of the host-side meters at a phase boundary.
type hostMark struct {
	wall     time.Time
	cpu      time.Duration // process user+sys
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  uint64
}

// markHost reads the wall clock, getrusage and the allocator counters.
// ReadMemStats stops the world for microseconds; it is called only at phase
// boundaries, never inside a measured phase.
func markHost() hostMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	cpu := time.Duration(0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return hostMark{
		wall:     time.Now(),
		cpu:      cpu,
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  ms.PauseTotalNs,
	}
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// digest is an order-sensitive hash of byte strings; every writer feeds it in
// a deterministic order.
type digest uint64

func (d *digest) bytes(b []byte) { *d = digest(crc64.Update(uint64(*d), crcTable, b)) }
func (d *digest) str(s string)   { d.bytes([]byte(s)) }

// simDigest folds the simulated counts (sorted by name, full precision) and
// the store digest into one value that must repeat exactly wherever only
// host speed changed.
func simDigest(counts map[string]float64, store uint64) string {
	var d digest
	for _, name := range sortedKeys(counts) {
		d.str(name)
		d.str("=")
		d.str(strconv.FormatFloat(counts[name], 'g', -1, 64))
		d.str(";")
	}
	d.str(strconv.FormatUint(store, 16))
	return fmt.Sprintf("%016x", uint64(d))
}
