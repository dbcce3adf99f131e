package crashmc

import (
	"sort"

	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
)

// CutPoint is one candidate crash instant, labelled with the event
// boundary that produced it. Two boundaries at the same virtual instant
// freeze the same device state, so the lattice is deduplicated by T; the
// label is for reports only.
type CutPoint struct {
	T    sim.Time
	Kind string
}

// latticeRecorder harvests candidate crash instants. It implements
// fault.Recorder for the device-level boundaries (page programs with their
// torn window, block erases; GC migrations are plain programs and erases)
// and receives the probe's return instants of backend calls and ops through
// mark. For a boundary at t it emits both t-1 and t: a cut at a program's
// completion instant keeps the page, one tick earlier tears it, and the
// same pre/post split brackets issue instants and returns.
type latticeRecorder struct {
	points []CutPoint
}

func (l *latticeRecorder) add(t sim.Time, kind string) {
	if t > 1 {
		l.points = append(l.points, CutPoint{T: t - 1, Kind: kind + ".pre"})
	}
	if t > 0 {
		l.points = append(l.points, CutPoint{T: t, Kind: kind})
	}
}

// RecordRead implements fault.Recorder. Reads change no durable state, so
// they are not harvested.
func (l *latticeRecorder) RecordRead(now sim.Time, ppa nand.PPA) {}

// RecordProgram implements fault.Recorder.
func (l *latticeRecorder) RecordProgram(start, done sim.Time, ppa nand.PPA) {
	l.add(start, "program.start")
	l.add(done, "program.done")
}

// RecordErase implements fault.Recorder.
func (l *latticeRecorder) RecordErase(now sim.Time, die, block int) {
	l.add(now, "erase")
}

// mark is the probe's hook for return instants.
func (l *latticeRecorder) mark(kind string, t sim.Time) { l.add(t, kind) }

// buildLattice orders the harvested points, appends the natural end of the
// run (a crash after quiescence), and deduplicates by instant. Points
// outside (0, end] are dropped: the engine cannot stop before time zero,
// and nothing happens past the end.
func buildLattice(points []CutPoint, end sim.Time) []CutPoint {
	pts := make([]CutPoint, 0, len(points)+1)
	pts = append(pts, points...)
	pts = append(pts, CutPoint{T: end, Kind: "end"})
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].T != pts[j].T {
			return pts[i].T < pts[j].T
		}
		return pts[i].Kind < pts[j].Kind
	})
	out := pts[:0]
	var last sim.Time = -1
	for _, p := range pts {
		if p.T <= 0 || p.T > end || p.T == last {
			continue
		}
		out = append(out, p)
		last = p.T
	}
	return out
}

// sampleLattice picks at most budget points by deterministic stride
// sampling (index i maps to i*len/budget), preserving order and always
// covering the full span. budget <= 0 selects the whole lattice.
func sampleLattice(lattice []CutPoint, budget int) []CutPoint {
	if budget <= 0 || budget >= len(lattice) {
		return lattice
	}
	out := make([]CutPoint, 0, budget)
	for i := 0; i < budget; i++ {
		out = append(out, lattice[i*len(lattice)/budget])
	}
	return out
}
