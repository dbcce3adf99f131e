package vtrace

import (
	"fmt"
	"sort"
	"strings"

	"github.com/slimio/slimio/internal/metrics"
	"github.com/slimio/slimio/internal/sim"
)

// Class buckets a stage into the three kinds of time the paper's §4 argues
// about: waiting in software queues, being serviced by CPU or device, or
// stalled behind garbage collection / reclaim.
type Class int

const (
	Service Class = iota
	Queue
	GC
)

func (c Class) String() string {
	switch c {
	case Queue:
		return "queue"
	case GC:
		return "gc"
	default:
		return "service"
	}
}

// classify maps a (layer, name) stage to its class by naming convention:
// stages that represent waiting carry "queue", "wait" or "throttle" in their
// name; GC/reclaim trees are named after the collector that runs them.
func classify(layer, name string) Class {
	switch {
	case strings.Contains(name, "queue"), strings.HasSuffix(name, ".wait"), strings.Contains(name, "throttle"):
		return Queue
	case layer == "fdp" && strings.Contains(name, "reclaim"):
		return GC
	default:
		return Service
	}
}

// StageStat is the aggregated self-time of one (layer, name) stage. Self
// time is the span's duration minus the sum of its children's durations, so
// within any span tree the stage self-times telescope exactly to the root's
// duration: Σ self = Σ dur − Σ child-dur = root dur. A stage whose children
// overlap in time (a command fanned out across NAND dies) can therefore show
// negative self time — that is the parallelism credit, not an error.
type StageStat struct {
	Layer string
	Name  string
	Class Class
	Count int64
	Self  sim.Duration
}

// OpStat decomposes one op type's end-to-end latency. Total is the exact
// sum of root-span durations; Stages partition it (Σ Stages[i].Self ==
// Total, an int64 identity asserted by tests).
type OpStat struct {
	Name   string
	Count  int64
	Total  sim.Duration
	Hist   metrics.Histogram
	Stages []StageStat
}

// Mean is the exact mean end-to-end latency for this op type.
func (o *OpStat) Mean() sim.Duration {
	if o.Count == 0 {
		return 0
	}
	return o.Total / sim.Duration(o.Count)
}

// Attribution is the per-layer latency breakdown of one cell's trace.
type Attribution struct {
	// Ops holds per-request decomposition: one entry per root span in the
	// "op" layer ("set", "get", "del"), sorted by name.
	Ops []OpStat
	// Trees holds the same decomposition for every non-op root tree (WAL
	// group flushes, snapshot chunks, writeback, GC), sorted by root name.
	Trees []OpStat
	// Stages aggregates self-time per (layer, name) over the whole trace,
	// in stack order — the device-path view.
	Stages []StageStat
}

// opAcc accumulates one op type or background tree: its root spans, and the
// self time of every site beneath them indexed by SiteID (Count 0 marks a
// site the group never reached).
type opAcc struct {
	op     OpStat
	stages []StageStat
}

// Compute builds the attribution report for one tracer. It relies on the
// recording invariant that a parent span is always created before its
// children (Begin returns the ID the children reference), so a single
// forward pass resolves every span's root. Groups and stages are keyed by
// SiteID; each site's strings are resolved once, not once per span.
func Compute(t *Tracer) *Attribution {
	a := &Attribution{}
	if t == nil {
		return a
	}
	spans := t.Spans()
	n := len(spans)
	childSum := make([]sim.Duration, n)
	rootOf := make([]int32, n)
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			rootOf[i] = int32(i)
		} else {
			p := int(s.Parent) - 1
			rootOf[i] = rootOf[p]
			childSum[p] += s.Dur()
		}
	}

	// Root spans group by name: op-layer roots into Ops, every other root
	// into Trees. accOf caches each root site's group.
	nsites := len(t.sites)
	ops := make(map[string]*opAcc)
	trees := make(map[string]*opAcc)
	accOf := make([]*opAcc, nsites)
	total := make([]StageStat, nsites)

	for i := range spans {
		s := &spans[i]
		rootSite := spans[rootOf[i]].Site
		g := accOf[rootSite]
		if g == nil {
			layer, name := t.Site(rootSite)
			groups := trees
			if layer == "op" {
				groups = ops
			}
			if g = groups[name]; g == nil {
				g = &opAcc{op: OpStat{Name: name}, stages: make([]StageStat, nsites)}
				groups[name] = g
			}
			accOf[rootSite] = g
		}
		if s.Parent == 0 {
			g.op.Count++
			g.op.Total += s.Dur()
			g.op.Hist.Record(s.Dur())
		}
		self := s.Dur() - childSum[i]
		g.stages[s.Site].Count++
		g.stages[s.Site].Self += self
		total[s.Site].Count++
		total[s.Site].Self += self
	}

	a.Ops = collectOps(t, ops)
	a.Trees = collectOps(t, trees)
	a.Stages = sortStages(t, total)
	return a
}

func collectOps(t *Tracer, groups map[string]*opAcc) []OpStat {
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]OpStat, 0, len(names))
	for _, name := range names {
		g := groups[name]
		g.op.Stages = sortStages(t, g.stages)
		out = append(out, g.op)
	}
	return out
}

// layerRank orders stages by stack depth (the layerOrder table), then name.
func layerRank(layer string) int {
	for i, l := range layerOrder {
		if l == layer {
			return i
		}
	}
	return len(layerOrder)
}

// sortStages names and classifies the reached sites of a per-site stage
// table and returns them in stack order.
func sortStages(t *Tracer, bySite []StageStat) []StageStat {
	var out []StageStat
	for id := range bySite {
		st := bySite[id]
		if st.Count == 0 {
			continue
		}
		st.Layer, st.Name = t.Site(SiteID(id))
		st.Class = classify(st.Layer, st.Name)
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := layerRank(out[i].Layer), layerRank(out[j].Layer)
		if ri != rj {
			return ri < rj
		}
		if out[i].Layer != out[j].Layer {
			return out[i].Layer < out[j].Layer
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ClassTotals sums self-time per class over a stage list: the headline
// "queueing vs device-service vs GC-stall" split.
func ClassTotals(stages []StageStat) (service, queue, gc sim.Duration) {
	for i := range stages {
		switch stages[i].Class {
		case Queue:
			queue += stages[i].Self
		case GC:
			gc += stages[i].Self
		default:
			service += stages[i].Self
		}
	}
	return
}

// Format renders the attribution as the text report printed by the exp
// harness and the CLI tools. All ordering is deterministic.
func (a *Attribution) Format() string {
	var b strings.Builder
	if len(a.Ops) == 0 && len(a.Trees) == 0 {
		b.WriteString("  (no spans recorded)\n")
		return b.String()
	}
	if len(a.Ops) > 0 {
		b.WriteString("  per-op end-to-end latency (submit -> reply):\n")
		fmt.Fprintf(&b, "    %-10s %10s %12s %12s %12s %12s\n", "op", "count", "mean", "p50", "p99", "p99.9")
		for i := range a.Ops {
			op := &a.Ops[i]
			fmt.Fprintf(&b, "    %-10s %10d %12v %12v %12v %12v\n",
				op.Name, op.Count, op.Mean(), op.Hist.P50(), op.Hist.P99(), op.Hist.P999())
		}
		for i := range a.Ops {
			formatOpStages(&b, &a.Ops[i])
		}
	}
	if len(a.Trees) > 0 {
		b.WriteString("  background trees (group flushes, snapshots, GC):\n")
		fmt.Fprintf(&b, "    %-16s %10s %12s %12s %12s\n", "tree", "count", "mean", "p99", "total")
		for i := range a.Trees {
			op := &a.Trees[i]
			fmt.Fprintf(&b, "    %-16s %10d %12v %12v %12v\n",
				op.Name, op.Count, op.Mean(), op.Hist.P99(), op.Total)
		}
		for i := range a.Trees {
			formatOpStages(&b, &a.Trees[i])
		}
	}
	return b.String()
}

func formatOpStages(b *strings.Builder, op *OpStat) {
	if op.Count == 0 || len(op.Stages) == 0 {
		return
	}
	service, queue, gc := ClassTotals(op.Stages)
	fmt.Fprintf(b, "  %s decomposition (service %v, queue %v, gc %v per op mean):\n",
		op.Name, service/sim.Duration(op.Count), queue/sim.Duration(op.Count), gc/sim.Duration(op.Count))
	fmt.Fprintf(b, "    %-24s %-8s %10s %12s %8s\n", "stage", "class", "count", "mean/op", "share")
	for i := range op.Stages {
		st := &op.Stages[i]
		var share float64
		if op.Total != 0 {
			share = float64(st.Self) / float64(op.Total) * 100
		}
		fmt.Fprintf(b, "    %-24s %-8s %10d %12v %7.1f%%\n",
			st.Layer+"/"+st.Name, st.Class, st.Count, st.Self/sim.Duration(op.Count), share)
	}
}
