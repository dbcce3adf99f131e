package exp

import (
	"fmt"
	"strings"

	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/vtrace"
)

// InspectResult is the device-state report (beyond the paper): Table 3's
// Periodical-Log cell on SlimIO with and without FDP, each dumped the way a
// storage engineer would inspect the real system — backend counters,
// snapshot slot roles, device write volumes, per-PID placement, reclaim-unit
// occupancy, the reclaim log and wear.
type InspectResult struct {
	cells []inspectCell
}

// inspectCell is one stack's rendered report. rusReclaimed is kept beside
// the text so a test can hold the printed reclaim log to the counter.
type inspectCell struct {
	kind         BackendKind
	report       string
	rusReclaimed int64
}

// RunInspect runs the inspection cells. A traced run (Scale.Trace set) also
// gets each cell's span volume and per-layer latency attribution.
func RunInspect(sc Scale) (*InspectResult, error) {
	kinds := []BackendKind{SlimIOFDP, SlimIOConv}
	out := &InspectResult{cells: make([]inspectCell, len(kinds))}
	cfg := redisBenchCell(sc)
	cfg.Policy = imdb.PeriodicalLog
	err := runCells(len(kinds), sc.Parallel, func(i int) error {
		cfg := cfg
		cfg.Kind = kinds[i]
		res, err := RunCell(cfg)
		if err != nil {
			return err
		}
		out.cells[i] = inspect(res)
		res.Stack.Eng.Shutdown()
		return res.ReleaseHeavy()
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (r *InspectResult) String() string {
	reports := make([]string, len(r.cells))
	for i, c := range r.cells {
		reports[i] = c.report
	}
	return strings.Join(reports, "\n")
}

// inspect renders one finished cell; it needs the cell's stack, so it runs
// before ReleaseHeavy.
func inspect(res *CellResult) inspectCell {
	var b strings.Builder
	sc := res.config.Scale
	fmt.Fprintf(&b, "== run ==\n")
	fmt.Fprintf(&b, "stack          %s (%s)\n", res.config.Kind, sc.Name)
	fmt.Fprintf(&b, "duration       %v (virtual)\n", res.duration)
	fmt.Fprintf(&b, "avg RPS        %.0f\n", res.AvgRPS)
	fmt.Fprintf(&b, "snapshots      %d (mean %v)\n", len(res.Snapshots), res.MeanSnapshotTime)
	fmt.Fprintf(&b, "SET p99.9      %v\n", res.SetP999)

	slim := res.Stack.Slim
	st := slim.Stats()
	fmt.Fprintf(&b, "\n== SlimIO backend ==\n")
	fmt.Fprintf(&b, "WAL page writes     %d (+%d tail rewrites)\n", st.WALPageWrites, st.WALTailRewrites)
	fmt.Fprintf(&b, "snapshot pages      %d\n", st.SnapshotPageWrites)
	fmt.Fprintf(&b, "metadata writes     %d\n", st.MetadataWrites)
	fmt.Fprintf(&b, "promotions          %d\n", st.Promotions)
	fmt.Fprintf(&b, "WAL resets          %d\n", st.WALResets)
	fmt.Fprintf(&b, "deallocated pages   %d\n", st.DeallocatedPages)
	fmt.Fprintf(&b, "\nsnapshot slots:\n")
	for _, s := range slim.Slots() {
		fmt.Fprintf(&b, "  slot %d  %-13s start=%-8d pages=%-7d used=%d bytes\n",
			s.Index, s.Role, s.Start, s.Pages, s.Used)
	}

	dev := res.Stack.Dev
	d := dev.Stats()
	fmt.Fprintf(&b, "\n== device ==\n")
	fmt.Fprintf(&b, "host writes    %d pages\n", d.HostWritePages)
	fmt.Fprintf(&b, "nand writes    %d pages\n", d.NANDWritePages)
	fmt.Fprintf(&b, "GC copies      %d pages\n", d.GCCopiedPages)
	fmt.Fprintf(&b, "GC runs        %d (busy %v)\n", d.GCRuns, d.GCBusy)
	fmt.Fprintf(&b, "WAF            %.4f\n", d.WAF())

	// Both device kinds are the one line-based FTL; the conventional one
	// funnels every write into a single placement stream.
	var ftl *fdp.FTL
	switch f := dev.FTL().(type) {
	case *fdp.FTL:
		ftl = f
		fmt.Fprintf(&b, "\n== FDP FTL ==\n")
	case *fdp.Conventional:
		ftl = f.FTL
		fmt.Fprintf(&b, "\n== conventional FTL (line-based, single stream) ==\n")
	}
	fs := ftl.Stats()
	fmt.Fprintf(&b, "RUs reclaimed  %d (%d without any copy)\n", fs.RUsReclaimed, fs.RUsReclaimedEmpty)
	fmt.Fprintf(&b, "writes by PID:\n")
	for _, pc := range fs.PIDWrites() {
		if pc.HostWrites > 0 || pc.GCCopies > 0 {
			fmt.Fprintf(&b, "  PID %d: %d pages (%d GC copies)\n", pc.PID, pc.HostWrites, pc.GCCopies)
		}
	}
	usage := ftl.Usage()
	states := map[string]int{}
	for _, u := range usage {
		states[u.State]++
	}
	fmt.Fprintf(&b, "reclaim units: %d free, %d open, %d closed\n",
		states["free"], states["open"], len(usage)-states["free"]-states["open"])
	fmt.Fprintf(&b, "non-free units (valid/total pages):\n")
	for _, u := range usage {
		if u.State != "free" {
			fmt.Fprintf(&b, "  RU %3d %-6s pid=%d %5d/%d\n", u.ID, u.State, u.PID, u.Valid, u.Total)
		}
	}

	// The FTL retains the first few thousand reclaims; a longer run says so.
	log := ftl.ReclaimLog()
	fmt.Fprintf(&b, "\n== reclaim log (%d of %d reclaims) ==\n", len(log), fs.RUsReclaimed)
	if len(log) == 0 {
		fmt.Fprintf(&b, "(empty: no reclaim unit was reclaimed)\n")
	}
	for _, ev := range log {
		fmt.Fprintf(&b, "  at %-12v RU %3d pid=%d copied %5d pages, done after %v\n",
			ev.At, ev.RU, ev.PID, ev.ValidCopied, ev.Done.Sub(ev.At))
	}

	w := ftl.Array().Wear()
	fmt.Fprintf(&b, "\n== wear ==\n")
	fmt.Fprintf(&b, "block erases   min=%d max=%d mean=%.2f total=%d\n",
		w.MinErases, w.MaxErases, w.MeanErases, w.TotalErases)

	if tr := res.trace; tr != nil {
		fmt.Fprintf(&b, "\n== spans ==\n")
		fmt.Fprintf(&b, "spans %d, instants %d, dropped %d\n", len(tr.Spans()), len(tr.Events()), tr.Dropped())
		fmt.Fprintf(&b, "\nLatency attribution:\n")
		b.WriteString(vtrace.Compute(tr).Format())
	}
	return inspectCell{kind: res.config.Kind, report: b.String(), rusReclaimed: fs.RUsReclaimed}
}
