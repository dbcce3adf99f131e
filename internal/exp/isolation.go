package exp

import (
	"errors"
	"fmt"
	"strings"

	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/metrics"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/workload"
)

// tenantRow is one tenant's share of an isolation cell: host write volume,
// the GC copies billed to its placement streams (unattributable on the
// shared baseline), its own WAF, and its SET tail latency.
type tenantRow struct {
	Tenant string
	Role   string // "noisy" or "steady"
	Ops    int64
	// HostPages counts pages the tenant wrote through its namespace.
	HostPages int64
	// GCCopies is the reclaim-copy count billed to the tenant's leased
	// PIDs; -1 when the placement mode cannot attribute (shared stream).
	GCCopies int64
	WAF      float64
	SetP99   sim.Duration
}

// isolationCell is one placement mode's result: the device-global WAF and
// every tenant's row.
type isolationCell struct {
	// Kind is the stack every tenant ran; PlacementLabel names it in reports.
	Kind      BackendKind
	DeviceWAF float64
	Rows      []tenantRow
}

// IsolationResult is the multi-tenant isolation experiment: the same tenant
// mix run twice, on the shared-PID baseline (SlimIOConv) and under per-tenant
// FDP leases (SlimIOFDP).
type IsolationResult struct {
	tenants int
	noisy   bool
	cells   []*isolationCell // shared-pid first, per-tenant-fdp second
}

func (r *IsolationResult) String() string {
	var b strings.Builder
	mix := "all steady"
	if r.noisy {
		mix = "tenant0 noisy"
	}
	fmt.Fprintf(&b, "Isolation: %d co-located engines, one device (%s)\n", r.tenants, mix)
	fmt.Fprintf(&b, "%-16s %-10s %-8s %10s %10s %10s %8s %12s\n",
		"Placement", "Tenant", "Role", "Ops", "HostPages", "GCCopies", "WAF", "SET p99")
	for _, c := range r.cells {
		placement := PlacementLabel(c.Kind)
		for _, row := range c.Rows {
			gc := "-"
			if row.GCCopies >= 0 {
				gc = fmt.Sprintf("%d", row.GCCopies)
			}
			fmt.Fprintf(&b, "%-16s %-10s %-8s %10d %10d %10s %8.2f %10dus\n",
				placement, row.Tenant, row.Role, row.Ops, row.HostPages, gc,
				row.WAF, int64(row.SetP99)/int64(sim.Microsecond))
		}
		fmt.Fprintf(&b, "%-16s %-10s %-8s %10s %10s %10s %8.2f\n",
			placement, "(device)", "", "", "", "", c.DeviceWAF)
	}
	return b.String()
}

// RunIsolation runs the noisy-neighbor isolation experiment: tenants
// co-located SlimIO engines on one shared device, once with every tenant's
// writes funneled into the shared placement stream (the conventional-FTL
// consolidation baseline) and once with per-tenant FDP leases. When noisy,
// tenant 0 is a Zipf-heavy overwriter with double the per-tenant operation
// budget; the rest are steady uniform writers. Cells run under the shared
// parallel harness, so results are byte-identical at any Scale.Parallel.
func RunIsolation(sc Scale, tenants int, noisy bool) (*IsolationResult, error) {
	if tenants < 2 {
		tenants = 2
	}
	kinds := []BackendKind{SlimIOConv, SlimIOFDP}
	out := &IsolationResult{tenants: tenants, noisy: noisy, cells: make([]*isolationCell, len(kinds))}
	err := runCells(len(kinds), sc.Parallel, func(i int) error {
		cell, err := runIsolationCell(kinds[i], tenants, noisy, sc)
		if err != nil {
			return err
		}
		out.cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// isolationWorkload builds tenant idx's driver profile. The per-tenant op
// and key budgets divide the scale's volume so the experiment's total write
// volume matches a single-tenant run — and so each tenant's dataset (hence
// its compressed snapshot image) shrinks with its slot, keeping the
// image-fits-slot invariant at every scale. The noisy tenant gets twice the
// op budget over a quarter of its keyspace, which is what makes it noisy.
func isolationWorkload(idx, tenants int, noisy bool, sc Scale) (workload.Config, string) {
	ops := sc.OpsPerRep / int64(tenants)
	if ops < 1 {
		ops = 1
	}
	keys := sc.KeyRange / int64(tenants)
	if keys < 1 {
		keys = 1
	}
	if noisy && idx == 0 {
		hot := keys / 4
		if hot < 1 {
			hot = 1
		}
		return workload.NoisyNeighbor(ops*2, hot), "noisy"
	}
	wl := workload.SteadyTenant(ops, keys)
	wl.Seed += int64(idx) * 104729 // distinct key streams per steady tenant
	return wl, "steady"
}

// runIsolationCell runs one placement mode: build the multi-tenant stack,
// drive every tenant's workload concurrently on the one engine, and roll up
// the per-tenant attribution.
func runIsolationCell(kind BackendKind, tenants int, noisy bool, sc Scale) (*isolationCell, error) {
	eng := sim.NewEngine()
	label := "isolation/" + PlacementLabel(kind)
	tele, attach, finish := sc.observeCell(label)
	defer finish()

	// Per-tenant sizing: each tenant owns 1/tenants of the device, so its
	// snapshot slots and WAL-snapshot trigger shrink by the same factor.
	// Beyond two tenants the shared device grows proportionally (every
	// tenant keeps a half-scale droplet): each tenant pins tenantPIDs open
	// reclaim units, so the RU count must grow with the tenant count.
	tsc := sc
	tsc.SlotBytes = sc.SlotBytes / int64(tenants)
	if tenants > 2 {
		tsc.DeviceBytes = sc.DeviceBytes / 2 * int64(tenants)
	}
	ts, err := BuildStackN(eng, kind, tenants, tsc)
	if err != nil {
		return nil, err
	}

	attach(eng, ts, nil)

	type tenantRun struct {
		db   *imdb.Engine
		wl   workload.Config
		role string
		ops  int64
		p99  metrics.Histogram
		err  error
	}
	runs := make([]*tenantRun, tenants)
	for i, t := range ts.Tenants {
		wl, role := isolationWorkload(i, tenants, noisy, sc)
		if sc.ValueSize > 0 {
			wl.ValueSize = sc.ValueSize
		}
		db := imdb.New(eng, t.Slim, imdb.Config{
			Policy:             imdb.PeriodicalLog,
			WALSnapshotTrigger: sc.WALTriggerBytes / int64(tenants),
			Trace:              ts.Trace,
			Pool:               ts.Pool(),
		}, nil)
		db.Start()
		runs[i] = &tenantRun{db: db, wl: wl, role: role}
	}
	pending := tenants
	for i := range runs {
		i := i
		tr := runs[i]
		eng.Spawn(fmt.Sprintf("tenant%d-driver", i), func(env *sim.Env) {
			for rep := 0; rep < max(1, sc.Reps); rep++ {
				repWL := tr.wl
				repWL.Seed = tr.wl.Seed + int64(rep)*1000003
				runner := workload.Start(env.Engine(), tr.db, repWL)
				res := runner.Result()
				if tr.role == "steady" {
					// A steady tenant keeps an operator backup: one
					// On-Demand-Snapshot early in the rep. Its long-lived
					// image is exactly the data a shared placement stream
					// forces reclaim to copy while the noisy tenant churns.
					target := repWL.Ops / 5
					for res.Ops+res.Failed < target {
						env.Sleep(5 * sim.Millisecond)
					}
					trig := tr.db.TriggerSnapshot(imdb.OnDemandSnapshot)
					trig.Reply.Wait(env)
				}
				runner.Done.Wait(env)
				if res.Failed > 0 {
					tr.err = errors.Join(tr.err, fmt.Errorf("%d client ops failed", res.Failed))
				}
				tr.ops += res.Ops
				tr.p99.Merge(&res.SetLatency)
			}
			tr.db.WaitNoSnapshot(env)
			tr.err = errors.Join(tr.err, tr.db.Shutdown(env))
			if pending--; pending == 0 {
				tele.Stop()
			}
		})
	}
	eng.Run()
	for i, tr := range runs {
		if tr.err != nil {
			err := fmt.Errorf("exp: %s: tenant %d: %w", label, i, tr.err)
			tele.DumpFlight("run error: " + err.Error()) //nolint:errcheck // the run error wins
			eng.Shutdown()
			return nil, err
		}
	}

	cell := &isolationCell{Kind: kind, DeviceWAF: ts.Dev.Stats().WAF()}
	for i, t := range ts.Tenants {
		u := ts.tenantUsage(t)
		row := tenantRow{
			Tenant:    t.Name,
			Role:      runs[i].role,
			Ops:       runs[i].ops,
			HostPages: u.HostWrites,
			GCCopies:  -1, // prorated on a shared stream, not measured
			WAF:       u.WAF(),
			SetP99:    runs[i].p99.P99(),
		}
		if t.lease != nil {
			row.GCCopies = u.GCCopies
		}
		cell.Rows = append(cell.Rows, row)
	}

	if err := ts.Teardown(); err != nil {
		return nil, fmt.Errorf("exp: %s: %w", label, err)
	}
	eng.Shutdown()
	return cell, nil
}
