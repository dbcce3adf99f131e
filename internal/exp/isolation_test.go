package exp

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/telemetry"
)

// tenantChurnOutcome is what one placement mode's device-direct run yields.
type tenantChurnOutcome struct {
	quietWAF  float64
	noisyWAF  float64
	deviceWAF float64
	quietGC   int64
	quietHost int64
	reclaims  int64
}

// runTenantChurn drives both tenants' devices directly (no engine stack on
// top, TestLiveWAFSeries style): tenant 0 maps its whole window and then
// churns random overwrites — the noisy neighbor; tenant 1 writes a cold
// region once on its snapshot stream and runs an RU-aligned circular log
// with whole-region trims on its WAL stream — the quiet tenant whose
// lifetimes are perfectly separated.
func runTenantChurn(t *testing.T, kind BackendKind) tenantChurnOutcome {
	t.Helper()
	onePage := bufpool.Borrowed(make([]byte, 4096))
	eng := sim.NewEngine()
	ts, err := BuildStackN(eng, kind, 2, TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	noisy, quiet := ts.Tenants[0], ts.Tenants[1]
	window := noisy.Dev.Capacity()

	eng.Spawn("noisy", func(env *sim.Env) {
		rng := rand.New(rand.NewSource(3))
		for lpa := int64(0); lpa < window; lpa++ {
			if err := noisy.Dev.Write(env, lpa, []bufpool.Ref{onePage}, 1); err != nil {
				t.Error(err)
				return
			}
		}
		for i := int64(0); i < window*4; i++ {
			if err := noisy.Dev.Write(env, rng.Int63n(window), []bufpool.Ref{onePage}, 1); err != nil {
				t.Error(err)
				return
			}
		}
	})
	eng.Spawn("quiet", func(env *sim.Env) {
		// Cold data written once on the tenant's snapshot stream: the pages
		// a shared placement forces reclaim to copy over and over.
		cold := window / 4
		for lpa := int64(0); lpa < cold; lpa++ {
			if err := quiet.Dev.Write(env, window/2+lpa, []bufpool.Ref{onePage}, 2); err != nil {
				t.Error(err)
				return
			}
		}
		// RU-aligned circular log on the WAL stream: each round fills whole
		// reclaim units, then trims them wholesale, so the quiet tenant's
		// sealed RUs are either fully valid (never a reclaim victim while
		// the noisy tenant has invalid pages) or fully empty.
		region := window / 6
		for round := 0; round < 6; round++ {
			for lpa := int64(0); lpa < region; lpa++ {
				if err := quiet.Dev.Write(env, lpa, []bufpool.Ref{onePage}, 1); err != nil {
					t.Error(err)
					return
				}
			}
			if err := quiet.Dev.Deallocate(0, region); err != nil {
				t.Error(err)
				return
			}
		}
	})
	eng.Run()

	var out tenantChurnOutcome
	out.quietWAF = ts.tenantWAF(quiet)
	out.noisyWAF = ts.tenantWAF(noisy)
	out.deviceWAF = ts.Dev.Stats().WAF()
	out.quietHost = quiet.ns.HostWritePages()
	out.reclaims = ts.Dev.FTL().(ruIntrospect).Stats().RUsReclaimed
	out.quietGC = -1
	if quiet.lease != nil {
		for _, u := range ts.alloc.Rollup(ts.Dev.FTL().(ruIntrospect).Stats()) {
			if u.Tenant == quiet.Name {
				out.quietGC = u.GCCopies
				out.quietHost = u.HostWrites
			}
		}
	}
	if err := ts.Teardown(); err != nil {
		t.Error(err)
	}
	eng.Shutdown()
	return out
}

// TestTenantIsolationWAFSplit is the isolation acceptance test: the same
// noisy-beside-quiet churn runs on one shared device under both placement
// modes. Per-tenant FDP must hold the quiet tenant at WAF exactly 1.00 (zero
// reclaim copies billed to its lease) while the shared single-stream
// baseline drags it up by at least 1.2x — the noisy neighbor's churn forces
// reclaim to copy the quiet tenant's long-lived pages.
func TestTenantIsolationWAFSplit(t *testing.T) {
	fdp := runTenantChurn(t, SlimIOFDP)
	shared := runTenantChurn(t, SlimIOConv)
	t.Logf("fdp:    quiet %.3f noisy %.3f device %.3f reclaims %d quietGC %d",
		fdp.quietWAF, fdp.noisyWAF, fdp.deviceWAF, fdp.reclaims, fdp.quietGC)
	t.Logf("shared: quiet %.3f noisy %.3f device %.3f reclaims %d",
		shared.quietWAF, shared.noisyWAF, shared.deviceWAF, shared.reclaims)

	// Non-vacuity: both runs must have actually reclaimed, and the quiet
	// tenant must have written.
	if fdp.reclaims == 0 || shared.reclaims == 0 {
		t.Fatalf("reclaim never ran (fdp %d, shared %d); enlarge the churn", fdp.reclaims, shared.reclaims)
	}
	if fdp.quietHost == 0 {
		t.Fatal("quiet tenant wrote nothing")
	}

	if fdp.quietGC != 0 {
		t.Errorf("per-tenant FDP billed the quiet tenant %d reclaim copies, want 0", fdp.quietGC)
	}
	if fdp.quietWAF != 1.0 {
		t.Errorf("quiet tenant WAF under per-tenant FDP = %.3f, want exactly 1.00", fdp.quietWAF)
	}
	if fdp.noisyWAF <= 1.0 {
		t.Errorf("noisy tenant WAF under per-tenant FDP = %.3f, want > 1 (it pays for its own churn)", fdp.noisyWAF)
	}
	if shared.quietWAF < fdp.quietWAF*1.2 {
		t.Errorf("shared-PID quiet tenant WAF = %.3f, want >= 1.2x its FDP value %.3f",
			shared.quietWAF, fdp.quietWAF)
	}
	if shared.deviceWAF < 1.2 {
		t.Errorf("shared-PID device WAF = %.3f, want >= 1.2", shared.deviceWAF)
	}
}

// quietWorstWAF returns the highest WAF among the steady tenants — the
// number the isolation claim is about.
func quietWorstWAF(c *isolationCell) float64 {
	worst := 0.0
	for _, r := range c.Rows {
		if r.Role == "steady" && r.WAF > worst {
			worst = r.WAF
		}
	}
	return worst
}

// TestIsolationExperiment runs the full-stack isolation experiment at tiny
// scale and checks its structure and attribution: the FDP cell bills every
// reclaim copy to a lease (the quiet tenants' leases stay clean), the
// shared cell cannot attribute at all, and the report renders both.
func TestIsolationExperiment(t *testing.T) {
	sc := TinyScale()
	sc.Parallel = 1
	sc.Telemetry = telemetry.NewRegistry(sim.Millisecond)
	res, err := RunIsolation(sc, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.tenants != 2 || len(res.cells) != 2 {
		t.Fatalf("result shape: %d tenants, %d cells", res.tenants, len(res.cells))
	}
	sharedCell, fdpCell := res.cells[0], res.cells[1]
	if sharedCell.Kind != SlimIOConv || fdpCell.Kind != SlimIOFDP {
		t.Fatalf("cells ran %s then %s, want shared-pid then per-tenant-fdp", sharedCell.Kind, fdpCell.Kind)
	}
	for _, c := range res.cells {
		if len(c.Rows) != 2 {
			t.Fatalf("%s: %d rows", PlacementLabel(c.Kind), len(c.Rows))
		}
		if c.Rows[0].Role != "noisy" || c.Rows[1].Role != "steady" {
			t.Fatalf("%s: roles %q/%q", PlacementLabel(c.Kind), c.Rows[0].Role, c.Rows[1].Role)
		}
		for _, row := range c.Rows {
			if row.Ops == 0 || row.HostPages == 0 || row.SetP99 == 0 {
				t.Fatalf("%s %s: empty row %+v", PlacementLabel(c.Kind), row.Tenant, row)
			}
		}
		// The noisy tenant gets double the per-tenant op budget.
		if c.Rows[0].Ops != 2*c.Rows[1].Ops {
			t.Fatalf("%s: noisy ops %d, steady ops %d, want 2:1", PlacementLabel(c.Kind), c.Rows[0].Ops, c.Rows[1].Ops)
		}
	}
	for _, row := range sharedCell.Rows {
		if row.GCCopies != -1 {
			t.Errorf("shared row %s claims attributed GC copies (%d); a single stream cannot attribute", row.Tenant, row.GCCopies)
		}
	}
	for _, row := range fdpCell.Rows {
		if row.GCCopies < 0 {
			t.Errorf("FDP row %s lost attribution", row.Tenant)
		}
	}
	// The quiet tenant's lease must stay clean under per-tenant FDP, and
	// its WAF must hold exactly 1.00.
	if q := fdpCell.Rows[1]; q.GCCopies != 0 || q.WAF != 1.0 {
		t.Errorf("FDP quiet tenant: GC copies %d WAF %.3f, want 0 and 1.00", q.GCCopies, q.WAF)
	}
	if quietWorstWAF(fdpCell) != 1.0 {
		t.Errorf("quietWorstWAF = %.3f, want 1.00", quietWorstWAF(fdpCell))
	}
	// Shared placement can never beat isolation for the quiet tenants.
	if quietWorstWAF(sharedCell) < quietWorstWAF(fdpCell) {
		t.Errorf("shared quiet WAF %.3f below FDP quiet WAF %.3f", quietWorstWAF(sharedCell), quietWorstWAF(fdpCell))
	}
	if res.String() == "" {
		t.Fatal("empty report")
	}

	// The telemetry plane must export the per-tenant gauges of both cells.
	dump := sc.Telemetry.Snapshot()
	if len(dump.Cells) != 2 {
		t.Fatalf("telemetry cells = %d, want 2", len(dump.Cells))
	}
	for _, c := range dump.Cells {
		found := map[string]bool{}
		for _, n := range c.Names {
			found[n] = true
		}
		for _, want := range []string{"tenant.count", "tenant0.host_pages", "tenant0.waf_x100", "tenant1.waf_x100", "ftl.host_write_pages"} {
			if !found[want] {
				t.Errorf("cell %s: gauge %q missing", c.Label, want)
			}
		}
	}
}

// TestIsolationDeterminismSerialAndParallel extends the determinism gate to
// the multi-tenant experiment: the rendered report must be byte-identical
// across repeated serial runs and under the parallel cell scheduler.
func TestIsolationDeterminismSerialAndParallel(t *testing.T) {
	run := func(parallel int) string {
		sc := TinyScale()
		sc.Parallel = parallel
		res, err := RunIsolation(sc, 2, true)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return res.String()
	}
	serial1 := run(1)
	serial2 := run(1)
	concurrent := run(2)
	if serial1 != serial2 {
		t.Errorf("serial isolation run not reproducible:\n%s\nvs\n%s", serial1, serial2)
	}
	if serial1 != concurrent {
		t.Errorf("parallel isolation run diverges from serial:\n%s\nvs\n%s", serial1, concurrent)
	}
	checkGolden(t, "isolation_tiny", serial1)
}

// A tenant whose engine cannot make its log durable fails the isolation
// cell with an error; it neither panics nor leaves the cell spinning.
func TestIsolationFaultedTenantFailsTheCell(t *testing.T) {
	sc := TinyScale()
	sc.FaultSeed, sc.ProgramErrRate = 1, 0.3
	if _, err := runIsolationCell(SlimIOConv, 2, false, sc); err == nil || !strings.Contains(err.Error(), "tenant") {
		t.Fatalf("runIsolationCell = %v, want a tenant error", err)
	}
}
