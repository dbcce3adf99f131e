package exp

import (
	"fmt"

	"github.com/slimio/slimio/internal/core"
	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/ssd"
)

// PlacementLabel names what kind means for co-located tenants, the
// isolation experiment's variable: "shared-pid" is the noisy-neighbor
// baseline (SlimIOConv's single-stream FTL mixes every tenant's lifetimes in
// shared reclaim units and GC bills its copies to everyone),
// "per-tenant-fdp" leases each tenant an exclusive placement-ID range
// (same-lifetime data stays in per-tenant reclaim units and a quiet tenant's
// WAF is untouched by its neighbors). Both run the identical SlimIO write
// path.
func PlacementLabel(kind BackendKind) string {
	if kind == SlimIOConv {
		return "shared-pid"
	}
	return "per-tenant-fdp"
}

// tenantPIDs is the per-tenant placement-stream count: SlimIO's four
// lifetime classes (WAL, WAL-snapshot, on-demand, metadata) plus the
// reserved local stream 0 that unknown lifetimes fall back to.
const tenantPIDs = 5

// Tenant is one mounted engine backend of a multi-tenant Stack.
type Tenant struct {
	Name string
	// lease is the tenant's PID range (nil on a conventional device).
	lease *fdp.PIDLease
	// ns is the tenant's LPA window + PID remapping over the shared FTL.
	ns *ssd.Namespace
	// Dev is the tenant's own device front-end over NS.
	Dev *ssd.Device
	// Slim is the tenant's SlimIO persistence backend.
	Slim *core.Backend
}

// mountTenants gives each of n tenants an equal LPA window of st.Dev (plus a
// PID lease when the device has an allocator), its own device front-end
// configured like the whole device's, and a SlimIO backend on it.
func (st *Stack) mountTenants(n int, cfg core.Config, front ssd.Config) error {
	shared := st.Dev.FTL()
	window := shared.Capacity() / int64(n)
	for i := 0; i < n; i++ {
		t := &Tenant{Name: fmt.Sprintf("tenant%d", i)}
		var mapPID func(uint32) uint32
		if st.alloc != nil {
			lease, err := st.alloc.Acquire(t.Name, tenantPIDs)
			if err != nil {
				return err
			}
			t.lease = lease
			mapPID = lease.PID
		}
		ns, err := ssd.NewNamespace(shared, int64(i)*window, window, mapPID)
		if err != nil {
			return err
		}
		t.ns = ns
		t.Dev = ssd.New(ns, front)
		if t.Slim, err = core.New(st.Eng, t.Dev, cfg); err != nil {
			return fmt.Errorf("exp: %s backend: %w", t.Name, err)
		}
		st.Tenants = append(st.Tenants, t)
	}
	return nil
}

// tenantCounters returns tenant t's host-written and total NAND-written
// page counts. With a lease both roll up over t's PIDs; on a conventional
// device attribution is impossible (every write shares stream 0), so each
// tenant is billed the device-global amplification prorated onto its own
// host volume.
func (st *Stack) tenantCounters(t *Tenant) (host, nand int64) {
	if t.lease != nil {
		s := st.Dev.FTL().(*fdp.FTL).Stats() // a lease implies the FDP FTL
		for off := 0; off < t.lease.Count; off++ {
			pid := t.lease.Base + uint32(off)
			host += s.HostWritesByPID[pid]
			nand += s.HostWritesByPID[pid] + s.GCCopiesByPID[pid]
		}
		return host, nand
	}
	fs := st.Dev.Stats()
	h := t.ns.HostWritePages()
	if fs.HostWritePages == 0 {
		return h, h
	}
	return h, h * fs.NANDWritePages / fs.HostWritePages
}

// tenantWAF reports tenant t's own write-amplification factor.
func (st *Stack) tenantWAF(t *Tenant) float64 {
	host, nand := st.tenantCounters(t)
	if host == 0 {
		return 1
	}
	return float64(nand) / float64(host)
}

// tenantWAFx100 is tenantWAF in integer hundredths (integer arithmetic
// only, for the telemetry plane's diffable gauges).
func (st *Stack) tenantWAFx100(t *Tenant) int64 {
	host, nand := st.tenantCounters(t)
	if host == 0 {
		return 100
	}
	return (nand*100 + host/2) / host
}
