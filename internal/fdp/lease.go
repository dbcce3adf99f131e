package fdp

import (
	"fmt"
	"sort"
)

// PIDLease is an exclusive, contiguous range of placement identifiers
// carved out of a device's PID namespace for one tenant. A tenant addresses
// its streams with local PIDs [0, Count); PID translates them into the
// leased range. The lease is the isolation boundary: a tenant can never
// name a placement stream outside its range, so co-located engines sharing
// one FDP device cannot mix lifetimes into each other's reclaim units.
type PIDLease struct {
	// Tenant is the lease holder's name (unique per allocator).
	Tenant string
	// Base is the first device PID of the range.
	Base uint32
	// Count is the number of leased PIDs.
	Count int

	// limit is the device's MaxPIDs; out-of-lease locals map to it so the
	// device's own rejection path fires.
	limit    int
	released bool
}

// PID maps a tenant-local placement id into the leased range. A local at or
// beyond the lease maps to the device's PID limit, so the device's existing
// "PID exceeds device limit" rejection fires — a tenant cannot escape its
// lease by picking a large local stream number.
func (l *PIDLease) PID(local uint32) uint32 {
	if int(local) >= l.Count {
		return uint32(l.limit)
	}
	return l.Base + local
}

// Contains reports whether device PID pid falls inside the lease.
func (l *PIDLease) Contains(pid uint32) bool {
	return pid >= l.Base && int(pid) < int(l.Base)+l.Count
}

// pidRange is a free run of PIDs in the allocator's free list.
type pidRange struct {
	base  uint32
	count int
}

// PIDAllocator hands out exclusive per-tenant PID leases from a device's
// finite PID namespace [0, MaxPIDs). Allocation is deterministic: released
// ranges are kept sorted and reused first-fit (lowest base first), and fresh
// PIDs are carved sequentially, so the same acquire/release sequence always
// produces the same leases. Not safe for concurrent use, like the FTL it
// fronts.
type PIDAllocator struct {
	max    int
	next   uint32
	leases []*PIDLease
	free   []pidRange // sorted by base, adjacent runs merged
}

// NewPIDAllocator builds an allocator over a namespace of maxPIDs placement
// identifiers (the device's fdp.Config.MaxPIDs).
func NewPIDAllocator(maxPIDs int) (*PIDAllocator, error) {
	if maxPIDs <= 0 {
		return nil, fmt.Errorf("fdp: PID allocator needs a positive namespace, got %d", maxPIDs)
	}
	return &PIDAllocator{max: maxPIDs}, nil
}

// Free reports how many PIDs remain unleased.
func (a *PIDAllocator) Free() int {
	n := a.max - int(a.next)
	for _, r := range a.free {
		n += r.count
	}
	return n
}

// Leases returns the live leases sorted by base PID.
func (a *PIDAllocator) Leases() []*PIDLease {
	out := make([]*PIDLease, 0, len(a.leases))
	for _, l := range a.leases {
		if !l.released {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}

// Acquire leases count contiguous PIDs for tenant. Over-subscription is
// rejected deterministically: when no contiguous run of count PIDs exists
// the error names the shortfall, and the allocator state is unchanged.
func (a *PIDAllocator) Acquire(tenant string, count int) (*PIDLease, error) {
	if count <= 0 {
		return nil, fmt.Errorf("fdp: tenant %q requested %d PIDs, want > 0", tenant, count)
	}
	for _, l := range a.leases {
		if !l.released && l.Tenant == tenant {
			return nil, fmt.Errorf("fdp: tenant %q already holds PIDs [%d,%d)", tenant, l.Base, int(l.Base)+l.Count)
		}
	}
	lease := &PIDLease{Tenant: tenant, Count: count, limit: a.max}
	// First-fit over released ranges (sorted by base), then the fresh tail.
	for i, r := range a.free {
		if r.count < count {
			continue
		}
		lease.Base = r.base
		if r.count == count {
			a.free = append(a.free[:i], a.free[i+1:]...)
		} else {
			a.free[i] = pidRange{base: r.base + uint32(count), count: r.count - count}
		}
		a.leases = append(a.leases, lease)
		return lease, nil
	}
	if int(a.next)+count > a.max {
		return nil, fmt.Errorf("fdp: PID namespace exhausted: tenant %q wants %d contiguous PIDs, %d of %d free",
			tenant, count, a.Free(), a.max)
	}
	lease.Base = a.next
	a.next += uint32(count)
	a.leases = append(a.leases, lease)
	return lease, nil
}

// Release returns a lease's PIDs to the pool. Releasing twice is a no-op.
// The freed range merges with adjacent free ranges so a later tenant can
// reuse the namespace without fragmentation.
func (a *PIDAllocator) Release(l *PIDLease) {
	if l == nil || l.released {
		return
	}
	l.released = true
	a.free = append(a.free, pidRange{base: l.Base, count: l.Count})
	sort.Slice(a.free, func(i, j int) bool { return a.free[i].base < a.free[j].base })
	merged := a.free[:1]
	for _, r := range a.free[1:] {
		last := &merged[len(merged)-1]
		if last.base+uint32(last.count) == r.base {
			last.count += r.count
		} else {
			merged = append(merged, r)
		}
	}
	a.free = merged
	// Fold a trailing free range back into the fresh tail.
	if n := len(a.free); n > 0 && a.free[n-1].base+uint32(a.free[n-1].count) == a.next {
		a.next = a.free[n-1].base
		a.free = a.free[:n-1]
	}
}

// TenantUsage is one tenant's per-PID counters rolled up over its lease.
type TenantUsage struct {
	Tenant     string
	Base       uint32
	Count      int
	HostWrites int64
	GCCopies   int64
}

// Usage bills the device's per-PID counters to the lease: the one place a
// lease's streams are summed.
func (l *PIDLease) Usage(s Stats) TenantUsage {
	u := TenantUsage{Tenant: l.Tenant, Base: l.Base, Count: l.Count}
	for _, c := range s.PIDs[l.Base : int(l.Base)+l.Count] {
		u.HostWrites += c.HostWrites
		u.GCCopies += c.GCCopies
	}
	return u
}

// WAF is the tenant's own write-amplification factor: NAND pages written on
// its streams (host writes plus reclaim copies of its reclaim units) per
// host page. 1.00 when the tenant has not written yet.
func (u TenantUsage) WAF() float64 {
	if u.HostWrites == 0 {
		return 1
	}
	return float64(u.HostWrites+u.GCCopies) / float64(u.HostWrites)
}
