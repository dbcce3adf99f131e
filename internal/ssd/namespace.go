package ssd

import (
	"fmt"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
)

// Namespace is an NVMe-style namespace: a contiguous logical-page window of
// a shared FTL plus a placement-identifier remapping. Wrapping one in New
// gives each co-located tenant its own Device over the same physical media,
// so multi-tenant stacks need no changes above the device layer — a
// tenant's LPAs are isolated by the window and its placement streams by the
// PID map (typically fdp.PIDLease.PID).
//
// A Namespace holds no payload state of its own: reads, writes, and trims
// translate and forward, so it satisfies the FTL contract of the front-end
// (Write borrows data exactly like the FTL below it).
type Namespace struct {
	inner  FTL
	base   int64
	pages  int64
	mapPID func(uint32) uint32

	hostWrites int64
}

// NewNamespace carves the window [basePage, basePage+pages) out of inner.
// mapPID translates namespace-local placement identifiers to device PIDs;
// nil is the identity (useful over a conventional FTL, which ignores PIDs
// anyway).
func NewNamespace(inner FTL, basePage, pages int64, mapPID func(uint32) uint32) (*Namespace, error) {
	if inner == nil {
		return nil, fmt.Errorf("ssd: namespace over nil FTL")
	}
	if basePage < 0 || pages <= 0 || basePage+pages > inner.Capacity() {
		return nil, fmt.Errorf("ssd: namespace window [%d,%d) outside device capacity %d",
			basePage, basePage+pages, inner.Capacity())
	}
	return &Namespace{inner: inner, base: basePage, pages: pages, mapPID: mapPID}, nil
}

func (n *Namespace) checkLPA(lpa int64) error {
	if lpa < 0 || lpa >= n.pages {
		return fmt.Errorf("ssd: namespace LPA %d out of range [0,%d)", lpa, n.pages)
	}
	return nil
}

func (n *Namespace) pid(local uint32) uint32 {
	if n.mapPID == nil {
		return local
	}
	return n.mapPID(local)
}

// Write stores one page at the namespace-local lpa on the mapped placement
// stream.
func (n *Namespace) Write(now sim.Time, lpa int64, data bufpool.Ref, pid uint32) (sim.Time, error) {
	if err := n.checkLPA(lpa); err != nil {
		return now, err
	}
	done, err := n.inner.Write(now, n.base+lpa, data, n.pid(pid))
	if err == nil {
		n.hostWrites++
	}
	return done, err
}

// Read returns the page stored at the namespace-local lpa.
func (n *Namespace) Read(now sim.Time, lpa int64) ([]byte, sim.Time, error) {
	if err := n.checkLPA(lpa); err != nil {
		return nil, now, err
	}
	return n.inner.Read(now, n.base+lpa)
}

// Deallocate trims count namespace-local pages starting at lpa.
func (n *Namespace) Deallocate(lpa, count int64) error {
	if count < 0 || lpa < 0 || lpa+count > n.pages {
		return fmt.Errorf("ssd: namespace deallocate range [%d,%d) out of bounds [0,%d)", lpa, lpa+count, n.pages)
	}
	return n.inner.Deallocate(n.base+lpa, count)
}

// Capacity reports the window size in pages.
func (n *Namespace) Capacity() int64 { return n.pages }

// PageSize reports the shared device's page size.
func (n *Namespace) PageSize() int { return n.inner.PageSize() }

// BaseStats reports the whole shared device's counters (namespaces share
// the FTL, so host/NAND page totals are device-global; per-namespace write
// volume is HostWritePages).
func (n *Namespace) BaseStats() fdp.BaseStats { return n.inner.BaseStats() }

// Array exposes the shared NAND array.
func (n *Namespace) Array() *nand.Array { return n.inner.Array() }

// Mapped reports whether the namespace-local lpa holds data.
func (n *Namespace) Mapped(lpa int64) bool {
	return lpa >= 0 && lpa < n.pages && n.inner.Mapped(n.base+lpa)
}

// StoredRef returns the page stored at the namespace-local lpa (zero when
// out of range or unmapped).
func (n *Namespace) StoredRef(lpa int64) bufpool.Ref {
	if n.checkLPA(lpa) != nil {
		return bufpool.Ref{}
	}
	return n.inner.StoredRef(n.base + lpa)
}

// Base reports the window's first device LPA.
func (n *Namespace) Base() int64 { return n.base }

// HostWritePages counts pages successfully written through this namespace —
// the per-tenant host write volume even when the FTL below cannot attribute
// (the conventional single-stream baseline).
func (n *Namespace) HostWritePages() int64 { return n.hostWrites }
