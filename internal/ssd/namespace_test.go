package ssd

import (
	"bytes"
	"testing"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/nand"
)

// Namespace must satisfy the device front-end's FTL contract.
var _ FTL = (*Namespace)(nil)

func newSharedFDP(t *testing.T) *fdp.FTL {
	t.Helper()
	geo := nand.Geometry{Channels: 2, DiesPerChannel: 2, BlocksPerDie: 8, PagesPerBlock: 8, PageSize: 128}
	arr, err := nand.New(geo, nand.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fdp.New(arr, fdp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func nsPage(tag byte, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = tag
	}
	return p
}

func TestNamespaceWindowValidation(t *testing.T) {
	f := newSharedFDP(t)
	cap := f.Capacity()
	if _, err := NewNamespace(nil, 0, 1, nil); err == nil {
		t.Fatal("nil FTL accepted")
	}
	if _, err := NewNamespace(f, -1, 10, nil); err == nil {
		t.Fatal("negative base accepted")
	}
	if _, err := NewNamespace(f, 0, 0, nil); err == nil {
		t.Fatal("empty window accepted")
	}
	if _, err := NewNamespace(f, cap-5, 6, nil); err == nil {
		t.Fatal("window past capacity accepted")
	}
	if _, err := NewNamespace(f, 0, cap, nil); err != nil {
		t.Fatalf("full-device window rejected: %v", err)
	}
}

func TestNamespaceIsolatesWindows(t *testing.T) {
	f := newSharedFDP(t)
	half := f.Capacity() / 2
	ns0, err := NewNamespace(f, 0, half, nil)
	if err != nil {
		t.Fatal(err)
	}
	ns1, err := NewNamespace(f, half, half, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both namespaces write local LPA 3 — distinct device pages.
	if _, err := ns0.Write(0, 3, bufpool.Borrowed(nsPage('a', 128)), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ns1.Write(0, 3, bufpool.Borrowed(nsPage('b', 128)), 0); err != nil {
		t.Fatal(err)
	}
	got0, _, err := ns0.Read(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	got1, _, err := ns1.Read(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got0, nsPage('a', 128)) || !bytes.Equal(got1, nsPage('b', 128)) {
		t.Fatal("namespace windows overlap")
	}
	if !f.Mapped(3) || !f.Mapped(half+3) {
		t.Fatal("device LPAs not where the window math says")
	}
	// Out-of-window accesses fail locally without touching the device.
	if _, err := ns0.Write(0, half, bufpool.Borrowed(nsPage('x', 128)), 0); err == nil {
		t.Fatal("write past window accepted")
	}
	if _, _, err := ns0.Read(0, -1); err == nil {
		t.Fatal("negative read accepted")
	}
	if ns0.Capacity() != half || ns1.Base() != half {
		t.Fatal("window geometry misreported")
	}
}

func TestNamespaceDeallocate(t *testing.T) {
	f := newSharedFDP(t)
	half := f.Capacity() / 2
	ns1, err := NewNamespace(f, half, half, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		if _, err := ns1.Write(0, i, bufpool.Borrowed(nsPage('d', 128)), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := ns1.Deallocate(0, 4); err != nil {
		t.Fatal(err)
	}
	if ns1.Mapped(0) || f.Mapped(half) {
		t.Fatal("deallocate did not unmap the windowed pages")
	}
	if err := ns1.Deallocate(half-2, 4); err == nil {
		t.Fatal("deallocate past window accepted")
	}
	if err := ns1.Deallocate(0, -1); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestNamespacePIDRemap(t *testing.T) {
	f := newSharedFDP(t)
	a, err := fdp.NewPIDAllocator(8)
	if err != nil {
		t.Fatal(err)
	}
	a.Acquire("t0", 4) //nolint:errcheck // layout setup
	l1, err := a.Acquire("t1", 4)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := NewNamespace(f, 0, f.Capacity()/2, l1.PID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Write(0, 0, bufpool.Borrowed(nsPage('p', 128)), 1); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.PIDs[l1.Base+1].HostWrites != 1 {
		t.Fatalf("write not billed to leased PID %d: %+v", l1.Base+1, s.PIDs)
	}
	// An out-of-lease local stream surfaces the device's own rejection.
	if _, err := ns.Write(0, 1, bufpool.Borrowed(nsPage('p', 128)), 4); err == nil {
		t.Fatal("out-of-lease local stream accepted")
	}
	if got := ns.HostWritePages(); got != 1 {
		t.Fatalf("HostWritePages = %d, want 1 (failed writes must not count)", got)
	}
}
