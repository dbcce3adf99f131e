package fdp

import (
	"strings"
	"testing"
)

func TestLeaseAcquireSequential(t *testing.T) {
	a, err := NewPIDAllocator(10)
	if err != nil {
		t.Fatal(err)
	}
	l0, err := a.Acquire("t0", 5)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := a.Acquire("t1", 5)
	if err != nil {
		t.Fatal(err)
	}
	if l0.Base != 0 || l0.Count != 5 || l1.Base != 5 || l1.Count != 5 {
		t.Fatalf("leases = [%d,%d) and [%d,%d), want [0,5) and [5,10)",
			l0.Base, int(l0.Base)+l0.Count, l1.Base, int(l1.Base)+l1.Count)
	}
	if a.Free() != 0 {
		t.Fatalf("free = %d, want 0", a.Free())
	}
}

func TestLeaseOverSubscriptionRejected(t *testing.T) {
	a, _ := NewPIDAllocator(10)
	if _, err := a.Acquire("t0", 5); err != nil {
		t.Fatal(err)
	}
	// Deterministic rejection: same request, same error, state unchanged.
	for i := 0; i < 3; i++ {
		_, err := a.Acquire("t1", 6)
		if err == nil {
			t.Fatal("6 PIDs granted with only 5 free")
		}
		if !strings.Contains(err.Error(), "exhausted") {
			t.Fatalf("error %q does not name exhaustion", err)
		}
		if a.Free() != 5 {
			t.Fatalf("rejected acquire changed state: free = %d, want 5", a.Free())
		}
	}
	// The namespace is not burned: a fitting request still succeeds.
	if _, err := a.Acquire("t1", 5); err != nil {
		t.Fatalf("fitting acquire after rejection: %v", err)
	}
}

func TestLeaseDuplicateTenantRejected(t *testing.T) {
	a, _ := NewPIDAllocator(10)
	if _, err := a.Acquire("t0", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire("t0", 2); err == nil {
		t.Fatal("second lease granted to the same tenant")
	}
}

func TestLeaseBadRequests(t *testing.T) {
	if _, err := NewPIDAllocator(0); err == nil {
		t.Fatal("empty namespace accepted")
	}
	a, _ := NewPIDAllocator(10)
	if _, err := a.Acquire("t0", 0); err == nil {
		t.Fatal("zero-PID lease accepted")
	}
	if _, err := a.Acquire("t0", -1); err == nil {
		t.Fatal("negative lease accepted")
	}
}

func TestLeaseReleaseReuse(t *testing.T) {
	a, _ := NewPIDAllocator(15)
	l0, _ := a.Acquire("t0", 5)
	l1, _ := a.Acquire("t1", 5)
	l2, _ := a.Acquire("t2", 5)
	_ = l2

	// Releasing the middle range leaves a hole that the next same-size
	// tenant reuses first-fit.
	a.Release(l1)
	if a.Free() != 5 {
		t.Fatalf("free = %d, want 5", a.Free())
	}
	l3, err := a.Acquire("t3", 5)
	if err != nil {
		t.Fatal(err)
	}
	if l3.Base != 5 {
		t.Fatalf("reused base = %d, want 5 (first fit)", l3.Base)
	}

	// Double release is a no-op.
	a.Release(l1)
	if a.Free() != 0 {
		t.Fatalf("double release freed PIDs: free = %d", a.Free())
	}

	// Adjacent releases merge, so a bigger tenant fits the combined run.
	a.Release(l0)
	a.Release(l3)
	l4, err := a.Acquire("t4", 10)
	if err != nil {
		t.Fatalf("merged range not reusable: %v", err)
	}
	if l4.Base != 0 {
		t.Fatalf("merged base = %d, want 0", l4.Base)
	}
}

func TestLeaseDeterministicSequence(t *testing.T) {
	// The same acquire/release script must produce byte-identical lease
	// layouts on every run (the allocator feeds experiment output).
	run := func() []PIDLease {
		a, _ := NewPIDAllocator(20)
		l0, _ := a.Acquire("a", 4)
		l1, _ := a.Acquire("b", 6)
		a.Release(l0)
		a.Acquire("c", 3) //nolint:errcheck // layout probe
		a.Acquire("d", 5) //nolint:errcheck // layout probe
		a.Release(l1)
		a.Acquire("e", 2) //nolint:errcheck // layout probe
		var out []PIDLease
		for _, l := range a.leases {
			if !l.released {
				out = append(out, *l)
			}
		}
		return out
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("run %d: %d leases, want %d", i, len(again), len(first))
		}
		for j := range first {
			if first[j].Tenant != again[j].Tenant || first[j].Base != again[j].Base || first[j].Count != again[j].Count {
				t.Fatalf("run %d lease %d = %+v, want %+v", i, j, again[j], first[j])
			}
		}
	}
}

func TestLeasePIDMapping(t *testing.T) {
	a, _ := NewPIDAllocator(10)
	a.Acquire("t0", 5) //nolint:errcheck // layout setup
	l1, _ := a.Acquire("t1", 5)
	cases := []struct {
		local, want uint32
	}{
		{0, 5},
		{4, 9},
		{5, 10},  // out of lease: maps to MaxPIDs so the device rejects
		{99, 10}, // far out of lease: same rejection mapping
	}
	for _, c := range cases {
		if got := l1.PID(c.local); got != c.want {
			t.Errorf("PID(%d) = %d, want %d", c.local, got, c.want)
		}
	}
	if l1.Contains(4) || !l1.Contains(5) || !l1.Contains(9) || l1.Contains(10) {
		t.Fatal("Contains boundaries wrong")
	}
}

func TestLeaseUsage(t *testing.T) {
	a, _ := NewPIDAllocator(10)
	l0, _ := a.Acquire("t0", 5)
	l1, _ := a.Acquire("t1", 5)
	s := Stats{PIDs: []PIDCount{
		0: {HostWrites: 10}, 1: {HostWrites: 20, GCCopies: 4},
		5: {HostWrites: 7}, 6: {HostWrites: 3, GCCopies: 6}, 9: {},
	}}
	got := []TenantUsage{l0.Usage(s), l1.Usage(s)}
	if got[0].Tenant != "t0" || got[0].HostWrites != 30 || got[0].GCCopies != 4 {
		t.Fatalf("t0 usage = %+v", got[0])
	}
	if got[1].Tenant != "t1" || got[1].HostWrites != 10 || got[1].GCCopies != 6 {
		t.Fatalf("t1 usage = %+v", got[1])
	}
	if w := got[0].WAF(); w != 34.0/30.0 {
		t.Fatalf("t0 WAF = %v", w)
	}
	if w := (TenantUsage{}).WAF(); w != 1 {
		t.Fatalf("idle tenant WAF = %v, want 1", w)
	}
}
