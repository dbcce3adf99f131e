package ssd

import (
	"bytes"
	"testing"

	"github.com/slimio/slimio/internal/fault"
	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
)

// failNReadsHook fails the next n read attempts, then heals.
type failNReadsHook struct{ n int }

func (h *failNReadsHook) ReadFault(now sim.Time, ppa nand.PPA) error {
	if h.n > 0 {
		h.n--
		return &nand.DeviceError{Status: nand.StatusUnrecoveredRead, Transient: true, Op: "read", PPA: ppa}
	}
	return nil
}
func (h *failNReadsHook) ProgramFault(now, done sim.Time, ppa nand.PPA, data []byte) nand.ProgramDecision {
	return nand.ProgramDecision{}
}
func (h *failNReadsHook) EraseFault(now sim.Time, die, block int) error { return nil }

func newRetryDevice(t *testing.T) (*nand.Array, *Device) {
	t.Helper()
	geo := nand.Geometry{Channels: 2, DiesPerChannel: 2, BlocksPerDie: 8, PagesPerBlock: 8, PageSize: 128}
	arr, err := nand.New(geo, nand.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	f, err := fdp.NewConventional(arr, fdp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return arr, New(f, Config{})
}

// Two transient read failures must cost exactly two retries, succeed on the
// third attempt, and push the completion past the exponential backoff
// (100 µs + 200 µs on the virtual clock) — never rewinding time.
func TestReadRetryBackoff(t *testing.T) {
	arr, dev := newRetryDevice(t)
	payload := pages(1, dev.PageSize(), 'r')
	wdone, err := dev.WritePages(0, 3, refs(payload), 0)
	if err != nil {
		t.Fatal(err)
	}
	arr.SetFaultHook(&failNReadsHook{n: 2})
	data, rdone, err := dev.ReadPages(wdone, 3, 1)
	if err != nil {
		t.Fatalf("read with 2 transient faults: %v", err)
	}
	if !bytes.Equal(data[0], payload[0]) {
		t.Fatal("retried read returned wrong data")
	}
	if got := dev.IOStats().ReadRetries; got != 2 {
		t.Fatalf("ReadRetries = %d, want 2", got)
	}
	if minDone := wdone.Add(300 * sim.Microsecond); rdone < minDone {
		t.Fatalf("completion %v precedes the backoff floor %v", rdone, minDone)
	}
}

// A read that keeps failing exhausts the bounded retry budget and surfaces
// the device status instead of looping forever.
func TestReadRetriesExhausted(t *testing.T) {
	arr, dev := newRetryDevice(t)
	if _, err := dev.WritePages(0, 0, refs(pages(1, dev.PageSize(), 'x')), 0); err != nil {
		t.Fatal(err)
	}
	arr.SetFaultHook(&failNReadsHook{n: 1 << 30})
	_, _, err := dev.ReadPages(0, 0, 1)
	if nand.StatusOf(err) != nand.StatusUnrecoveredRead {
		t.Fatalf("err = %v, want unrecovered-read status", err)
	}
	st := dev.IOStats()
	if st.ReadRetries != 5 || st.ReadFailures != 1 {
		t.Fatalf("stats = %+v, want 5 retries (default budget) and 1 failure", st)
	}
}

// Torn writes are permanent (the power is gone): the front end must not
// burn retries on them, only count the failure and pass the status up.
func TestTornWriteNotRetried(t *testing.T) {
	arr, dev := newRetryDevice(t)
	plan := fault.NewPlan(fault.Config{Seed: 5})
	plan.SchedulePowerCut(0) // every program completes after the cut
	arr.SetFaultHook(plan)
	_, err := dev.WritePages(0, 0, refs(pages(1, dev.PageSize(), 't')), 0)
	if !nand.IsTornWrite(err) {
		t.Fatalf("err = %v, want interrupted-write status", err)
	}
	st := dev.IOStats()
	if st.WriteRetries != 0 || st.WriteFailures != 1 {
		t.Fatalf("stats = %+v, want 0 retries and 1 failure", st)
	}
}
