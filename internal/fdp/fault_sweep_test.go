package fdp

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/fault"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
)

// TestReclaimFaultSweep is the FDP twin of the conventional FTL's GC fault
// sweep: a multi-stream overwrite workload far past capacity under swept
// read and program error rates. Invariants: no live LPA maps into a retired
// block, the write accounting identity holds, the free-RU pool stays sane,
// and every surviving LPA reads back its newest value once faults clear.
func TestReclaimFaultSweep(t *testing.T) {
	rates := []struct {
		name             string
		readErr, progErr float64
	}{
		{"reads-3pct", 0.03, 0},
		{"programs", 0, 0.003},
		{"mixed", 0.02, 0.003},
	}
	for _, rate := range rates {
		t.Run(rate.name, func(t *testing.T) {
			// Program failures retire whole blocks, so the rate must stay
			// small against the block budget or the device honestly dies.
			geo := nand.Geometry{Channels: 1, DiesPerChannel: 2, BlocksPerDie: 64, PagesPerBlock: 8, PageSize: 128}
			arr, err := nand.New(geo, nand.DefaultLatencies())
			if err != nil {
				t.Fatal(err)
			}
			f, err := New(arr, Config{})
			if err != nil {
				t.Fatal(err)
			}
			plan := fault.NewPlan(fault.Config{Seed: 77, ReadErrRate: rate.readErr, ProgramErrRate: rate.progErr})
			arr.SetFaultHook(plan)

			lpas := f.Capacity() / 3
			latest := make(map[int64]int)
			now := sim.Time(0)
			for i := 0; i < int(3*f.Capacity()); i++ {
				lpa := int64(i) % lpas
				pid := uint32(i % 3) // three lifetime streams, like WAL/snapshot/on-demand
				done, err := f.Write(now, lpa, bufpool.Borrowed(page(fmt.Sprintf("v%d-", i), f.PageSize())), pid)
				if err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
				latest[lpa] = i
				now = done
				if f.FreeRUs() < 0 {
					t.Fatalf("free-RU count went negative after write %d", i)
				}
			}
			arr.SetFaultHook(nil)

			s := f.Stats()
			if rate.progErr > 0 && s.ProgramFailures == 0 {
				t.Fatal("program error rate injected nothing")
			}
			if s.NANDWritePages != s.HostWritePages+s.GCCopiedPages+s.RetireMigratedPages {
				t.Fatalf("write accounting broken: NAND %d != host %d + reclaim %d + migrated %d",
					s.NANDWritePages, s.HostWritePages, s.GCCopiedPages, s.RetireMigratedPages)
			}
			if s.RetiredBlocks != int64(f.RetiredBlocks()) {
				t.Fatalf("stats say %d retired blocks, map says %d", s.RetiredBlocks, f.RetiredBlocks())
			}

			lost := 0
			for lpa := int64(0); lpa < lpas; lpa++ {
				ppa := f.l2p[lpa]
				if ppa == nand.InvalidPPA {
					lost++
					continue
				}
				if f.retired[arr.BlockOf(ppa)] {
					t.Fatalf("LPA %d maps to retired block %d", lpa, arr.BlockOf(ppa))
				}
				data, done, err := f.Read(now, lpa)
				if err != nil {
					t.Fatalf("read LPA %d after faults cleared: %v", lpa, err)
				}
				if !bytes.Equal(data, page(fmt.Sprintf("v%d-", latest[lpa]), f.PageSize())) {
					t.Fatalf("LPA %d holds stale or corrupt data", lpa)
				}
				now = done
			}
			if int64(lost) > s.LostPages {
				t.Fatalf("%d LPAs unmapped but only %d recorded lost", lost, s.LostPages)
			}
		})
	}
}

// TestReclaimEraseFaultRetires forces erase failures during reclaim: the
// block must leave service (dead RUs leave the rotation), the victim's valid
// data must survive, and writes must keep succeeding on what remains.
func TestReclaimEraseFaultRetires(t *testing.T) {
	geo := nand.Geometry{Channels: 1, DiesPerChannel: 2, BlocksPerDie: 64, PagesPerBlock: 8, PageSize: 128}
	arr, err := nand.New(geo, nand.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(arr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	arr.SetFaultHook(&nthEraseFailHook{n: 7})
	latest := make(map[int64]int)
	now := sim.Time(0)
	for i := 0; i < int(3*f.Capacity()); i++ {
		lpa := int64(i) % (f.Capacity() / 3)
		done, err := f.Write(now, lpa, bufpool.Borrowed(page(fmt.Sprintf("e%d-", i), f.PageSize())), uint32(i%2))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		latest[lpa] = i
		now = done
	}
	arr.SetFaultHook(nil)
	s := f.Stats()
	if s.EraseFailures == 0 || s.RetiredBlocks == 0 {
		t.Fatalf("hook injected nothing: %+v", s)
	}
	for lpa, v := range latest {
		data, done, err := f.Read(now, lpa)
		if err != nil {
			t.Fatalf("read LPA %d: %v", lpa, err)
		}
		if !bytes.Equal(data, page(fmt.Sprintf("e%d-", v), f.PageSize())) {
			t.Fatalf("LPA %d lost its newest value across erase failures", lpa)
		}
		now = done
	}
}

// nthEraseFailHook fails every n-th block erase, deterministically.
type nthEraseFailHook struct {
	n     int
	count int
}

func (h *nthEraseFailHook) ReadFault(now sim.Time, ppa nand.PPA) error { return nil }
func (h *nthEraseFailHook) ProgramFault(now, done sim.Time, ppa nand.PPA, data []byte) nand.ProgramDecision {
	return nand.ProgramDecision{}
}
func (h *nthEraseFailHook) EraseFault(now sim.Time, die, block int) error {
	h.count++
	if h.count%h.n == 0 {
		return &nand.DeviceError{Status: nand.StatusEraseFault, Op: "erase", PPA: nand.InvalidPPA}
	}
	return nil
}
