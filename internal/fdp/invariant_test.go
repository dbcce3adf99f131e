package fdp

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/fault"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
)

type stepClock struct{ now sim.Time }

func (c *stepClock) Now() sim.Time { return c.now }

// device is what the lock-step driver needs of either translation layer.
type device interface {
	Write(now sim.Time, lpa int64, data bufpool.Ref, pid uint32) (sim.Time, error)
	Deallocate(lpa, count int64) error
}

// TestLockStepReferenceModel drives the FDP FTL and its conventional variant
// in lock-step with a map[lpa][]byte reference model: seeded random writes and
// trims over an 85 %-full keyspace on a small geometry, so reclaim migrates
// all the time, once on a perfect device and once under a fault plan (program
// failures retire blocks, transient read errors retry). The clock is attached,
// so discarded segments really are recycled under new payloads — a discard of
// a page something can still address would show up as a stale read-back.
func TestLockStepReferenceModel(t *testing.T) {
	builders := []struct {
		name string
		new  func(*nand.Array) (device, *FTL, error)
	}{
		{"fdp", func(arr *nand.Array) (device, *FTL, error) {
			f, err := New(arr, Config{})
			return f, f, err
		}},
		{"conventional", func(arr *nand.Array) (device, *FTL, error) {
			c, err := NewConventional(arr, Config{})
			if err != nil {
				return nil, nil, err
			}
			return c, c.FTL, nil
		}},
	}
	plans := []struct {
		name string
		cfg  fault.Config
	}{
		{"perfect", fault.Config{}},
		{"faults", fault.Config{Seed: 5, ReadErrRate: 0.02, ProgramErrRate: 0.001}},
	}
	for _, b := range builders {
		for _, p := range plans {
			t.Run(b.name+"/"+p.name, func(t *testing.T) {
				geo := nand.Geometry{Channels: 1, DiesPerChannel: 2, BlocksPerDie: 64, PagesPerBlock: 8, PageSize: 64}
				arr, err := nand.New(geo, nand.DefaultLatencies())
				if err != nil {
					t.Fatal(err)
				}
				clk := &stepClock{}
				arr.SetClock(clk)
				dev, f, err := b.new(arr)
				if err != nil {
					t.Fatal(err)
				}
				var hook nand.FaultHook
				if plan := fault.NewPlan(p.cfg); plan.Active() {
					hook = plan
				}
				arr.SetFaultHook(hook)

				const steps, checkEvery = 4000, 250
				keys := f.Capacity() * 85 / 100
				model := make(map[int64][]byte)
				rng := rand.New(rand.NewSource(18))
				pool := arr.Pool()
				for i := 1; i <= steps; i++ {
					lpa := rng.Int63n(keys)
					if rng.Intn(10) == 0 {
						n := 1 + rng.Int63n(8)
						if lpa+n > keys {
							n = keys - lpa
						}
						if err := dev.Deallocate(lpa, n); err != nil {
							t.Fatalf("step %d: %v", i, err)
						}
						for j := int64(0); j < n; j++ {
							delete(model, lpa+j)
						}
					} else {
						v := page(fmt.Sprintf("l%d-s%d-", lpa, i), geo.PageSize)
						ref := bufpool.Borrowed(v)
						if i%2 == 0 { // pooled producer, released once durable
							s := pool.Get()
							copy(s.Bytes(), v)
							ref = bufpool.Ref{Seg: s, B: s.Bytes()}
						}
						done, err := dev.Write(clk.now, lpa, ref, uint32(rng.Intn(3)))
						if err != nil {
							t.Fatalf("step %d: write LPA %d: %v", i, lpa, err)
						}
						ref.Release()
						model[lpa] = v
						clk.now = done
					}
					if i%checkEvery == 0 {
						arr.SetFaultHook(nil) // judge the state, not the plan's next draw
						checkAgainstModel(t, f, model, keys, clk)
						arr.SetFaultHook(hook)
					}
				}

				s := f.Stats()
				if s.GCCopiedPages == 0 {
					t.Fatal("churn forced no GC copies; the migration path was not exercised")
				}
				if hook != nil && (s.ProgramFailures == 0 || s.GCReadRetries == 0 || s.RetireMigratedPages == 0) {
					t.Fatalf("fault plan left a path cold: %+v", s.BaseStats)
				}
				arr.ReleaseStored()
				if n := pool.InFlight(); n != 0 {
					t.Fatalf("%d segments in flight after teardown", n)
				}
			})
		}
	}
}

// checkAgainstModel asserts the three invariants that tie host memory to live
// data: a physical page holds bytes iff it is mapped, the pool's in-flight
// count is exactly the stored-page count, and every mapped LPA reads back the
// model's last version. The plans above never cut power, so no torn image —
// the one kind of stored page that is neither pooled nor necessarily mapped —
// can exist here.
func checkAgainstModel(t *testing.T, f *FTL, model map[int64][]byte, keys int64, clk *stepClock) {
	t.Helper()
	if lost := f.stats.LostPages; lost != 0 {
		t.Fatalf("the device dropped %d LPAs; the reference model cannot follow a lossy run", lost)
	}
	stored, mapped := 0, 0
	for ppa := range f.p2l {
		holds := f.arr.StoredRef(nand.PPA(ppa)).B != nil
		if holds {
			stored++
		}
		if lpa := f.p2l[ppa]; lpa >= 0 {
			mapped++
			if f.l2p[lpa] != nand.PPA(ppa) {
				t.Fatalf("PPA %d claims LPA %d, which maps to PPA %d", ppa, lpa, f.l2p[lpa])
			}
		}
		if holds != (f.p2l[ppa] >= 0) {
			t.Fatalf("PPA %d: holds bytes = %v, mapped = %v", ppa, holds, f.p2l[ppa] >= 0)
		}
	}
	valid := 0
	for _, ru := range f.Usage() {
		valid += ru.Valid
	}
	if valid != stored || mapped != len(model) {
		t.Fatalf("Σ RU valid = %d, stored pages = %d, mapped pages = %d, model holds %d", valid, stored, mapped, len(model))
	}
	if n := f.arr.Pool().InFlight(); n != int64(stored) {
		t.Fatalf("pool has %d segments in flight for %d stored pages", n, stored)
	}
	for lpa := int64(0); lpa < keys; lpa++ {
		want, live := model[lpa]
		if f.Mapped(lpa) != live {
			t.Fatalf("LPA %d: mapped = %v, model says %v", lpa, f.Mapped(lpa), live)
		}
		if !live {
			continue
		}
		got, done, err := f.Read(clk.now, lpa)
		if err != nil {
			t.Fatalf("read LPA %d: %v", lpa, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("LPA %d reads %q, model holds %q", lpa, got, want)
		}
		clk.now = done
	}
}
