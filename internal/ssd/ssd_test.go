package ssd

import (
	"bytes"
	"testing"

	"github.com/slimio/slimio/internal/bufpool"
	"github.com/slimio/slimio/internal/fdp"
	"github.com/slimio/slimio/internal/nand"
	"github.com/slimio/slimio/internal/sim"
)

func newConvDevice(t *testing.T) *Device {
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
	return New(f, Config{})
}

func newFDPDevice(t *testing.T) *Device {
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
	return New(f, Config{})
}

// Compile-time interface checks for every translation layer behind a Device.
var (
	_ FTL = (*fdp.FTL)(nil)
	_ FTL = (*fdp.Conventional)(nil)
	_ FTL = (*Namespace)(nil)
)

func pages(n, size int, tag byte) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, size)
		for j := range p {
			p[j] = tag + byte(i)
		}
		out[i] = p
	}
	return out
}

func TestMultiPageWriteRead(t *testing.T) {
	for name, dev := range map[string]*Device{"conv": newConvDevice(t), "fdp": newFDPDevice(t)} {
		in := pages(5, 128, 'a')
		done, err := dev.WritePages(0, 10, refs(in), 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if done <= 0 {
			t.Fatalf("%s: non-positive completion", name)
		}
		out, _, err := dev.ReadPages(done, 10, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range in {
			if !bytes.Equal(in[i], out[i]) {
				t.Fatalf("%s: page %d mismatch", name, i)
			}
		}
	}
}

func TestMultiPageWriteParallelism(t *testing.T) {
	dev := newConvDevice(t)
	// 4 dies: a 4-page write should complete in roughly one program, not 4.
	one, err := dev.WritePages(0, 0, refs(pages(1, 128, 'x')), 0)
	if err != nil {
		t.Fatal(err)
	}
	dev2 := newConvDevice(t)
	four, err := dev2.WritePages(0, 0, refs(pages(4, 128, 'x')), 0)
	if err != nil {
		t.Fatal(err)
	}
	if four >= one*3 {
		t.Fatalf("4-page write took %v vs 1-page %v: no die parallelism", four, one)
	}
}

func TestCommandOverheadApplied(t *testing.T) {
	dev := newConvDevice(t)
	done, err := dev.WritePages(0, 0, refs(pages(1, 128, 'x')), 0)
	if err != nil {
		t.Fatal(err)
	}
	lat := nand.DefaultLatencies()
	min := sim.Time(5*sim.Microsecond) + sim.Time(lat.PageWrite)
	if done < min {
		t.Fatalf("completion %v below overhead+program %v", done, min)
	}
}

func TestEmptyWriteNoop(t *testing.T) {
	dev := newConvDevice(t)
	done, err := dev.WritePages(100, 0, nil, 0)
	if err != nil || done != 100 {
		t.Fatalf("empty write: done=%v err=%v", done, err)
	}
}

func TestOversizedPageRejected(t *testing.T) {
	dev := newConvDevice(t)
	if _, err := dev.WritePages(0, 0, refs([][]byte{make([]byte, 129)}), 0); err == nil {
		t.Fatal("oversized page accepted")
	}
}

func TestBlockingHelpers(t *testing.T) {
	dev := newConvDevice(t)
	eng := sim.NewEngine()
	var wrote, read sim.Time
	eng.Spawn("io", func(env *sim.Env) {
		if err := dev.Write(env, 0, refs(pages(2, 128, 'b')), 0); err != nil {
			t.Error(err)
			return
		}
		wrote = env.Now()
		data, err := dev.Read(env, 0, 2)
		if err != nil {
			t.Error(err)
			return
		}
		read = env.Now()
		if len(data) != 2 || data[0][0] != 'b' {
			t.Error("read back wrong data")
		}
	})
	eng.Run()
	if wrote == 0 || read <= wrote {
		t.Fatalf("blocking ops did not advance time: wrote=%v read=%v", wrote, read)
	}
}

func TestStatsPassThrough(t *testing.T) {
	dev := newFDPDevice(t)
	if _, err := dev.WritePages(0, 0, refs(pages(3, 128, 'p')), 2); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().HostWritePages; got != 3 {
		t.Fatalf("host writes = %d, want 3", got)
	}
	if dev.Capacity() <= 0 || dev.PageSize() != 128 {
		t.Fatal("capacity/page size passthrough broken")
	}
}

func TestDeallocatePassThrough(t *testing.T) {
	dev := newConvDevice(t)
	if _, err := dev.WritePages(0, 0, refs(pages(2, 128, 'd')), 0); err != nil {
		t.Fatal(err)
	}
	if err := dev.Deallocate(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dev.ReadPages(0, 0, 1); err == nil {
		t.Fatal("read after TRIM succeeded")
	}
}

// refs wraps raw test pages as borrowed (unpooled) buffer references.
func refs(pp [][]byte) []bufpool.Ref {
	out := make([]bufpool.Ref, len(pp))
	for i, p := range pp {
		out[i] = bufpool.Borrowed(p)
	}
	return out
}
