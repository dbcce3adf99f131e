package nand

import (
	"math/rand"
	"testing"
)

// BenchmarkStoreCopy prices storeCopy, the copy of a borrowed page that
// Program and a torn source's Relocate make, into cold recycled segments.
// A 64 MiB array is stored full once; each op then releases one page, in a
// fixed random order, and stores a fresh copy there. The LIFO free list
// hands the op the segment it just released, last written a whole 64 MiB
// cycle earlier, so the destination is recycled and out of L2, and the
// random order keeps the prefetcher from warming it.
func BenchmarkStoreCopy(b *testing.B) {
	geo := Geometry{Channels: 1, DiesPerChannel: 1, BlocksPerDie: 64, PagesPerBlock: 256, PageSize: 4096}
	a, err := New(geo, DefaultLatencies())
	if err != nil {
		b.Fatal(err)
	}
	order := rand.New(rand.NewSource(1)).Perm(int(geo.Pages()))
	src := make([]byte, geo.PageSize)
	for _, p := range order {
		a.storeCopy(PPA(p), src)
	}
	b.SetBytes(int64(geo.PageSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := PPA(order[i%len(order)])
		a.release(p, 0)
		a.storeCopy(p, src)
	}
	b.StopTimer()
	a.ReleaseStored()
}
