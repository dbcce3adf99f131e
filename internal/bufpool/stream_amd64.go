//go:build !race

package bufpool

import "unsafe"

// streamMin is the shortest copy StreamCopy streams. Below it the aligned
// head and tail copies and the closing fence outweigh the cache-line reads
// the non-temporal stores save.
const streamMin = 1024

// StreamCopy copies src into dst exactly as copy does and returns the number
// of bytes copied. A copy of streamMin bytes or more is written with
// non-temporal stores: plain copy up to dst's first 16-byte boundary, 64-byte
// blocks that bypass the cache, then plain copy for the tail. The stores skip
// the read-for-ownership of a destination line that is not in cache, which
// is most of the cost of filling a segment last written long ago; they also
// leave the copied bytes out of cache, so use it only for destinations that
// nothing reads soon. Overlapping slices take plain copy.
func StreamCopy(dst, src []byte) int {
	n := min(len(dst), len(src))
	if n < streamMin || overlaps(dst[:n], src[:n]) {
		return copy(dst, src)
	}
	head := int(-uintptr(unsafe.Pointer(&dst[0])) & 15)
	body := (n - head) &^ 63
	copy(dst[:head], src)
	streamBlocks(&dst[head], &src[head], body)
	copy(dst[head+body:n], src[head+body:])
	return n
}

// overlaps reports whether two non-empty slices share any byte.
func overlaps(a, b []byte) bool {
	pa, pb := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
}

// streamBlocks copies n bytes, a positive multiple of 64, from src to the
// 16-byte-aligned dst with MOVNTDQ stores and fences them (stream_amd64.s).
//
//go:noescape
func streamBlocks(dst, src *byte, n int)
