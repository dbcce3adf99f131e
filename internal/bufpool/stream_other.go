//go:build !amd64 || race

package bufpool

// StreamCopy is copy on this build. On amd64 it streams long copies past
// the cache (stream_amd64.go); race builds take this plain copy because the
// race detector cannot see stores made from assembly.
func StreamCopy(dst, src []byte) int { return copy(dst, src) }
