//go:build race

package bufpool

// Race-instrumented builds (the CI `go test -race` job) record the call
// site of every Retain/Get and Release on each segment, so a double-release
// or retain-after-free panic names the code paths that paired wrongly
// instead of just the final count. They also overwrite a segment's bytes
// with a fixed pattern once no holder may read them (debugPoison), so a
// read through a slice kept past its last Release sees the pattern instead
// of the stale payload the LIFO free list would otherwise leave in place.
//
// The hooks run on the data plane's hottest path (every page acquire and
// release, millions per experiment cell), so recording must stay cheap:
// they capture raw program counters only — symbolization via
// runtime.CallersFrames happens exclusively in debugDump, on the panic
// path. History is bounded per segment lifetime: a fresh Get resets it,
// and only the most recent debugSiteKeep sites of each kind survive
// (a mispaired release is diagnosed by its latest few call paths, not the
// segment's full biography).

import (
	"fmt"
	"runtime"
	"strings"
)

const (
	debugSiteDepth = 6  // frames captured per site
	debugSiteKeep  = 16 // most recent sites kept per kind per lifetime
)

// raceEnabled lets tests skip allocation budgets that the site tracking
// below deliberately breaks.
const raceEnabled = true

type debugSite struct {
	pcs [debugSiteDepth]uintptr
	n   int
}

type debugInfo struct {
	acquires []debugSite
	releases []debugSite
}

func capture() debugSite {
	var s debugSite
	s.n = runtime.Callers(3, s.pcs[:])
	return s
}

// keepRecent appends s, sliding out the oldest entry once the bound is hit.
func keepRecent(list []debugSite, s debugSite) []debugSite {
	if len(list) >= debugSiteKeep {
		copy(list, list[1:])
		list[len(list)-1] = s
		return list
	}
	return append(list, s)
}

func debugAcquire(s *Segment) {
	if s.dbg == nil {
		s.dbg = &debugInfo{}
	}
	if s.refs == 1 { // fresh Get: a new lifetime, drop the previous one's history
		s.dbg.acquires = s.dbg.acquires[:0]
		s.dbg.releases = s.dbg.releases[:0]
	}
	s.dbg.acquires = keepRecent(s.dbg.acquires, capture())
}

func debugRelease(s *Segment) {
	if s.dbg == nil {
		s.dbg = &debugInfo{}
	}
	s.dbg.releases = keepRecent(s.dbg.releases, capture())
}

// poisonByte fills released segments. It is neither zero (a clean unwritten
// tail) nor the WAL record magic, so poisoned bytes decode as corruption.
const poisonByte = 0xDB

// debugPoison overwrites the bytes of a segment whose last reference is
// gone: at its final Release, or when its read quarantine expires. The fill
// doubles a prefix in place, so parallel cells share no scratch buffer.
func debugPoison(s *Segment) {
	b := s.b
	b[0] = poisonByte
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

func formatSite(d debugSite) string {
	frames := runtime.CallersFrames(d.pcs[:d.n])
	var b strings.Builder
	for {
		f, more := frames.Next()
		if f.Function != "" {
			fmt.Fprintf(&b, "%s (%s:%d); ", f.Function, f.File, f.Line)
		}
		if !more {
			break
		}
	}
	return b.String()
}

func debugDump(s *Segment) string {
	if s == nil || s.dbg == nil {
		return ""
	}
	fmtHdr := func(b *strings.Builder, kind string) {
		fmt.Fprintf(b, "%s sites (most recent %d):\n", kind, debugSiteKeep)
	}
	var b strings.Builder
	b.WriteString("\n")
	fmtHdr(&b, "acquire")
	for _, a := range s.dbg.acquires {
		fmt.Fprintf(&b, "  %s\n", formatSite(a))
	}
	fmtHdr(&b, "release")
	for _, r := range s.dbg.releases {
		fmt.Fprintf(&b, "  %s\n", formatSite(r))
	}
	return b.String()
}
