package vtrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// layerOrder fixes the thread-lane ordering in exported traces: stack order
// top to bottom, so a Perfetto timeline reads like the architecture diagram.
// Layers not listed here get lanes after the known ones, sorted by name.
var layerOrder = []string{
	"op",       // per-request root spans (imdb submit → reply)
	"imdb",     // engine: queueing, apply, group-commit wait, snapshots
	"wal",      // WAL flush trees
	"snapshot", // snapshot chunk trees
	"core",     // SlimIO backend (io-passthru paths)
	"baseline", // kernel-path backend (POSIX file ops)
	"uring",    // ring submission/dispatch
	"kernelio", // syscall / filesystem / page-cache stage
	"sched",    // block-layer dispatch
	"ssd",      // NVMe command layer
	"fdp",      // FDP placement (incl. reclaim)
	"nand",     // page program/read, block erase
	"fault",    // injected-fault instants
}

// laneTable assigns a deterministic tid to every layer present in a tracer
// and returns the layers in lane order and each site's tid. Every site in
// the table was interned by a recorded span or event, so the sites' layers
// are exactly the layers present.
func laneTable(t *Tracer) (ordered []string, siteLane []int) {
	present := make(map[string]bool)
	for _, k := range t.sites {
		present[k.layer] = true
	}
	lanes := make(map[string]int)
	for _, layer := range layerOrder {
		if present[layer] {
			lanes[layer] = len(ordered) + 1
			ordered = append(ordered, layer)
			delete(present, layer)
		}
	}
	var rest []string
	for layer := range present {
		rest = append(rest, layer)
	}
	sort.Strings(rest)
	for _, layer := range rest {
		lanes[layer] = len(ordered) + 1
		ordered = append(ordered, layer)
	}
	siteLane = make([]int, len(t.sites))
	for id, k := range t.sites {
		siteLane[id] = lanes[k.layer]
	}
	return ordered, siteLane
}

// Export writes the registry's tracers as Chrome trace-event JSON
// ({"traceEvents":[...]}), loadable by Perfetto and chrome://tracing. Every
// byte is deterministic: cells are ordered by sorted label (pid = order),
// lanes by the fixed layerOrder table, events in recording order, and
// timestamps are formatted by integer arithmetic (microseconds with fixed
// 3-digit nanosecond remainder) — no floats, no map-order dependence.
func (r *Registry) Export(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[")
	first := true
	labels := r.Labels()
	for pidIdx, label := range labels {
		t := r.Get(label)
		exportTracer(bw, t, pidIdx+1, &first)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

func exportTracer(bw *bufio.Writer, t *Tracer, pid int, first *bool) {
	ordered, siteLane := laneTable(t)
	sep := func() {
		if *first {
			*first = false
			bw.WriteString("\n")
		} else {
			bw.WriteString(",\n")
		}
	}

	sep()
	bw.WriteString("{\"ph\":\"M\",\"pid\":")
	writeInt(bw, int64(pid))
	bw.WriteString(",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":")
	writeString(bw, t.Label)
	bw.WriteString("}}")
	for i, layer := range ordered {
		sep()
		bw.WriteString("{\"ph\":\"M\",\"pid\":")
		writeInt(bw, int64(pid))
		bw.WriteString(",\"tid\":")
		writeInt(bw, int64(i+1))
		bw.WriteString(",\"name\":\"thread_name\",\"args\":{\"name\":")
		writeString(bw, layer)
		bw.WriteString("}}")
	}

	for i := range t.spans {
		s := &t.spans[i]
		layer, name := t.Site(s.Site)
		sep()
		bw.WriteString("{\"ph\":\"X\",\"pid\":")
		writeInt(bw, int64(pid))
		bw.WriteString(",\"tid\":")
		writeInt(bw, int64(siteLane[s.Site]))
		bw.WriteString(",\"ts\":")
		writeUsec(bw, int64(s.Start))
		bw.WriteString(",\"dur\":")
		writeUsec(bw, int64(s.Dur()))
		bw.WriteString(",\"name\":")
		writeString(bw, name)
		bw.WriteString(",\"cat\":")
		writeString(bw, layer)
		bw.WriteString(",\"args\":{\"id\":")
		writeInt(bw, int64(i+1))
		bw.WriteString(",\"parent\":")
		writeInt(bw, int64(s.Parent))
		bw.WriteString(",\"v\":")
		writeInt(bw, s.Arg)
		bw.WriteString("}}")
	}

	for i := range t.events {
		ev := &t.events[i]
		layer, name := t.Site(ev.Site)
		sep()
		bw.WriteString("{\"ph\":\"i\",\"s\":\"t\",\"pid\":")
		writeInt(bw, int64(pid))
		bw.WriteString(",\"tid\":")
		writeInt(bw, int64(siteLane[ev.Site]))
		bw.WriteString(",\"ts\":")
		writeUsec(bw, int64(ev.At))
		bw.WriteString(",\"name\":")
		writeString(bw, name)
		bw.WriteString(",\"cat\":")
		writeString(bw, layer)
		bw.WriteString(",\"args\":{\"v\":")
		writeInt(bw, ev.Arg)
		bw.WriteString("}}")
	}
}

// writeUsec formats ns as microseconds with a fixed 3-digit fraction, using
// only integer arithmetic (trace-event ts/dur are in microseconds).
func writeUsec(bw *bufio.Writer, ns int64) {
	if ns < 0 {
		bw.WriteByte('-')
		ns = -ns
	}
	var buf [24]byte
	bw.Write(strconv.AppendInt(buf[:0], ns/1000, 10))
	bw.WriteByte('.')
	r := ns % 1000
	bw.WriteByte(byte('0' + r/100))
	bw.WriteByte(byte('0' + (r/10)%10))
	bw.WriteByte(byte('0' + r%10))
}

func writeInt(bw *bufio.Writer, v int64) {
	var buf [24]byte
	bw.Write(strconv.AppendInt(buf[:0], v, 10))
}

// writeString writes a JSON string literal. Labels and span names are
// plain ASCII identifiers, but escape defensively anyway.
func writeString(bw *bufio.Writer, s string) {
	bw.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			bw.WriteByte('\\')
			bw.WriteByte(c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			bw.WriteString("\\u00")
			bw.WriteByte(hex[c>>4])
			bw.WriteByte(hex[c&0xf])
		default:
			bw.WriteByte(c)
		}
	}
	bw.WriteByte('"')
}

// traceEvent mirrors the fields ValidateTrace checks. Pointer fields
// distinguish "absent" from zero.
type traceEvent struct {
	Ph   string   `json:"ph"`
	Name string   `json:"name"`
	Cat  string   `json:"cat"`
	TS   *float64 `json:"ts"`
	Dur  *float64 `json:"dur"`
	Pid  *int64   `json:"pid"`
	Tid  *int64   `json:"tid"`
	S    string   `json:"s"`
}

// ValidateTrace parses data as trace-event JSON and checks the schema
// invariants our exporter promises: a non-empty traceEvents array; every
// event has a phase we emit (X, i, M) and a name; complete spans carry
// non-negative ts/dur and pid/tid; instants carry ts and a scope.
// slimio-bench runs it on every -vtrace export before writing the file.
func ValidateTrace(data []byte) error {
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("vtrace: invalid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("vtrace: no traceEvents")
	}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" {
			return fmt.Errorf("vtrace: event %d: missing name", i)
		}
		switch ev.Ph {
		case "X":
			if ev.TS == nil || ev.Dur == nil {
				return fmt.Errorf("vtrace: event %d (%s): complete span missing ts/dur", i, ev.Name)
			}
			if *ev.TS < 0 || *ev.Dur < 0 {
				return fmt.Errorf("vtrace: event %d (%s): negative ts/dur", i, ev.Name)
			}
			if ev.Pid == nil || ev.Tid == nil {
				return fmt.Errorf("vtrace: event %d (%s): span missing pid/tid", i, ev.Name)
			}
		case "i":
			if ev.TS == nil {
				return fmt.Errorf("vtrace: event %d (%s): instant missing ts", i, ev.Name)
			}
			if ev.S == "" {
				return fmt.Errorf("vtrace: event %d (%s): instant missing scope", i, ev.Name)
			}
		case "M":
			// metadata: name checked above
		default:
			return fmt.Errorf("vtrace: event %d (%s): unexpected phase %q", i, ev.Name, ev.Ph)
		}
	}
	return nil
}
