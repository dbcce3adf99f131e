package telemetry

import (
	"encoding/json"
	"fmt"

	"github.com/slimio/slimio/internal/sim"
)

// FlightRecord is the JSON payload of a flight-recorder dump: why it fired,
// the trailing metric samples (oldest first), and — when the cell has a
// tracer — the trailing vtrace spans, so the failure's last seconds of
// system state and activity are preserved together.
type FlightRecord struct {
	Cell       string       `json:"cell"`
	Reason     string       `json:"reason"`
	IntervalNS int64        `json:"interval_ns"`
	Names      []string     `json:"names"`
	Samples    []Sample     `json:"samples"`
	Spans      []FlightSpan `json:"spans,omitempty"`
	// Dropped counts the ticks the cell could not store (see Cell.Err):
	// misconfiguration evidence worth keeping in a failure artifact.
	Dropped int64 `json:"dropped,omitempty"`
}

// FlightSpan is one trailing vtrace span in recording order.
type FlightSpan struct {
	Layer string   `json:"layer"`
	Name  string   `json:"name"`
	Start sim.Time `json:"start"`
	End   sim.Time `json:"end"`
	Arg   int64    `json:"arg,omitempty"`
}

// EncodeFlight renders the cell's flight record as JSON. Unlike DumpFlight
// it neither touches the filesystem nor latches the dumped flag, so tests
// and callers with their own sinks can use it directly.
func (c *Cell) EncodeFlight(reason string) ([]byte, error) {
	if c == nil {
		return nil, fmt.Errorf("telemetry: nil cell")
	}
	rec := FlightRecord{
		Cell:       c.label,
		Reason:     reason,
		IntervalNS: int64(c.interval),
		Names:      c.GaugeNames(),
		Samples:    c.rows,
		Dropped:    c.dropped,
	}
	if n := len(c.rows); n > DefaultFlightDepth {
		rec.Samples = c.rows[n-DefaultFlightDepth:]
	}
	if c.tracer != nil {
		spans := c.tracer.Spans()
		if len(spans) > DefaultFlightSpans {
			spans = spans[len(spans)-DefaultFlightSpans:]
		}
		for i := range spans {
			s := &spans[i]
			layer, name := c.tracer.Site(s.Site)
			rec.Spans = append(rec.Spans, FlightSpan{
				Layer: layer, Name: name, Start: s.Start, End: s.End, Arg: s.Arg,
			})
		}
	}
	data, err := json.MarshalIndent(&rec, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ParseFlight decodes a flight record and checks its basic shape.
func ParseFlight(data []byte) (*FlightRecord, error) {
	var rec FlightRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("telemetry: invalid flight JSON: %w", err)
	}
	if rec.Cell == "" {
		return nil, fmt.Errorf("telemetry: flight record missing cell")
	}
	if rec.Reason == "" {
		return nil, fmt.Errorf("telemetry: flight record missing reason")
	}
	for i, s := range rec.Samples {
		if len(s.V) != len(rec.Names) {
			return nil, fmt.Errorf("telemetry: flight sample %d has %d values, want %d", i, len(s.V), len(rec.Names))
		}
	}
	return &rec, nil
}
