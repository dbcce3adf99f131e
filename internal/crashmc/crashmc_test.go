package crashmc

import (
	"reflect"
	"testing"

	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/metrics"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/wal"
)

// TestLatticeEnumerationAndSeedCorpus: the acceptance bar — on the smoke
// workload each backend's lattice holds at least 200 distinct crash
// points, a stride sample of them replays with zero oracle violations, and
// the sampled cuts actually tear pages (the checker is exercising the
// window it claims to).
func TestLatticeEnumerationAndSeedCorpus(t *testing.T) {
	budget := 256
	if testing.Short() {
		budget = 24
	}
	for _, tgt := range Targets {
		t.Run(tgt.String(), func(t *testing.T) {
			ctr := &metrics.Counter{}
			res, err := Check(Config{
				Target:   tgt,
				Workload: Workload{Seed: 1, Ops: DefaultOps},
				Budget:   budget,
				Metrics:  ctr,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.LatticeSize < 200 {
				t.Errorf("lattice has %d distinct crash points, want >= 200", res.LatticeSize)
			}
			if res.CutsChecked != budget {
				t.Errorf("checked %d cuts, want %d", res.CutsChecked, budget)
			}
			for _, v := range res.Violations {
				t.Errorf("oracle violation: %v", &v)
			}
			if res.Faults.TornPrograms == 0 {
				t.Error("no sampled cut tore a page: the stride missed every program window")
			}
			if got := ctr.Get("crashmc.cuts_checked"); got != int64(budget) {
				t.Errorf("counter crashmc.cuts_checked = %d, want %d", got, budget)
			}
			if got := ctr.Get("fault.torn_program"); got != res.Faults.TornPrograms {
				t.Errorf("counter fault.torn_program = %d, want %d (Stats.AddTo wiring)", got, res.Faults.TornPrograms)
			}
		})
	}
}

// TestCheckDeterminism: the same config must reproduce the same lattice,
// the same faults, and the same violations, bit for bit — the contract
// slimio-check -repro relies on. The ack-on-append row runs without
// StopAtFirst, so its whole violation list must repeat, in lattice order.
func TestCheckDeterminism(t *testing.T) {
	workloads := []struct {
		name string
		w    Workload
	}{
		{"clean", Workload{Seed: 7, Ops: 60}},
		{"ack-on-append", Workload{Seed: 7, Ops: 60, Mutation: MutAckOnAppend}},
	}
	for _, tgt := range Targets {
		t.Run(tgt.String(), func(t *testing.T) {
			for _, wl := range workloads {
				t.Run(wl.name, func(t *testing.T) {
					cfg := Config{Target: tgt, Workload: wl.w, Budget: 10}
					a, err := Check(cfg)
					if err != nil {
						t.Fatal(err)
					}
					b, err := Check(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("not deterministic:\n first %+v\nsecond %+v", a, b)
					}
					if wl.w.Mutation != 0 && len(a.Violations) < 2 {
						t.Fatalf("%d violations, want >= 2 to compare", len(a.Violations))
					}
					for i := 1; i < len(a.Violations); i++ {
						if a.Violations[i].Cut < a.Violations[i-1].Cut {
							t.Errorf("violation %d at %v precedes violation %d at %v: not in lattice order",
								i, a.Violations[i].Cut, i-1, a.Violations[i-1].Cut)
						}
					}
				})
			}
		})
	}
}

// TestMutationCaughtShrunkAndReplayed is the checker's mutation test: an
// injected ack-without-sync bug must be caught, the shrinker must cut the
// failing schedule to at most a quarter of the original length, and the
// serialized repro must replay to the identical violation.
func TestMutationCaughtShrunkAndReplayed(t *testing.T) {
	const ops = 40
	for _, tgt := range Targets {
		t.Run(tgt.String(), func(t *testing.T) {
			w := Workload{Seed: 3, Ops: ops, Mutation: MutAckOnAppend}
			res, err := Check(Config{Target: tgt, Workload: w, StopAtFirst: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) == 0 {
				t.Fatalf("mutation not caught: %d cuts checked, lattice %d", res.CutsChecked, res.LatticeSize)
			}
			v := res.Violations[0]
			if v.Code != CodeAckedLost {
				t.Fatalf("mutation surfaced as %q, want %q: %v", v.Code, CodeAckedLost, &v)
			}

			shrunk, sv, err := Shrink(tgt, w, v.Cut)
			if err != nil {
				t.Fatal(err)
			}
			if shrunk.Ops > ops/4 {
				t.Errorf("shrunk schedule has %d ops, want <= %d (25%% of %d)", shrunk.Ops, ops/4, ops)
			}

			rep := NewRepro(tgt, shrunk, v.Cut, *sv)
			data, err := rep.Encode()
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeRepro(data)
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.Replay()
			if err != nil {
				t.Fatal(err)
			}
			if got == nil {
				t.Fatal("repro replay did not fail the oracle")
			}
			if *got != back.Violation {
				t.Fatalf("repro not bit-identical:\n want %+v\n  got %+v", back.Violation, *got)
			}
		})
	}
}

// TestOracleRules exercises each oracle clause on a synthetic history, so
// a regression in one rule is named directly rather than surfacing as an
// unexplained enumeration failure.
func TestOracleRules(t *testing.T) {
	rec := func(i byte) wal.Record {
		return wal.Record{Op: wal.OpSet, Key: []byte{'k', i}, Value: []byte{'v', i}}
	}
	// logOf is the recovered log holding recs: one segment, decoded.
	logOf := func(recs ...wal.Record) []wal.Segment {
		var buf []byte
		for _, r := range recs {
			buf = wal.AppendRecord(buf, r.Op, r.Key, r.Value)
		}
		return []wal.Segment{wal.DecodeSegment([][]byte{buf})}
	}
	hist := &History{Ops: []wal.Record{rec(0), rec(1), rec(2)}, Acked: 2}
	clean := func() *imdb.Recovered {
		return &imdb.Recovered{WAL: logOf(rec(0), rec(1)), WALTruncatedAt: -1}
	}

	cases := []struct {
		name string
		hist *History
		rec  *imdb.Recovered
		want string // violation code, "" for pass
	}{
		{"clean-prefix", hist, clean(), ""},
		{"acked-lost", hist,
			&imdb.Recovered{WAL: logOf(rec(0)), WALTruncatedAt: -1},
			CodeAckedLost},
		{"alien-record", hist,
			&imdb.Recovered{WAL: logOf(rec(0), rec(9)), WALTruncatedAt: -1},
			CodeAlienRecord},
		{"over-recovered", hist,
			&imdb.Recovered{WAL: logOf(rec(0), rec(1), rec(2), rec(3)), WALTruncatedAt: -1},
			CodeOverRecovered},
		{"truncation-without-note", hist, func() *imdb.Recovered {
			r := clean()
			r.WALTruncatedAt = 10
			return r
		}(), CodeDegradedInconsistent},
		{"truncation-with-note", hist, func() *imdb.Recovered {
			r := clean()
			r.WALTruncatedAt = 10
			r.Degraded = []string{"wal segment 0: corrupt frame at byte 10"}
			return r
		}(), ""},
		{"snapshot-lost", &History{
			Ops:   hist.Ops,
			Acked: 2,
			Snaps: []*SnapEvent{{Img: []byte{1, 2, 3}, Committed: true}},
		}, clean(), CodeSnapshotLost},
		{"snapshot-alien", &History{
			Ops:   hist.Ops,
			Acked: 2,
			Snaps: []*SnapEvent{{Img: []byte{1, 2, 3}, Committed: true}},
		}, func() *imdb.Recovered {
			r := clean()
			r.HaveSnapshot = true
			r.Kind = imdb.WALSnapshot
			r.Snapshot = []byte{9, 9, 9}
			return r
		}(), CodeSnapshotAlien},
		{"snapshot-in-flight-may-vanish", &History{
			Ops:   hist.Ops,
			Acked: 2,
			Snaps: []*SnapEvent{
				{Img: []byte{1, 2, 3}, Committed: true},
				{Img: []byte{4, 5, 6}, CommitInFlight: true},
			},
		}, clean(), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := checkOracle(SlimIO, 1000, tc.hist, tc.rec)
			switch {
			case tc.want == "" && v != nil:
				t.Fatalf("unexpected violation: %v", v)
			case tc.want != "" && v == nil:
				t.Fatalf("want %q violation, got none", tc.want)
			case tc.want != "" && v.Code != tc.want:
				t.Fatalf("want %q, got %q: %v", tc.want, v.Code, v)
			}
		})
	}
}

// TestSampleLattice: stride sampling is deterministic, ordered, within
// budget, and spans the full lattice.
func TestSampleLattice(t *testing.T) {
	lattice := make([]CutPoint, 100)
	for i := range lattice {
		lattice[i] = CutPoint{T: sim.Time(10 * (i + 1)), Kind: "x"}
	}
	got := sampleLattice(lattice, 7)
	if len(got) != 7 {
		t.Fatalf("sampled %d, want 7", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].T <= got[i-1].T {
			t.Fatalf("sample not strictly ordered at %d", i)
		}
	}
	if got[0] != lattice[0] {
		t.Errorf("sample does not start at the lattice head")
	}
	if all := sampleLattice(lattice, 0); len(all) != len(lattice) {
		t.Errorf("budget 0 must select the whole lattice")
	}
}
