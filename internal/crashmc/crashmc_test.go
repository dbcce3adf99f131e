package crashmc

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/slimio/slimio/internal/imdb"
	"github.com/slimio/slimio/internal/sim"
	"github.com/slimio/slimio/internal/wal"
)

// TestLatticeEnumerationAndSeedCorpus: the acceptance bar, one row per
// workload. The sample row checks that the DefaultOps lattice holds at least
// 200 distinct crash points and that a stride sample of it tears pages (the
// checker exercises the window it claims to). The lattice row replays every
// cut of the 120-op workload (40 under -short), a superset of any stride
// sample of it. Both rows require zero oracle violations; the first one found
// is shrunk and logged as a repro file to commit under testdata/repro/.
func TestLatticeEnumerationAndSeedCorpus(t *testing.T) {
	rows := []struct {
		name   string
		w      Workload
		budget int // 0 = the whole lattice
	}{
		{"sample", Workload{Seed: 1, Ops: DefaultOps}, 256},
		{"lattice", Workload{Seed: 1, Ops: 120}, 0},
	}
	if testing.Short() {
		rows[0].budget = 24
		rows[1].w.Ops = 40
	}
	for _, tgt := range Targets {
		t.Run(tgt.String(), func(t *testing.T) {
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					res, err := Check(Config{Target: tgt, Workload: row.w, Budget: row.budget})
					if err != nil {
						t.Fatal(err)
					}
					want := row.budget
					if want == 0 {
						want = res.LatticeSize
					} else if res.LatticeSize < 200 {
						t.Errorf("lattice has %d distinct crash points, want >= 200", res.LatticeSize)
					}
					if res.CutsChecked != want {
						t.Errorf("checked %d cuts, want %d", res.CutsChecked, want)
					}
					for _, v := range res.Violations {
						t.Errorf("oracle violation: %v", &v)
					}
					if len(res.Violations) > 0 {
						logRepro(t, tgt, row.w, res.Violations[0])
					}
					if res.Faults.TornPrograms == 0 {
						t.Error("no checked cut tore a page: the cuts missed every program window")
					}
				})
			}
		})
	}
}

// logRepro shrinks a violation found by a clean workload and logs its repro
// file with the path to commit it under, so the failure becomes a
// TestReproFiles row.
func logRepro(t *testing.T, tgt Target, w Workload, v Violation) {
	t.Helper()
	shrunk, sv, err := Shrink(tgt, w, v.Cut)
	if err != nil {
		t.Logf("shrink %v: %v", &v, err)
		return
	}
	data, err := NewRepro(tgt, shrunk, v.Cut, *sv).Encode()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("shrunk %d ops -> %d; save as testdata/repro/seed%d-cut%d-%s.json:\n%s",
		w.Ops, shrunk.Ops, w.Seed, int64(v.Cut), tgt, data)
}

// TestCheckDeterminism: the same config must reproduce the same lattice,
// the same faults, and the same violations, bit for bit — the contract the
// repro files under testdata/repro/ rely on. The ack-on-append row runs
// without StopAtFirst, so its whole violation list must repeat, in lattice
// order.
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
// encoded repro must equal testdata/repro/ack-on-append-<target>.json, which
// TestReproFiles replays (rewrite it with -update).
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

			got, err := NewRepro(tgt, shrunk, v.Cut, *sv).Encode()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "repro", "ack-on-append-"+tgt.String()+".json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from this run's shrunk repro (regenerate with -update only for an intended behaviour change):\n--- got\n%s--- want\n%s",
					path, got, want)
			}
		})
	}
}

// TestReproFiles replays every committed repro file and requires the
// violation it records, bit for bit: each file is a failing schedule the
// checker once found, kept as a regression row.
func TestReproFiles(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "repro", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no repro files under testdata/repro")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			r, err := DecodeRepro(data)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			got, err := r.Replay()
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			switch {
			case got == nil:
				t.Errorf("%s no longer fails the oracle (recorded %v)", path, &r.Violation)
			case *got != r.Violation:
				t.Errorf("%s fails differently:\n want %v\n  got %v", path, &r.Violation, got)
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
			r.Snapshot = [][]byte{{9, 9, 9}}
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
