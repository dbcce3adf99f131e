package exp

import (
	"strings"
	"testing"
)

// block returns the lines of report between the line starting with header
// and the next blank line.
func block(report, header string) []string {
	var out []string
	in := false
	for _, line := range strings.Split(report, "\n") {
		switch {
		case strings.HasPrefix(line, header):
			in = true
		case in && line == "":
			return out
		case in:
			out = append(out, line)
		}
	}
	return out
}

// TestInspectReport holds the -exp inspect report to the state it dumps: on
// both device kinds the snapshot-slot block is populated and the printed
// reclaim log has exactly one row per reclaimed RU — or says it is empty.
// The tiny run (no reclaim at all) is also pinned to a golden; three
// repetitions overwrite the tiny device often enough to force reclaims.
func TestInspectReport(t *testing.T) {
	for _, c := range []struct {
		name         string
		reps         int
		golden       string
		wantReclaims bool
	}{
		{name: "tiny", reps: 1, golden: "inspect_tiny"},
		{name: "tiny-3reps", reps: 3, wantReclaims: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc := TinyScale()
			sc.Reps = c.reps
			res, err := RunInspect(sc)
			if err != nil {
				t.Fatal(err)
			}
			if c.golden != "" {
				checkGolden(t, c.golden, res.String())
			}
			if len(res.cells) != 2 || res.cells[0].kind != SlimIOFDP || res.cells[1].kind != SlimIOConv {
				t.Fatalf("cells = %+v, want slimio-fdp then slimio-noFDP", res.cells)
			}
			for _, cell := range res.cells {
				if slots := block(cell.report, "snapshot slots:"); len(slots) != 3 {
					t.Errorf("%s: snapshot slots block has %d rows, want 3:\n%s", cell.kind, len(slots), cell.report)
				}
				log := block(cell.report, "== reclaim log")
				if (cell.rusReclaimed > 0) != c.wantReclaims {
					t.Errorf("%s: %d RUs reclaimed, want some = %v", cell.kind, cell.rusReclaimed, c.wantReclaims)
				}
				if cell.rusReclaimed == 0 {
					if len(log) != 1 || !strings.HasPrefix(log[0], "(empty") {
						t.Errorf("%s: no reclaim ran but the log block is %q", cell.kind, log)
					}
				} else if int64(len(log)) != cell.rusReclaimed {
					t.Errorf("%s: reclaim log has %d rows, RUsReclaimed = %d", cell.kind, len(log), cell.rusReclaimed)
				}
			}
		})
	}
}
