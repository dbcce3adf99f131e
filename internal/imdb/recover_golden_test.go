package imdb_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"github.com/slimio/slimio/internal/exp"
	"github.com/slimio/slimio/internal/fault"
)

var update = flag.Bool("update", false, "rewrite testdata/recover_cuts.golden from this run instead of comparing")

// The faulted run: a power cut while a WAL-Snapshot is in flight, so the log
// is a sealed segment plus the open one, then a recovery whose every page
// read fails with this probability. At that rate the device's retries run
// out on some pages, and a sealed-segment page is zero-filled on SlimIO.
const (
	faultCutPermille = 380
	faultSeed        = 1
	faultReadErrRate = 0.5
)

// TestRecoverCutsGolden pins what recovery makes of a surviving device, on
// each backend, at TestRecoveryIdempotent's cuts and in the faulted run: the
// counts Recover returns, the damage report in order, the recovery's virtual
// duration and a digest of the store it built. A change to how the log is
// read or decoded must leave every line as it is.
func TestRecoverCutsGolden(t *testing.T) {
	var golden strings.Builder
	row := func(kind exp.BackendKind, run string, st *exp.Stack) {
		db, entries, walRecords, took, _ := recoverFresh(t, st)
		rec := db.LastRecovery()
		h := fnv.New64a()
		h.Write(dumpStore(db.Store()))
		fmt.Fprintf(&golden, "%s %s entries=%d wal_records=%d truncated_at=%d virt_ns=%d store=%016x degraded=%q\n",
			kind, run, entries, walRecords, rec.WALTruncatedAt, int64(took), h.Sum64(), rec.Degraded)
	}
	for _, kind := range stackKinds {
		full, end := life(t, kind, lifeKeys, lifeOps, lifeValueSize, 0)
		full.Close()
		for _, cut := range lifeCuts(end) {
			st, _ := life(t, kind, lifeKeys, lifeOps, lifeValueSize, cut)
			row(kind, fmt.Sprintf("cut=%d", int64(cut)), st)
			st.Close()
		}
		cut := end * faultCutPermille / 1000
		st, _ := life(t, kind, lifeKeys, lifeOps, lifeValueSize, cut)
		st.Dev.FTL().Array().SetFaultHook(fault.NewPlan(fault.Config{Seed: faultSeed, ReadErrRate: faultReadErrRate}))
		row(kind, fmt.Sprintf("cut=%d read_err_rate=%v", int64(cut), faultReadErrRate), st)
		st.Close()
	}
	if !strings.Contains(golden.String(), "sealed wal segment") {
		t.Error("the faulted run zero-filled no sealed-segment page: it no longer covers that path")
	}

	const path = "testdata/recover_cuts.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if golden.String() != string(want) {
		t.Errorf("%s differs from this run (regenerate with -update only for an intended behaviour change):\n--- got\n%s--- want\n%s",
			path, golden.String(), want)
	}
}
