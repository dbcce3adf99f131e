package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/slimio/slimio/internal/analysis"
)

// detFixture is a package written to trip several passes at once; it lives
// under internal/exp so the suite's scoping applies every pass to it.
const detFixture = "../../internal/exp/testdata/src/det"

func runOnce(t *testing.T) []analysis.Finding {
	t.Helper()
	findings, err := runStandalone([]string{detFixture})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("determinism fixture produced no findings")
	}
	return findings
}

func render(findings []analysis.Finding) []byte {
	var buf bytes.Buffer
	for _, f := range findings {
		fmt.Fprintf(&buf, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	}
	return buf.Bytes()
}

// TestOutputDeterministic runs the whole suite twice — fresh load, fresh
// type-check, fresh passes — and requires byte-identical rendered output.
func TestOutputDeterministic(t *testing.T) {
	first := render(runOnce(t))
	second := render(runOnce(t))
	if !bytes.Equal(first, second) {
		t.Errorf("two suite runs rendered differently:\nrun 1:\n%srun 2:\n%s", first, second)
	}
}

// TestFindingsGloballyOrdered checks the driver's contract directly: the
// aggregate is ordered by (file, offset, pass, message) and spans more
// than one pass on this fixture.
func TestFindingsGloballyOrdered(t *testing.T) {
	findings := runOnce(t)
	passes := map[string]bool{}
	for i, f := range findings {
		passes[f.Analyzer] = true
		if i == 0 {
			continue
		}
		p := findings[i-1]
		after := p.File < f.File ||
			(p.File == f.File && (p.Offset < f.Offset ||
				(p.Offset == f.Offset && (p.Analyzer < f.Analyzer ||
					(p.Analyzer == f.Analyzer && p.Message <= f.Message)))))
		if !after {
			t.Errorf("findings[%d] out of order: %v then %v", i, p, f)
		}
	}
	if len(passes) < 3 {
		t.Errorf("fixture tripped only %d passes, want >= 3 to exercise ordering", len(passes))
	}
}

// TestSARIFMinimalSchema writes the fixture findings as SARIF and checks
// the document against the minimal schema CI tooling relies on.
func TestSARIFMinimalSchema(t *testing.T) {
	findings := runOnce(t)
	path := filepath.Join(t.TempDir(), "out.sarif")
	if err := writeSARIF(path, findings); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("SARIF is not valid JSON: %v", err)
	}
	if log.Schema == "" || log.Version != "2.1.0" {
		t.Errorf("bad $schema/version: %q / %q", log.Schema, log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "slimio-vet" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		if r.ID == "" || r.ShortDescription.Text == "" {
			t.Errorf("rule %+v missing id or shortDescription.text", r)
		}
		ruleIDs[r.ID] = true
	}
	if len(run.Results) != len(findings) {
		t.Fatalf("got %d results, want %d", len(run.Results), len(findings))
	}
	for i, r := range run.Results {
		if !ruleIDs[r.RuleID] {
			t.Errorf("result %d ruleId %q not declared in driver rules", i, r.RuleID)
		}
		if r.Level != "error" || r.Message.Text == "" {
			t.Errorf("result %d missing level/message: %+v", i, r)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result %d has %d locations, want 1", i, len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" || loc.Region.StartLine < 1 || loc.Region.StartColumn < 1 {
			t.Errorf("result %d has incomplete location: %+v", i, loc)
		}
	}

	// The artifact must be as reproducible as the text output.
	again := filepath.Join(t.TempDir(), "again.sarif")
	if err := writeSARIF(again, runOnce(t)); err != nil {
		t.Fatal(err)
	}
	data2, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("two SARIF exports of the same fixture differ byte-for-byte")
	}
}
