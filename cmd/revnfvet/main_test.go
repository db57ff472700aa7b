package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestListNamesEveryAnalyzer(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, errOut.String())
	}
	names := []string{"floateq", "guardedby", "lockorder"}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(names) {
		t.Errorf("-list printed %d analyzers, want %d:\n%s", len(lines), len(names), out.String())
	}
	for _, name := range names {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out.String())
		}
	}
}

// TestCleanPackages runs the full suite over real repository packages; the
// tree is kept clean, so the driver must exit 0 with no findings.
func TestCleanPackages(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"revnf/internal/analysis/...", "revnf/internal/core", "revnf/internal/timeslot"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("run = %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("unexpected findings:\n%s", out.String())
	}
}

func TestRunSubset(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-run", "floateq,lockorder", "revnf/internal/core"}, &out, &errOut); code != 0 {
		t.Fatalf("run(-run floateq,lockorder) = %d, stderr: %s", code, errOut.String())
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-run", "nosuchpass", "revnf/internal/core"}, &out, &errOut); code != 2 {
		t.Fatalf("run(-run nosuchpass) = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Errorf("stderr missing unknown-analyzer message: %s", errOut.String())
	}
}

// TestJSONCleanTree pins the machine-readable form: a clean run emits a
// valid, empty JSON array (not empty output) and still exits 0.
func TestJSONCleanTree(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-json", "revnf/internal/core"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("run(-json) = %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	var rows []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &rows); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(rows) != 0 {
		t.Errorf("unexpected findings in JSON report: %+v", rows)
	}
}

func TestBadPattern(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"./no/such/dir/..."}, &out, &errOut); code != 2 {
		t.Fatalf("run(bad pattern) = %d, want 2", code)
	}
}
