package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunPDOnsite(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-algorithm", "pd", "-scheme", "onsite", "-requests", "50", "-seed", "1"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"pd-onsite", "revenue:", "competitive ratio", "violation bound"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	cases := []struct{ algorithm, scheme string }{
		{"pd", "onsite"}, {"raw", "onsite"}, {"greedy", "onsite"},
		{"firstfit", "onsite"}, {"random", "onsite"},
		{"pd", "offsite"}, {"greedy", "offsite"},
	}
	for _, tc := range cases {
		t.Run(tc.algorithm+"-"+tc.scheme, func(t *testing.T) {
			var sb strings.Builder
			err := run([]string{
				"-algorithm", tc.algorithm, "-scheme", tc.scheme,
				"-requests", "40", "-seed", "2",
			}, &sb)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !strings.Contains(sb.String(), "revenue:") {
				t.Errorf("output missing revenue:\n%s", sb.String())
			}
		})
	}
}

func TestRunWithFailureInjection(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-requests", "30", "-failure-trials", "500"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "failure injection") {
		t.Errorf("output missing failure injection:\n%s", sb.String())
	}
}

func TestRunFromInstanceFile(t *testing.T) {
	// Generate an instance with workloadgen-equivalent code paths: write
	// via the simulator flags instead by generating through run of
	// vnfsim? Simplest: produce the file with the workload generator in
	// this process.
	path := filepath.Join(t.TempDir(), "inst.json")
	if err := writeTestInstance(t, path); err != nil {
		t.Fatalf("writeTestInstance: %v", err)
	}
	var sb strings.Builder
	if err := run([]string{"-instance", path, "-algorithm", "greedy", "-scheme", "onsite"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "greedy-onsite") {
		t.Errorf("output missing algorithm name:\n%s", sb.String())
	}
}

func writeTestInstance(t *testing.T, path string) error {
	t.Helper()
	inst, err := loadOrGenerate("", "", 3, 20, 15, 9)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		_ = f.Close()
	}()
	return inst.Save(f)
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scheme", "nope"}, &sb); err == nil {
		t.Error("bad scheme did not error")
	}
	if err := run([]string{"-algorithm", "nope"}, &sb); err == nil {
		t.Error("bad algorithm did not error")
	}
	if err := run([]string{"-algorithm", "raw", "-scheme", "offsite"}, &sb); err == nil {
		t.Error("raw off-site did not error")
	}
	if err := run([]string{"-instance", "/does/not/exist.json"}, &sb); err == nil {
		t.Error("missing instance file did not error")
	}
	// A negative pool size used to run the default silently.
	if err := run([]string{"-scheme", "shared", "-pool-size", "-3"}, &sb); err == nil || !strings.Contains(err.Error(), "-pool-size") {
		t.Errorf("negative -pool-size: err = %v, want one naming the flag", err)
	}
}

func TestRunTimeline(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-requests", "30", "-timeline-mttr", "3"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "failure timeline") {
		t.Errorf("output missing timeline:\n%s", sb.String())
	}
}

func TestRunQoS(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-requests", "30", "-scheme", "offsite", "-qos"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "qos on") {
		t.Errorf("output missing qos line:\n%s", sb.String())
	}
	if err := run([]string{"-requests", "10", "-qos", "-topology", "nope"}, &sb); err == nil {
		t.Error("unknown topology with -qos did not error")
	}
}
