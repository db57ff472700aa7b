package main

import (
	"strings"
	"testing"
)

// fastArgs shrink every sweep so the suite stays quick.
func fastArgs(extra ...string) []string {
	base := []string{
		"-cloudlets", "4",
		"-requests", "20,40",
		"-load", "40",
		"-horizon", "20",
		"-seeds", "1",
		"-hs", "1,5",
		"-ks", "1.0,1.1",
		"-optimal", "none",
	}
	return append(base, extra...)
}

func TestRunFig1a(t *testing.T) {
	var sb strings.Builder
	if err := run(fastArgs("-fig", "1a"), &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 1a", "pd-onsite", "greedy-onsite"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFig1bCSV(t *testing.T) {
	var sb strings.Builder
	if err := run(fastArgs("-fig", "1b", "-csv"), &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "requests,pd-offsite,greedy-offsite") {
		t.Errorf("CSV header missing:\n%s", out)
	}
}

func TestRunFig2aWithLPBound(t *testing.T) {
	var sb strings.Builder
	if err := run(fastArgs("-fig", "2a", "-optimal", "lp"), &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "optimal(lp-bound)") {
		t.Errorf("LP bound column missing:\n%s", sb.String())
	}
}

func TestRunFig2b(t *testing.T) {
	var sb strings.Builder
	if err := run(fastArgs("-fig", "2b"), &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "Figure 2b") {
		t.Errorf("figure title missing:\n%s", sb.String())
	}
}

func TestRunAblations(t *testing.T) {
	var sb strings.Builder
	if err := run(fastArgs("-fig", "ablations"), &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"demand scaling", "pd-onsite-additive", "pd-offsite-relsort", "node budget"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunAll(t *testing.T) {
	var sb strings.Builder
	if err := run(fastArgs("-fig", "all"), &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 1a", "Figure 1b", "Figure 2a", "Figure 2b", "Ablation"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunBBOptimal(t *testing.T) {
	var sb strings.Builder
	args := []string{
		"-fig", "1a", "-cloudlets", "3", "-requests", "10",
		"-horizon", "10", "-seeds", "1", "-optimal", "bb", "-optnodes", "50",
	}
	if err := run(args, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "optimal(bb)") {
		t.Errorf("B&B column missing:\n%s", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fig", "nope"}, &sb); err == nil {
		t.Error("unknown figure did not error")
	}
	if err := run([]string{"-optimal", "nope"}, &sb); err == nil {
		t.Error("unknown optimal mode did not error")
	}
	if err := run([]string{"-requests", "abc"}, &sb); err == nil {
		t.Error("bad request list did not error")
	}
	if err := run([]string{"-hs", "x"}, &sb); err == nil {
		t.Error("bad hs list did not error")
	}
	if err := run([]string{"-ks", ""}, &sb); err == nil {
		t.Error("empty ks list did not error")
	}
	// A negative pool size used to run the default silently.
	if err := run([]string{"-fig", "shared", "-poolsize", "-3"}, &sb); err == nil || !strings.Contains(err.Error(), "-poolsize") {
		t.Errorf("negative -poolsize: err = %v, want one naming the flag", err)
	}
}

func TestRunChains(t *testing.T) {
	var sb strings.Builder
	if err := run(fastArgs("-fig", "chains"), &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "pd-chain-onsite") {
		t.Errorf("chain table missing:\n%s", sb.String())
	}
}

func TestRunTheory(t *testing.T) {
	var sb strings.Builder
	if err := run(fastArgs("-fig", "theory"), &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "Lemma 8") || !strings.Contains(out, "decisions per second") {
		t.Errorf("theory tables missing:\n%s", out)
	}
}

func TestRunSeedList(t *testing.T) {
	var sb strings.Builder
	if err := run(fastArgs("-fig", "1a", "-seedlist", "5,9"), &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "seeds=2") {
		t.Errorf("seed list not applied:\n%s", sb.String())
	}
	if err := run(fastArgs("-fig", "1a", "-seedlist", "x"), &sb); err == nil {
		t.Error("bad seed list did not error")
	}
}
