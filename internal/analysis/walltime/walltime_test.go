package walltime_test

import (
	"testing"

	"revnf/internal/analysis/analysistest"
	"revnf/internal/analysis/walltime"
)

func TestWalltime(t *testing.T) {
	analysistest.Run(t, "testdata", walltime.Analyzer,
		"revnf/internal/onsite", "revnf/internal/experiments",
		"revnf/internal/chaos", "revnf/internal/repair", "revnf/internal/slo",
		"revnf/internal/shared")
}
