package lockorder_test

import (
	"testing"

	"revnf/internal/analysis/analysistest"
	"revnf/internal/analysis/lockorder"
)

func TestLockorder(t *testing.T) {
	// The revnf/internal/... fixtures impersonate real repository packages
	// so their lock classes land in the analyzer's canonical order table.
	analysistest.Run(t, "testdata", lockorder.Analyzer,
		"lo", "loclean", "revnf/internal/timeslot", "revnf/internal/serve", "revnf/internal/shared")
}
