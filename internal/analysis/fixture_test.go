package analysis

import "testing"

func TestGuardedby(t *testing.T) {
	runFixtures(t, guardedby, "gb", "gbclean")
}

func TestLockorder(t *testing.T) {
	// The revnf/internal/... fixtures impersonate real repository packages
	// so their lock classes land in the check's canonical order table.
	runFixtures(t, lockorder,
		"lo", "loclean", "revnf/internal/timeslot", "revnf/internal/serve", "revnf/internal/shared")
}
