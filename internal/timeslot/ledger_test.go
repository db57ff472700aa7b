package timeslot

import (
	"errors"
	"math/rand"
	"testing"

	"revnf/internal/core"
)

func newTestLedger(t *testing.T) *Ledger {
	t.Helper()
	l, err := New([]int{10, 5}, 8)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return l
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, 5); !errors.Is(err, ErrBadCloudlet) {
		t.Errorf("New(nil) err = %v, want ErrBadCloudlet", err)
	}
	if _, err := New([]int{5}, 0); !errors.Is(err, ErrBadSlot) {
		t.Errorf("New(horizon 0) err = %v, want ErrBadSlot", err)
	}
	if _, err := New([]int{5, 0}, 3); !errors.Is(err, ErrBadUnits) {
		t.Errorf("New(zero capacity) err = %v, want ErrBadUnits", err)
	}
}

func TestAccessors(t *testing.T) {
	l := newTestLedger(t)
	if l.Window() != 8 || l.Cloudlets() != 2 {
		t.Fatalf("Window/Cloudlets = %d/%d, want 8/2", l.Window(), l.Cloudlets())
	}
	if l.Capacity(0) != 10 || l.Capacity(1) != 5 || l.Capacity(2) != 0 || l.Capacity(-1) != 0 {
		t.Error("Capacity accessor wrong")
	}
	if l.Used(0, 1) != 0 || l.Used(0, 0) != 0 || l.Used(0, 9) != 0 || l.Used(5, 1) != 0 {
		t.Error("Used accessor wrong on empty/out-of-range")
	}
	if l.Residual(0, 1) != 10 || l.Residual(9, 1) != 0 || l.Residual(0, 99) != 0 {
		t.Error("Residual accessor wrong")
	}
}

func TestReserveAndRelease(t *testing.T) {
	l := newTestLedger(t)
	if err := l.Reserve(0, 2, 3, 4); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	for tt := 1; tt <= 8; tt++ {
		want := 0
		if tt >= 2 && tt <= 4 {
			want = 4
		}
		if got := l.Used(0, tt); got != want {
			t.Errorf("Used(0,%d) = %d, want %d", tt, got, want)
		}
	}
	if got := l.ResidualWindow(0, 1, 8); got != 6 {
		t.Errorf("ResidualWindow = %d, want 6", got)
	}
	if err := l.Release(0, 2, 3, 4); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if got := l.ResidualWindow(0, 1, 8); got != 10 {
		t.Errorf("after release ResidualWindow = %d, want 10", got)
	}
}

func TestReserveOverCapacity(t *testing.T) {
	l := newTestLedger(t)
	if err := l.Reserve(1, 1, 4, 4); err != nil {
		t.Fatalf("first Reserve: %v", err)
	}
	err := l.Reserve(1, 3, 2, 2) // slot 3-4 already at 4/5, adding 2 exceeds
	if !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("Reserve over capacity err = %v, want ErrOverCapacity", err)
	}
	// Failed reserve must not mutate state.
	if got := l.Used(1, 3); got != 4 {
		t.Errorf("Used(1,3) after failed reserve = %d, want 4", got)
	}
}

func TestCanReserve(t *testing.T) {
	l := newTestLedger(t)
	if !l.CanReserve(1, 1, 8, 5) {
		t.Error("CanReserve full capacity window = false, want true")
	}
	if l.CanReserve(1, 1, 8, 6) {
		t.Error("CanReserve over capacity = true, want false")
	}
	if l.CanReserve(1, 1, 8, 0) {
		t.Error("CanReserve zero units = true, want false")
	}
	if l.CanReserve(1, 6, 4, 1) {
		t.Error("CanReserve window past horizon = true, want false")
	}
}

func TestForceReserveAndViolations(t *testing.T) {
	l := newTestLedger(t)
	if err := l.ForceReserve(1, 2, 2, 8); err != nil {
		t.Fatalf("ForceReserve: %v", err)
	}
	vs := l.Violations()
	if len(vs) != 2 {
		t.Fatalf("Violations() = %v, want 2 cells", vs)
	}
	v := vs[0]
	if v.Cloudlet != 1 || v.Slot != 2 || v.Used != 8 || v.Capacity != 5 {
		t.Errorf("violation = %+v", v)
	}
	if got := l.MaxViolationRatio(); !core.FloatEqTol(got, 1.6, 1e-12) {
		t.Errorf("MaxViolationRatio() = %v, want 1.6", got)
	}
}

func TestReleaseUnderflow(t *testing.T) {
	l := newTestLedger(t)
	if err := l.Reserve(0, 1, 2, 3); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if err := l.Release(0, 1, 3, 3); !errors.Is(err, ErrUnderflow) {
		t.Fatalf("Release past reservation err = %v, want ErrUnderflow", err)
	}
	// Failed release must not mutate state.
	if got := l.Used(0, 1); got != 3 {
		t.Errorf("Used(0,1) after failed release = %d, want 3", got)
	}
}

func TestArgumentChecks(t *testing.T) {
	l := newTestLedger(t)
	tests := []struct {
		name                             string
		cloudlet, start, duration, units int
		wantErr                          error
	}{
		{"bad cloudlet", 7, 1, 1, 1, ErrBadCloudlet},
		{"negative cloudlet", -1, 1, 1, 1, ErrBadCloudlet},
		{"start zero", 0, 0, 1, 1, ErrBadSlot},
		{"duration zero", 0, 1, 0, 1, ErrBadSlot},
		{"past horizon", 0, 8, 2, 1, ErrBadSlot},
		{"zero units", 0, 1, 1, 0, ErrBadUnits},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := l.Reserve(tt.cloudlet, tt.start, tt.duration, tt.units); !errors.Is(err, tt.wantErr) {
				t.Errorf("Reserve err = %v, want %v", err, tt.wantErr)
			}
			if err := l.ForceReserve(tt.cloudlet, tt.start, tt.duration, tt.units); !errors.Is(err, tt.wantErr) {
				t.Errorf("ForceReserve err = %v, want %v", err, tt.wantErr)
			}
			if err := l.Release(tt.cloudlet, tt.start, tt.duration, tt.units); !errors.Is(err, tt.wantErr) {
				t.Errorf("Release err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestUtilizationAndPeak(t *testing.T) {
	l := newTestLedger(t)
	if got := l.Utilization(); got != 0 {
		t.Fatalf("empty Utilization = %v, want 0", got)
	}
	// Fill cloudlet 0 (cap 10) with 5 units for all 8 slots: ratio 0.5 on
	// half the cells → overall utilization 0.25.
	if err := l.Reserve(0, 1, 8, 5); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if got := l.Utilization(); !core.FloatEqTol(got, 0.25, 1e-12) {
		t.Errorf("Utilization = %v, want 0.25", got)
	}
}

func TestClone(t *testing.T) {
	l := newTestLedger(t)
	if err := l.Reserve(0, 1, 2, 3); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	c := l.Clone()
	if err := c.Reserve(0, 1, 2, 3); err != nil {
		t.Fatalf("clone Reserve: %v", err)
	}
	if l.Used(0, 1) != 3 || c.Used(0, 1) != 6 {
		t.Errorf("clone not independent: orig %d clone %d", l.Used(0, 1), c.Used(0, 1))
	}
}

// Property: a random sequence of successful reserves and matching releases
// returns the ledger to empty, and usage never exceeds capacity when only
// Reserve (not ForceReserve) is used.
func TestLedgerInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		caps := []int{1 + rng.Intn(20), 1 + rng.Intn(20), 1 + rng.Intn(20)}
		horizon := 1 + rng.Intn(30)
		l, err := New(caps, horizon)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		type res struct{ c, s, d, u int }
		var held []res
		for op := 0; op < 100; op++ {
			c := rng.Intn(3)
			s := 1 + rng.Intn(horizon)
			d := 1 + rng.Intn(horizon-s+1)
			u := 1 + rng.Intn(caps[c])
			if l.CanReserve(c, s, d, u) {
				if err := l.Reserve(c, s, d, u); err != nil {
					t.Fatalf("Reserve after CanReserve: %v", err)
				}
				held = append(held, res{c, s, d, u})
			}
			// Invariant: no violations without ForceReserve.
			if len(l.Violations()) != 0 {
				t.Fatalf("violations without ForceReserve: %v", l.Violations())
			}
		}
		for _, r := range held {
			if err := l.Release(r.c, r.s, r.d, r.u); err != nil {
				t.Fatalf("Release: %v", err)
			}
		}
		for c := 0; c < 3; c++ {
			for s := 1; s <= horizon; s++ {
				if l.Used(c, s) != 0 {
					t.Fatalf("ledger not empty after releases: cloudlet %d slot %d used %d", c, s, l.Used(c, s))
				}
			}
		}
	}
}
