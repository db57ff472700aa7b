package revnf

import (
	"errors"
	"math/rand"
	"testing"

	"revnf/internal/core"
)

// TestNewSchedulerHappyPaths builds every (scheme, algorithm) pair the
// functional-options constructor supports and checks the scheduler
// identity, so a wiring mistake in the option plumbing cannot silently
// swap algorithms.
func TestNewSchedulerHappyPaths(t *testing.T) {
	inst, err := NewInstance(DefaultInstanceConfig(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		scheme Scheme
		opts   []SchedulerOption
		name   string
	}{
		{OnSite, []SchedulerOption{WithHorizon(inst.Horizon)}, "pd-onsite"},
		{OnSite, []SchedulerOption{WithAlgorithm(PrimalDual), WithHorizon(inst.Horizon)}, "pd-onsite"},
		{OnSite, []SchedulerOption{WithAlgorithm(RawPrimalDual), WithHorizon(inst.Horizon)}, "pd-onsite-raw"},
		{OnSite, []SchedulerOption{WithAlgorithm(Greedy)}, "greedy-onsite"},
		{OnSite, []SchedulerOption{WithAlgorithm(FirstFit)}, "firstfit-onsite"},
		{OnSite, []SchedulerOption{WithAlgorithm(Random), WithRNG(rand.New(rand.NewSource(1)))}, "random-onsite"},
		{OffSite, []SchedulerOption{WithHorizon(inst.Horizon)}, "pd-offsite"},
		{OffSite, []SchedulerOption{WithAlgorithm(Greedy)}, "greedy-offsite"},
		{Shared, []SchedulerOption{WithHorizon(inst.Horizon)}, "pd-shared"},
		{Shared, []SchedulerOption{WithHorizon(inst.Horizon), WithSharedPoolSize(8)}, "pd-shared"},
	}
	for _, tc := range cases {
		sched, err := NewScheduler(inst.Network, tc.scheme, tc.opts...)
		if err != nil {
			t.Errorf("NewScheduler(%v, %s): %v", tc.scheme, tc.name, err)
			continue
		}
		if sched.Name() != tc.name {
			t.Errorf("scheduler name = %q, want %q", sched.Name(), tc.name)
		}
		if sched.Scheme() != tc.scheme {
			t.Errorf("%s: scheme = %v, want %v", tc.name, sched.Scheme(), tc.scheme)
		}
	}
}

// TestNewSchedulerErrors pins the invalid configurations to ErrBadScheduler.
func TestNewSchedulerErrors(t *testing.T) {
	inst, err := NewInstance(DefaultInstanceConfig(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		desc   string
		scheme Scheme
		opts   []SchedulerOption
	}{
		{"pd without horizon", OnSite, nil},
		{"raw without horizon", OnSite, []SchedulerOption{WithAlgorithm(RawPrimalDual)}},
		{"pd-offsite without horizon", OffSite, nil},
		{"random without rng", OnSite, []SchedulerOption{WithAlgorithm(Random)}},
		{"raw under offsite", OffSite, []SchedulerOption{WithAlgorithm(RawPrimalDual), WithHorizon(10)}},
		{"firstfit under offsite", OffSite, []SchedulerOption{WithAlgorithm(FirstFit)}},
		{"random under offsite", OffSite, []SchedulerOption{WithAlgorithm(Random), WithRNG(rand.New(rand.NewSource(1)))}},
		{"unknown algorithm", OnSite, []SchedulerOption{WithAlgorithm("simplex")}},
		{"unknown scheme", Scheme(99), []SchedulerOption{WithHorizon(10)}},
		{"pd-shared without horizon", Shared, nil},
		{"greedy under shared", Shared, []SchedulerOption{WithAlgorithm(Greedy)}},
		{"raw under shared", Shared, []SchedulerOption{WithAlgorithm(RawPrimalDual), WithHorizon(10)}},
		{"shared with bad pool size", Shared, []SchedulerOption{WithHorizon(10), WithSharedPoolSize(-1)}},
	}
	for _, tc := range cases {
		if _, err := NewScheduler(inst.Network, tc.scheme, tc.opts...); !errors.Is(err, ErrBadScheduler) {
			t.Errorf("%s: err = %v, want ErrBadScheduler", tc.desc, err)
		}
	}
}

// TestAlgorithmPredicates pins Valid — revnfd keys its flag validation off
// it — and that of the on-site schedulers only RawPrimalDual's carries the
// violation licence Run and the serve engine read off the scheduler.
func TestAlgorithmPredicates(t *testing.T) {
	inst, err := NewInstance(DefaultInstanceConfig(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Algorithm{PrimalDual, RawPrimalDual, Greedy, FirstFit, Random} {
		if !a.Valid() {
			t.Errorf("%q should be valid", a)
		}
		s, err := NewScheduler(inst.Network, OnSite, WithAlgorithm(a), WithHorizon(inst.Horizon),
			WithRNG(rand.New(rand.NewSource(1))))
		if err != nil {
			t.Fatalf("%q: %v", a, err)
		}
		lic, ok := s.(core.ViolationLicensee)
		if got, want := ok && lic.AllowsViolations(), a == RawPrimalDual; got != want {
			t.Errorf("%q AllowsViolations = %v, want %v", a, got, want)
		}
	}
	if Algorithm("simplex").Valid() || Algorithm("").Valid() {
		t.Error("unknown algorithms must not validate")
	}
}

// TestNewSchedulerNilRecorder checks WithRecorder(nil) keeps the no-op
// default rather than injecting a nil interface the hot path would call.
func TestNewSchedulerNilRecorder(t *testing.T) {
	inst, err := NewInstance(DefaultInstanceConfig(10), 1)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewScheduler(inst.Network, OnSite,
		WithHorizon(inst.Horizon), WithRecorder(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(inst, sched); err != nil {
		t.Fatalf("run with nil recorder: %v", err)
	}
}

// TestSamplingRecorderFacade drives NewSamplingRecorder over a run and
// checks only the sampled IDs land in the store.
func TestSamplingRecorderFacade(t *testing.T) {
	inst, err := NewInstance(DefaultInstanceConfig(40), 3)
	if err != nil {
		t.Fatal(err)
	}
	store := NewTraceStore(64)
	sched, err := NewScheduler(inst.Network, OnSite,
		WithHorizon(inst.Horizon), WithRecorder(NewSamplingRecorder(store, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(inst, sched); err != nil {
		t.Fatal(err)
	}
	for id := range inst.Trace {
		_, ok := store.Get(id)
		if want := id%4 == 0; ok != want {
			t.Errorf("request %d traced=%v, want %v", id, ok, want)
		}
	}
}
