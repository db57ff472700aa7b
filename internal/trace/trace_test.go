package trace

import (
	"math"
	"slices"
	"sync"
	"testing"

	"revnf/internal/core"
)

func req(id int) core.Request {
	return core.Request{ID: id, VNF: 1, Reliability: 0.95, Arrival: 1, Duration: 2, Payment: 10}
}

func attemptRecord(id int, admit bool, reason Reason) *DecisionTrace {
	dt := NewDecision(req(id), "test-sched", "onsite")
	pt := ProposeTrace{Scheduler: "test-sched", Scheme: "onsite", Admit: admit}
	if !admit {
		pt.Reason = reason
	}
	dt.Attempts = []ProposeTrace{pt}
	return dt
}

func TestNopRecorder(t *testing.T) {
	if Nop.Sample(0) || Nop.Sample(7) {
		t.Fatal("Nop.Sample must always be false")
	}
	Nop.Record(nil) // must not panic
}

func TestSamplingDeterminism(t *testing.T) {
	s := NewSampling(NewStore(8), 10)
	for id := 0; id < 100; id++ {
		want := id%10 == 0
		if got := s.Sample(id); got != want {
			t.Fatalf("Sample(%d) = %v, want %v", id, got, want)
		}
		// Deterministic: same answer on every call.
		if got := s.Sample(id); got != (id%10 == 0) {
			t.Fatalf("Sample(%d) not deterministic", id)
		}
	}
}

func TestSamplingEveryOneReturnsInner(t *testing.T) {
	st := NewStore(4)
	if got := NewSampling(st, 1); got != Recorder(st) {
		t.Fatalf("NewSampling(st, 1) = %v, want the inner store", got)
	}
	if got := NewSampling(st, 0); got != Recorder(st) {
		t.Fatalf("NewSampling(st, 0) = %v, want the inner store", got)
	}
}

func TestStoreEvictionFIFO(t *testing.T) {
	s := NewStore(3)
	for id := 1; id <= 5; id++ {
		s.Record(attemptRecord(id, false, ReasonPricedOut))
	}
	// Capacity 3, five inserts: 1 and 2 evicted, 3..5 resident.
	for _, id := range []int{1, 2} {
		if _, ok := s.Get(id); ok {
			t.Fatalf("request %d should have been evicted", id)
		}
	}
	for _, id := range []int{3, 4, 5} {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("request %d should be resident", id)
		}
	}
	st := s.Stats()
	if st.Evicted != 2 || st.Len != 3 || st.Recorded != 5 || st.Capacity != 3 {
		t.Fatalf("stats = %+v, want Evicted 2, Len 3, Recorded 5, Capacity 3", st)
	}
}

func TestStoreReRecordDoesNotRefreshEvictionOrder(t *testing.T) {
	s := NewStore(2)
	s.Record(attemptRecord(1, false, ReasonPricedOut))
	s.Record(attemptRecord(2, false, ReasonPricedOut))
	// Re-record 1 (a retry attempt): must not move it to the back.
	s.Record(attemptRecord(1, false, ReasonPricedOut))
	s.Record(attemptRecord(3, false, ReasonPricedOut))
	if _, ok := s.Get(1); ok {
		t.Fatal("request 1 should have been evicted as the oldest insertion")
	}
	if _, ok := s.Get(2); !ok {
		t.Fatal("request 2 should still be resident")
	}
	dt, _ := s.Get(3)
	if dt.Request != 3 {
		t.Fatalf("Get(3).Request = %d", dt.Request)
	}
}

// eventRecord is a runtime annotation: outcome only, no attempts, no
// request metadata — the shape the serve engine emits for failure/repair
// events slots after the decision.
func eventRecord(id int, outcome Reason) *DecisionTrace {
	return &DecisionTrace{Request: id, Outcome: outcome, Admitted: true}
}

func TestStoreEventMergeDoesNotResurrectEvicted(t *testing.T) {
	s := NewStore(2)
	s.Record(attemptRecord(1, true, ""))
	s.Record(attemptRecord(2, true, ""))
	s.Record(attemptRecord(3, true, "")) // evicts 1
	if _, ok := s.Get(1); ok {
		t.Fatal("request 1 should have been evicted")
	}
	// A late runtime annotation for the evicted decision must be dropped,
	// not inserted as a fresh (empty-shell) trace.
	s.Record(eventRecord(1, ReasonRepaired))
	if _, ok := s.Get(1); ok {
		t.Fatal("event-only record resurrected an evicted trace")
	}
	// ...and must not have evicted a live trace to make room.
	for _, id := range []int{2, 3} {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("request %d evicted by a dropped event record", id)
		}
	}
	st := s.Stats()
	if st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
	if st.Recorded != 3 {
		t.Fatalf("Recorded = %d, want 3 (dropped events are not recorded)", st.Recorded)
	}
	// The same annotation for a resident decision merges normally.
	s.Record(eventRecord(3, ReasonDegraded))
	dt, ok := s.Get(3)
	if !ok || dt.Outcome != ReasonDegraded || !dt.Admitted {
		t.Fatalf("resident event merge: %+v, %v", dt, ok)
	}
}

// TestStoreEventMergeRacesEviction drives concurrent decision inserts
// (which evict FIFO) against event annotations for old IDs; under -race
// this is the data-race check for the drop path, and the final state must
// hold no empty-shell entries (every resident trace has attempts).
func TestStoreEventMergeRacesEviction(t *testing.T) {
	s := NewStore(16)
	const writers = 4
	const perWriter = 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := w*perWriter + i
				s.Record(attemptRecord(id, true, ""))
				if old := id - 64; old >= 0 {
					// Annotate a decision likely evicted by now.
					s.Record(eventRecord(old, ReasonFailed))
				}
			}
		}(w)
	}
	wg.Wait()
	for id := 0; id < writers*perWriter; id++ {
		dt, ok := s.Get(id)
		if !ok {
			continue
		}
		if len(dt.Attempts) == 0 {
			t.Fatalf("request %d resident as an empty shell: %+v", id, dt)
		}
	}
	if st := s.Stats(); st.Len != 16 {
		t.Fatalf("Len = %d, want full ring 16", st.Len)
	}
}

func TestStoreMergeAttemptsAndOutcome(t *testing.T) {
	s := NewStore(4)
	// Two scheduler attempts (a sharded retry), then the engine outcome.
	s.Record(attemptRecord(7, false, ReasonPricedOut))
	s.Record(attemptRecord(7, true, ""))
	fin := NewDecision(req(7), "test-sched", "onsite")
	fin.Slot = 3
	fin.Outcome = ReasonAdmitted
	fin.Admitted = true
	fin.Assignments = []core.Assignment{{Cloudlet: 2, Instances: 1}}
	s.Record(fin)

	dt, ok := s.Get(7)
	if !ok {
		t.Fatal("trace 7 missing")
	}
	if len(dt.Attempts) != 2 {
		t.Fatalf("attempts = %d, want 2", len(dt.Attempts))
	}
	if dt.Attempts[0].Attempt != 1 || dt.Attempts[1].Attempt != 2 {
		t.Fatalf("attempt numbering = %d,%d, want 1,2", dt.Attempts[0].Attempt, dt.Attempts[1].Attempt)
	}
	if !dt.Admitted || dt.Outcome != ReasonAdmitted || dt.Slot != 3 {
		t.Fatalf("outcome not finalized: %+v", dt)
	}
	if len(dt.Assignments) != 1 || dt.Assignments[0].Cloudlet != 2 {
		t.Fatalf("assignments = %+v", dt.Assignments)
	}
	if dt.FinalReason() != ReasonAdmitted {
		t.Fatalf("FinalReason = %q", dt.FinalReason())
	}
}

func TestStoreBatchPathAdmitFromLastAttempt(t *testing.T) {
	s := NewStore(4)
	s.Record(attemptRecord(9, true, ""))
	dt, _ := s.Get(9)
	if !dt.Admitted {
		t.Fatal("batch path should set Admitted from the attempt verdict")
	}
	if dt.Outcome != "" {
		t.Fatalf("batch path must leave Outcome empty, got %q", dt.Outcome)
	}
	if dt.FinalReason() != ReasonAdmitted {
		t.Fatalf("FinalReason = %q, want admitted", dt.FinalReason())
	}
}

func TestFinalReason(t *testing.T) {
	empty := &DecisionTrace{}
	if empty.FinalReason() != "" {
		t.Fatalf("empty trace FinalReason = %q", empty.FinalReason())
	}
	rejected := attemptRecord(1, false, ReasonInsufficientWeight)
	if rejected.FinalReason() != ReasonInsufficientWeight {
		t.Fatalf("FinalReason = %q, want insufficient-weight", rejected.FinalReason())
	}
	rejected.Outcome = ReasonDeclined
	if rejected.FinalReason() != ReasonDeclined {
		t.Fatalf("engine outcome must win: %q", rejected.FinalReason())
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewStore(2)
	fin := NewDecision(req(4), "test-sched", "onsite")
	fin.Outcome = ReasonAdmitted
	fin.Admitted = true
	fin.Assignments = []core.Assignment{{Cloudlet: 1, Instances: 2}}
	s.Record(fin)
	a, _ := s.Get(4)
	a.Assignments[0].Cloudlet = 99
	b, _ := s.Get(4)
	if b.Assignments[0].Cloudlet != 1 {
		t.Fatal("Get must return an isolated copy of Assignments")
	}
}

// TestStoreConcurrentWriters hammers the store from many goroutines; run
// under -race this is the data-race check for the ring and the merge path.
func TestStoreConcurrentWriters(t *testing.T) {
	s := NewStore(64)
	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := w*perWriter + i
				s.Record(attemptRecord(id, i%2 == 0, ReasonPricedOut))
				if i%3 == 0 {
					_, _ = s.Get(id)
				}
				if i%17 == 0 {
					_ = s.Stats()
					_ = s.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Recorded != writers*perWriter {
		t.Fatalf("recorded = %d, want %d", st.Recorded, writers*perWriter)
	}
	if st.Len != 64 {
		t.Fatalf("len = %d, want full ring 64", st.Len)
	}
	if st.Evicted != writers*perWriter-64 {
		t.Fatalf("evicted = %d, want %d", st.Evicted, writers*perWriter-64)
	}
}

// TestRecordAttemptDerivation checks each rule RecordAttempt derives from
// an attempt's own fields: the rejection reason, the zeroed cost without a
// winner, the payment and the chosen marks.
func TestRecordAttemptDerivation(t *testing.T) {
	inf := math.Inf(1)
	priced := Candidate{Cloudlet: 0, Skip: SkipPricedOut}
	open := func(j int) Candidate { return Candidate{Cloudlet: j} }
	for _, tc := range []struct {
		name string
		pt   ProposeTrace
		want Reason
	}{
		{"all priced out", ProposeTrace{BestCloudlet: -1, BestCost: inf, NeedWeight: 2, Candidates: []Candidate{priced, priced}}, ReasonPricedOut},
		{"no winner", ProposeTrace{BestCloudlet: -1, BestCost: inf, Candidates: []Candidate{priced, {Cloudlet: 1, Skip: SkipCapacity}}}, ReasonNoFeasibleCloudlet},
		{"no candidates", ProposeTrace{BestCloudlet: -1, BestCost: inf}, ReasonNoFeasibleCloudlet},
		{"short of weight", ProposeTrace{BestCloudlet: 1, BestCost: 3, NeedWeight: 2, Candidates: []Candidate{open(1)}}, ReasonInsufficientWeight},
		{"payment test", ProposeTrace{BestCloudlet: 1, BestCost: 30, Candidates: []Candidate{open(1)}}, ReasonPricedOut},
		{"preset", ProposeTrace{BestCloudlet: -1, BestCost: inf, Reason: ReasonHorizon}, ReasonHorizon},
	} {
		s := NewStore(1)
		RecordAttempt(s, req(1), tc.pt, []core.Assignment{{Cloudlet: 1, Instances: 1}})
		dt, _ := s.Get(1)
		a := dt.Attempts[0]
		if a.Reason != tc.want || a.Payment != 10 || len(dt.Assignments) != 0 {
			t.Errorf("%s: reason %q payment %v assignments %v, want %q 10 none", tc.name, a.Reason, a.Payment, dt.Assignments, tc.want)
		}
		want := tc.pt.BestCost
		if tc.pt.BestCloudlet < 0 {
			want = 0
		}
		if a.BestCost != want {
			t.Errorf("%s: best cost %v, want %v", tc.name, a.BestCost, want)
		}
		for _, c := range a.Candidates {
			if c.Chosen {
				t.Errorf("%s: rejection marked cloudlet %d chosen", tc.name, c.Cloudlet)
			}
		}
	}

	s := NewStore(1)
	pt := ProposeTrace{BestCloudlet: 1, BestCost: 3, Admit: true, Candidates: []Candidate{
		open(0), {Cloudlet: 1, Skip: SkipCapacity}, open(1), open(2), {Cloudlet: 3, Chosen: true}}}
	RecordAttempt(s, req(1), pt, []core.Assignment{{Cloudlet: 1, Instances: 1}, {Cloudlet: 2, Instances: 1}})
	dt, _ := s.Get(1)
	var chosen []bool
	for _, c := range dt.Attempts[0].Candidates {
		chosen = append(chosen, c.Chosen)
	}
	if want := []bool{false, false, true, true, true}; !slices.Equal(chosen, want) || dt.Attempts[0].Reason != "" || len(dt.Assignments) != 2 {
		t.Errorf("admit: chosen %v reason %q assignments %v, want %v, no reason, two assignments", chosen, dt.Attempts[0].Reason, dt.Assignments, want)
	}
}
