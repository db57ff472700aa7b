package trace

import "sync"

// Store is a bounded, race-safe decision-trace store: a ring buffer of
// the most recent traced decisions, keyed by request ID. It implements
// Recorder (Sample always true — put a Sampling wrapper in front to
// thin the stream) and merges multiple Record calls for one request into
// a single DecisionTrace: scheduler-layer Propose attempts append, and
// the engine-layer outcome record finalizes.
//
// Eviction is FIFO by first insertion: when a new request ID arrives at
// capacity, the oldest traced request is dropped. Re-recording an ID
// already in the store (a retry attempt, the outcome) does not refresh
// its eviction position — a decision's records arrive within one
// submission, so insertion order is decision order. The exception is the
// failure runtime's event-only annotations (failed/repaired/degraded),
// which arrive slots after the decision: they merge into resident traces
// but never create an entry, so a merge racing FIFO eviction cannot
// resurrect an already-evicted trace.
type Store struct {
	mu      sync.Mutex
	entries map[int]*DecisionTrace // guarded by mu
	// ring holds the resident request IDs in insertion order: the oldest
	// lives at index head, wrapping modulo the capacity. The slice header
	// is immutable after NewStore; mu guards the elements and cursor.
	ring  []int // guarded by mu
	head  int   // guarded by mu
	count int   // guarded by mu

	recorded uint64 // guarded by mu
	evicted  uint64 // guarded by mu
	dropped  uint64 // guarded by mu
}

// StoreStats is a consistent snapshot of the store's counters.
type StoreStats struct {
	// Recorded counts Record calls accepted since creation.
	Recorded uint64
	// Evicted counts traces dropped to make room.
	Evicted uint64
	// Dropped counts event-only records (runtime annotations with no
	// attempts and no request metadata) refused because their decision was
	// no longer resident — merging them would have resurrected an evicted
	// trace.
	Dropped uint64
	// Len and Capacity describe current occupancy.
	Len, Capacity int
}

// NewStore creates a store holding at most capacity traced decisions.
// Capacity must be at least 1.
func NewStore(capacity int) *Store {
	if capacity < 1 {
		capacity = 1
	}
	return &Store{
		entries: make(map[int]*DecisionTrace, capacity),
		ring:    make([]int, capacity),
	}
}

// Sample implements Recorder: the store itself traces everything.
func (s *Store) Sample(int) bool { return true }

// Record implements Recorder, merging by request ID: attempts append in
// arrival order (the store numbers them), outcome fields overwrite when
// set, and request metadata fills in whichever record carries it.
func (s *Store) Record(t *DecisionTrace) {
	if t == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[t.Request]
	if !ok {
		if len(t.Attempts) == 0 && t.Duration == 0 {
			// Event-only record: no Propose attempts and no request
			// metadata, i.e. a runtime annotation (failed/repaired/
			// degraded) for a decision traced earlier. Such records may
			// arrive long after the decision — inserting one for an ID the
			// ring already evicted would resurrect the trace as an empty
			// shell and evict a live one, so they only merge into resident
			// entries and are dropped otherwise.
			s.dropped++
			return
		}
		if s.count == len(s.ring) {
			oldest := s.ring[s.head]
			delete(s.entries, oldest)
			s.evicted++
			s.count--
			s.head = (s.head + 1) % len(s.ring)
		}
		s.ring[(s.head+s.count)%len(s.ring)] = t.Request
		s.count++
		e = &DecisionTrace{Request: t.Request}
		s.entries[t.Request] = e
	}
	s.recorded++
	mergeInto(e, t)
}

// mergeInto folds one record into the resident trace.
func mergeInto(e, t *DecisionTrace) {
	if t.Scheduler != "" {
		e.Scheduler = t.Scheduler
	}
	if t.Scheme != "" {
		e.Scheme = t.Scheme
	}
	if t.VNF != 0 || t.Duration != 0 {
		e.VNF, e.Reliability, e.Arrival, e.Duration, e.Payment =
			t.VNF, t.Reliability, t.Arrival, t.Duration, t.Payment
	}
	if t.Slot != 0 {
		e.Slot = t.Slot
	}
	for _, a := range t.Attempts {
		a.Attempt = len(e.Attempts) + 1
		e.Attempts = append(e.Attempts, a)
	}
	if t.Outcome != "" {
		e.Outcome = t.Outcome
		e.Admitted = t.Admitted
		if len(t.Assignments) > 0 {
			e.Assignments = t.Assignments
		}
	} else if len(t.Attempts) > 0 && e.Outcome == "" {
		// Batch path: no engine finalization, the attempts speak.
		last := e.Attempts[len(e.Attempts)-1]
		e.Admitted = last.Admit
		if len(t.Assignments) > 0 {
			e.Assignments = t.Assignments
		}
	}
}

// Get returns a copy of the trace for a request ID. The copy's Attempts
// and Assignments slices are fresh, so callers may read them after
// concurrent Record calls; the Candidate slices inside attempts are
// shared but immutable once recorded.
func (s *Store) Get(id int) (DecisionTrace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return DecisionTrace{}, false
	}
	out := *e
	out.Attempts = append([]ProposeTrace(nil), e.Attempts...)
	out.Assignments = append(out.Assignments[:0:0], e.Assignments...)
	return out, true
}

// Len returns the number of resident traces.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Stats snapshots the store's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Recorded: s.recorded, Evicted: s.evicted, Dropped: s.dropped, Len: s.count, Capacity: len(s.ring)}
}
