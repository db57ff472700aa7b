package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"revnf/internal/core"
	"revnf/internal/onsite"
)

// pointerFree reports whether a value of type t holds nothing the collector
// would have to follow.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// TestBookHistoryIsPointerFree walks the element types of the history and
// of the arena: a pointer, slice, string or interface field would put every
// chunk back on the collector's mark list.
func TestBookHistoryIsPointerFree(t *testing.T) {
	var b placementBook
	for name, chunks := range map[string]reflect.Type{
		"history": reflect.TypeOf(b.history),
		"arena":   reflect.TypeOf(b.arena),
	} {
		if elem := chunks.Elem().Elem(); !pointerFree(elem) {
			t.Errorf("%s element %v holds a pointer", name, elem)
		}
	}
	if pointerFree(reflect.TypeOf(PlacementRecord{})) {
		t.Error("pointerFree accepts PlacementRecord: the walk checks nothing")
	}
	if got := reflect.TypeOf(filedPlacement{}).Size(); got > 96 {
		t.Errorf("filedPlacement is %d B, want ≤ 96", got)
	}
}

// randomRecord draws what an admission would book under id.
func randomRecord(rng *rand.Rand, id int) PlacementRecord {
	req := core.Request{
		ID:          id,
		VNF:         rng.Intn(5),
		Reliability: 0.5 + rng.Float64()/2,
		Arrival:     1 + rng.Intn(1000),
		Duration:    1 + rng.Intn(10),
		Payment:     rng.Float64() * 100,
	}
	return PlacementRecord{
		ID:           id,
		Request:      req,
		Placement:    randomPlacement(rng, id),
		DecidedSlot:  req.Arrival - rng.Intn(2),
		State:        StateScheduled,
		ReservedFrom: req.Arrival,
	}
}

// randomPlacement draws 1–8 assignments, with a shared backup on every
// third draw.
func randomPlacement(rng *rand.Rand, id int) core.Placement {
	p := core.Placement{Request: id, Scheme: core.Scheme(1 + rng.Intn(3))}
	for n := 1 + rng.Intn(8); n > 0; n-- {
		p.Assignments = append(p.Assignments, core.Assignment{Cloudlet: rng.Intn(32), Instances: 1 + rng.Intn(6)})
	}
	if rng.Intn(3) == 0 {
		p.Backup = &core.SharedBackup{Group: 1 + rng.Intn(1<<40), Cloudlet: rng.Intn(32), PoolSize: 1 + rng.Intn(65535)}
	}
	return p
}

// oracleCopy detaches a record from the slices and pointers the book was
// handed.
func oracleCopy(rec PlacementRecord) PlacementRecord {
	rec.Placement.Assignments = append([]core.Assignment(nil), rec.Placement.Assignments...)
	if b := rec.Placement.Backup; b != nil {
		c := *b
		rec.Placement.Backup = &c
	}
	return rec
}

// samePlacement compares two placements field by field.
func samePlacement(a, b core.Placement) bool {
	if a.Request != b.Request || a.Scheme != b.Scheme || len(a.Assignments) != len(b.Assignments) ||
		(a.Backup == nil) != (b.Backup == nil) || (a.Backup != nil && *a.Backup != *b.Backup) {
		return false
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			return false
		}
	}
	return true
}

// sameRecord compares two records field by field.
func sameRecord(a, b PlacementRecord) bool {
	return a.ID == b.ID && a.Request == b.Request && a.DecidedSlot == b.DecidedSlot &&
		a.State == b.State && a.ReservedFrom == b.ReservedFrom && samePlacement(a.Placement, b.Placement)
}

// TestBookAgainstMapOracle drives the book the way the engine does — admit
// with IDs out of order by a bounded displacement, repairs and degraded
// marks on live records, expiry in random order — against a map of plain
// records, over enough admissions to cross chunk boundaries.
func TestBookAgainstMapOracle(t *testing.T) {
	const admissions = 40_000 // three history chunks
	for seed, displacement := range []int{0, 1, 7, 64, DefaultQueueSize + 4} {
		rng := rand.New(rand.NewSource(int64(seed + 1)))
		b := newPlacementBook()
		oracle := make(map[int]PlacementRecord, admissions)
		rejected := make([]int, 0, admissions)

		// Ascending IDs with gaps (rejections take IDs too), then delayed:
		// an ID is filed after at most `displacement` larger ones.
		ids := make([]int, admissions)
		next := 0
		for i := range ids {
			for next++; rng.Intn(3) == 0; next++ {
				rejected = append(rejected, next)
			}
			ids[i] = next
		}
		keys := make([]int, admissions)
		order := make([]int, admissions)
		for i := range keys {
			keys[i] = i + rng.Intn(displacement+1)
			order[i] = i
		}
		sort.SliceStable(order, func(x, y int) bool { return keys[order[x]] < keys[order[y]] })

		var live []int
		slot := 500
		check := func(id int) {
			want, ok := oracle[id]
			got, found := b.lookup(id, slot)
			if found != ok {
				t.Fatalf("seed %d: lookup(%d) found=%v, want %v", seed, id, found, ok)
			}
			if !sameRecord(got, want) {
				t.Fatalf("seed %d: lookup(%d)\n got %+v\nwant %+v", seed, id, got, want)
			}
		}
		for n, i := range order {
			rec := randomRecord(rng, ids[i])
			b.admit(rec.Request, rec.Placement, rec.DecidedSlot)
			rec.State = StateActive
			if slot < rec.Request.Arrival {
				rec.State = StateScheduled
			}
			oracle[rec.ID] = oracleCopy(rec)
			live = append(live, rec.ID)
			check(rec.ID)

			// Now and then the failure runtime touches a live record, and
			// about as often as admissions arrive a live record expires.
			pick := rng.Intn(len(live))
			id := live[pick]
			switch r := rng.Intn(16); {
			case r == 0: // a repair moves the footprint
				lr := b.live[id]
				lr.Placement = randomPlacement(rng, id)
				lr.ReservedFrom = lr.Request.Arrival + rng.Intn(lr.Request.Duration)
				b.refile(lr)
				want := oracle[id]
				want.Placement, want.ReservedFrom = lr.Placement, lr.ReservedFrom
				oracle[id] = oracleCopy(want)
			case r == 1: // the repair budget runs out
				lr := b.live[id]
				lr.State = StateDegraded
				b.refile(lr)
				want := oracle[id]
				want.State = StateDegraded
				oracle[id] = want
			case r < 10 || len(live) > 300:
				b.retire(b.live[id])
				want := oracle[id]
				if want.State != StateDegraded {
					want.State = StateExpired
				}
				oracle[id] = want
				live[pick] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			check(id)
			if n%97 == 0 {
				check(ids[order[rng.Intn(n+1)]])
			}
		}

		if got := b.entries(); got != admissions {
			t.Fatalf("seed %d: entries() = %d, want %d", seed, got, admissions)
		}
		if len(b.live) != len(live) {
			t.Fatalf("seed %d: live index holds %d records, %d placements are live", seed, len(b.live), len(live))
		}
		for i := 1; i < b.entries(); i++ {
			if prev, cur := b.at(i-1).id, b.at(i).id; prev >= cur {
				t.Fatalf("seed %d: history[%d] = %d is not below history[%d] = %d", seed, i-1, prev, i, cur)
			}
		}
		for id := range oracle {
			check(id)
		}
		for _, id := range append(rejected, 0, -1, math.MinInt, next+1, math.MaxInt) {
			if _, found := b.lookup(id, slot); found {
				t.Fatalf("seed %d: lookup(%d) found an ID that was never admitted", seed, id)
			}
		}

		// A filed record handed out shares nothing with the book: scribbling
		// over one copy leaves the next lookup intact.
		for id, want := range oracle {
			if _, isLive := b.live[id]; isLive {
				continue
			}
			got, _ := b.lookup(id, slot)
			for i := range got.Placement.Assignments {
				got.Placement.Assignments[i] = core.Assignment{Cloudlet: -7, Instances: -7}
			}
			if got.Placement.Backup != nil {
				*got.Placement.Backup = core.SharedBackup{}
			}
			if again, _ := b.lookup(id, slot); !sameRecord(again, want) {
				t.Fatalf("seed %d: record %d changed through a copy handed out earlier", seed, id)
			}
		}
		if want := 3 * bookChunk * int(reflect.TypeOf(filedPlacement{}).Size()); b.bytes() <= want {
			t.Errorf("seed %d: bytes() = %d, want three history chunks (%d) plus the arena", seed, b.bytes(), want)
		}
	}
}

// TestBookOversizeRun files a placement whose assignment run is longer than
// an arena chunk, between two ordinary ones.
func TestBookOversizeRun(t *testing.T) {
	b := newPlacementBook()
	rng := rand.New(rand.NewSource(1))
	var want []PlacementRecord
	for id := 1; id <= 3; id++ {
		rec := randomRecord(rng, id)
		if id == 2 {
			rec.Placement.Assignments = make([]core.Assignment, bookChunk+3)
			for i := range rec.Placement.Assignments {
				rec.Placement.Assignments[i] = core.Assignment{Cloudlet: i, Instances: 1 + i%5}
			}
		}
		b.admit(rec.Request, rec.Placement, rec.DecidedSlot)
		b.retire(b.live[id])
		rec.State = StateExpired
		want = append(want, rec)
	}
	for _, w := range want {
		if got, ok := b.lookup(w.ID, 1); !ok || !sameRecord(got, w) {
			t.Fatalf("lookup(%d) after an oversize run: found=%v, %d assignments, want %d",
				w.ID, ok, len(got.Placement.Assignments), len(w.Placement.Assignments))
		}
	}
}

// TestBookNarrowingBounds pins the checks in front of the history's narrow
// fields: New for the horizon, fileable per placement.
func TestBookNarrowingBounds(t *testing.T) {
	_, err := New(Config{Network: testNetwork(), Scheduler: blindScheduler{}, Horizon: math.MaxInt32 + 1})
	if !errors.Is(err, ErrBadConfig) {
		t.Errorf("a horizon beyond int32: err = %v, want ErrBadConfig", err)
	}
	ok := core.Placement{
		Assignments: []core.Assignment{{Cloudlet: 0, Instances: math.MaxInt32}},
		Backup:      &core.SharedBackup{Group: 1, Cloudlet: 1, PoolSize: math.MaxInt32},
	}
	if !fileable(ok) {
		t.Error("a placement at the int32 bounds is not fileable")
	}
	wide := ok
	wide.Assignments = []core.Assignment{{Cloudlet: 0, Instances: 1}, {Cloudlet: 1, Instances: math.MaxInt32 + 1}}
	if fileable(wide) {
		t.Error("an instance count beyond int32 is fileable")
	}
	wide = ok
	wide.Backup = &core.SharedBackup{Group: 1, Cloudlet: 1, PoolSize: math.MaxInt32 + 1}
	if fileable(wide) {
		t.Error("a pool size beyond int32 is fileable")
	}
}

// retentionNetwork is wide enough that pd-onsite admits about half of eight
// requests per slot, so a long run files tens of thousands of placements.
func retentionNetwork() *core.Network {
	n := &core.Network{
		Catalog: []core.VNF{
			{ID: 0, Name: "fw", Demand: 1, Reliability: 0.9},
			{ID: 1, Name: "nat", Demand: 2, Reliability: 0.85},
			{ID: 2, Name: "ids", Demand: 3, Reliability: 0.8},
		},
	}
	for j := 0; j < 6; j++ {
		n.Cloudlets = append(n.Cloudlets, core.Cloudlet{ID: j, Node: -1, Capacity: 40, Reliability: 0.99 + 0.001*float64(j)})
	}
	return n
}

// TestEngineRetainsBoundedState is the retention pin: 200k requests on a
// ticking clock (8 per slot, durations 1–10, pd-onsite, rolling 64). The
// live index never outgrows the window, a lap of admissions and expiries
// allocates nothing but the scheduler's placements, and what the daemon
// keeps per admission is the history entry, not a heap record.
func TestEngineRetainsBoundedState(t *testing.T) {
	const (
		perSlot  = 8
		window   = 64
		baseline = 1_000
		total    = 200_000
	)
	n := retentionNetwork()
	sched, err := onsite.NewScheduler(n, window, onsite.WithCapacityEnforcement())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Network: n, Scheduler: sched, Horizon: window, Rolling: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownEngine(t, e) })

	rng := rand.New(rand.NewSource(15))
	peak, admitted := 0, 0
	// slotOfRequests decides one slot's requests on the decision body under
	// token 0 (this goroutine is the only submitter, so the gate is skipped:
	// nothing but the decision allocates) and ticks.
	ctx := context.Background()
	slotOfRequests := func() {
		for i := 0; i < perSlot; i++ {
			res, err := e.decide(ctx, 0, AdmissionRequest{
				VNF:         rng.Intn(3),
				Reliability: 0.9 + 0.09*rng.Float64(),
				Duration:    1 + rng.Intn(10),
				Payment:     20 + 60*rng.Float64(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Admitted {
				admitted++
			}
		}
		e.mu.Lock()
		if active := e.expiry.Len(); active > peak {
			peak = active
		}
		e.mu.Unlock()
		e.Tick()
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	for i := 0; i < baseline/perSlot; i++ {
		slotOfRequests()
	}
	heapBase, admittedBase := heap(), admitted

	// One lap is eight slots: 64 requests decided, their predecessors
	// expired. The first call is AllocsPerRun's warm-up.
	const runs = 100
	calls, admittedBefore := 0, 0
	avg := testing.AllocsPerRun(runs, func() {
		if calls++; calls == 2 {
			admittedBefore = admitted
		}
		for i := 0; i < 8; i++ {
			slotOfRequests()
		}
	})
	perLap := float64(admitted-admittedBefore) / runs

	for done := baseline + (runs+1)*8*perSlot; done < total; done += perSlot {
		slotOfRequests()
	}
	grown := admitted - admittedBase
	if grown < 50_000 {
		t.Fatalf("only %d admissions after the baseline: too few to measure retention", grown)
	}
	perAdmission := (float64(heap()) - float64(heapBase)) / float64(grown)
	if perAdmission > 128 {
		t.Errorf("the daemon retains %.1f B of heap per admission, want ≤ 128", perAdmission)
	}
	// Ticking with nothing to decide allocates nothing (the rolling ledger's
	// Advance is one lock round, no defer per row), so what a lap allocates is
	// the scheduler's placement per admission, +1 for a chunk opened or the
	// live map re-hashing in place.
	idle := testing.AllocsPerRun(runs, func() {
		for i := 0; i < 8; i++ {
			e.Tick()
		}
	})
	t.Logf("%d admissions, peak %d active, %.1f B retained per admission; a lap of %.1f admissions allocates %.1f, an idle lap %.1f",
		admitted, peak, perAdmission, perLap, avg, idle)
	if idle != 0 {
		t.Errorf("eight idle ticks allocate %.1f objects, want 0", idle)
	}
	if avg > perLap+1 {
		t.Errorf("a lap allocates %.1f objects for %.1f admissions: the engine allocates per admission", avg, perLap)
	}

	e.mu.Lock()
	live, free, filed, active := len(e.book.live), len(e.book.free), e.book.entries(), e.expiry.Len()
	e.mu.Unlock()
	if live != active {
		t.Errorf("live index holds %d records, %d placements are active", live, active)
	}
	if live+free > peak {
		t.Errorf("%d records exist (%d live, %d free), more than the peak of %d active placements", live+free, live, free, peak)
	}
	if filed != admitted {
		t.Errorf("history holds %d entries, %d placements were admitted", filed, admitted)
	}
}

// TestBookUnderConcurrentAdmission runs four sharded workers, half on
// Submit and half on SubmitBatch, ticking the clock between them, against
// readers that look up admitted IDs while the run is on. Every ID stays
// retrievable, and a placement's state only moves scheduled → active →
// expired.
func TestBookUnderConcurrentAdmission(t *testing.T) {
	const (
		workers   = 4
		perWorker = 1_500
		perSlot   = 16
		// A fixed horizon that outlasts the run: with a rolling window this
		// short a slot (16 decisions), a submitter descheduled between its
		// ledger reservation and its booking pins the window base for many
		// slots and the run degenerates into horizon rejections.
		horizon = workers*perWorker/perSlot + 16
	)
	n := retentionNetwork()
	sched, err := onsite.NewScheduler(n, horizon, onsite.WithCapacityEnforcement())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Network: n, Scheduler: sched, Horizon: horizon, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownEngine(t, e) })
	if e.Workers() != workers {
		t.Fatalf("engine runs %d workers, want %d (sharded)", e.Workers(), workers)
	}

	var (
		mu       sync.Mutex
		admitted []AdmissionResult
		decided  atomic.Int64
		stop     atomic.Bool
		writers  sync.WaitGroup
		others   sync.WaitGroup
	)
	// record keeps the admissions and is the clock: whoever's results cross
	// a multiple of perSlot ticks, while the other workers keep submitting.
	record := func(results ...AdmissionResult) {
		k := int64(len(results))
		if n := decided.Add(k); n/perSlot > (n-k)/perSlot {
			e.Tick()
		}
		mu.Lock()
		defer mu.Unlock()
		for _, res := range results {
			if res.Admitted {
				admitted = append(admitted, res)
			}
		}
	}
	draw := func(rng *rand.Rand) AdmissionRequest {
		return AdmissionRequest{
			VNF:         rng.Intn(3),
			Reliability: 0.9 + 0.09*rng.Float64(),
			// Arrival 0 is "now"; a third of the requests book ahead, so
			// readers see the scheduled state too.
			Arrival:  []int{0, 0, e.Slot() + 2}[rng.Intn(3)],
			Duration: 1 + rng.Intn(4),
			Payment:  20 + 60*rng.Float64(),
		}
	}
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			if w%2 == 0 {
				for i := 0; i < perWorker; i++ {
					// A stale arrival (the clock ticked past it) is an
					// ordinary rejection here.
					if res, err := e.Submit(ctx, draw(rng)); err != nil {
						t.Errorf("Submit: %v", err)
						return
					} else {
						record(res)
					}
				}
				return
			}
			reqs, out := make([]AdmissionRequest, 6), make([]AdmissionResult, 6)
			for i := 0; i < perWorker; i += len(reqs) {
				for k := range reqs {
					reqs[k] = draw(rng)
				}
				if err := e.SubmitBatch(ctx, reqs, out); err != nil {
					t.Errorf("SubmitBatch: %v", err)
					return
				}
				record(out...)
			}
		}(w)
	}
	rank := map[PlacementState]int{StateScheduled: 1, StateActive: 2, StateExpired: 3}
	for r := 0; r < 2; r++ {
		others.Add(1)
		go func(r int) { // a reader
			defer others.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			last := make(map[int]int)
			for !stop.Load() {
				mu.Lock()
				if len(admitted) == 0 {
					mu.Unlock()
					runtime.Gosched()
					continue
				}
				want := admitted[rng.Intn(len(admitted))]
				mu.Unlock()
				got, ok := e.Placement(want.ID)
				if !ok {
					t.Errorf("placement %d not retrievable during the run", want.ID)
					return
				}
				if got.ID != want.ID || !samePlacement(got.Placement, want.Placement) {
					t.Errorf("placement %d read back as %+v, admitted as %+v", want.ID, got.Placement, want.Placement)
					return
				}
				now, known := rank[got.State]
				if !known || now < last[want.ID] {
					t.Errorf("placement %d: state %q after rank %d", want.ID, got.State, last[want.ID])
					return
				}
				last[want.ID] = now
			}
		}(r)
	}
	writers.Wait()
	stop.Store(true)
	others.Wait()

	if len(admitted) < 1000 {
		t.Fatalf("only %d admissions: the run did not exercise the book", len(admitted))
	}
	for i := 0; i < 8; i++ { // past the longest window booked ahead
		e.Tick()
	}
	for _, want := range admitted {
		got, ok := e.Placement(want.ID)
		if !ok {
			t.Fatalf("placement %d not retrievable after the run", want.ID)
		}
		if got.State != StateExpired || !samePlacement(got.Placement, want.Placement) {
			t.Fatalf("placement %d after the run: %+v, admitted as %+v", want.ID, got, want.Placement)
		}
	}
	st := e.Stats()
	if st.FiledPlacements != len(admitted) || st.ActivePlacements != 0 {
		t.Fatalf("stats filed/active = %d/%d, want %d/0", st.FiledPlacements, st.ActivePlacements, len(admitted))
	}
	e.mu.Lock()
	for i := 1; i < e.book.entries(); i++ {
		if e.book.at(i-1).id >= e.book.at(i).id {
			t.Errorf("history out of order at %d after concurrent admission", i)
			break
		}
	}
	e.mu.Unlock()
}
