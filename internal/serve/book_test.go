package serve

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
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

// TestBookHistoryIsPointerFree walks the types the history is made of —
// a chunk's span, a chunk's bytes, a block's row, the spare's bytes, the
// late map's key and value: but for the headers of the slices holding
// them, a pointer, slice, string or interface among them would put the
// history back on the collector's mark list.
func TestBookHistoryIsPointerFree(t *testing.T) {
	var b placementBook
	late := reflect.TypeOf(b.late)
	for name, typ := range map[string]reflect.Type{
		"span":      reflect.TypeOf(b.spans).Elem(),
		"chunk":     reflect.TypeOf(b.chunks).Elem().Elem(),
		"row":       reflect.TypeOf(b.rows).Elem(),
		"spare":     reflect.TypeOf(b.spare).Elem(),
		"late key":  late.Key(),
		"late elem": late.Elem(),
	} {
		if !pointerFree(typ) {
			t.Errorf("%s type %v holds a pointer", name, typ)
		}
	}
	if pointerFree(reflect.TypeOf(PlacementRecord{})) {
		t.Error("pointerFree accepts PlacementRecord: the walk checks nothing")
	}
}

// randomRecord draws what an admission would book under id, for a window
// starting at arrival.
func randomRecord(rng *rand.Rand, id, arrival int) PlacementRecord {
	req := core.Request{
		ID:          id,
		VNF:         rng.Intn(5),
		Reliability: 0.5 + rng.Float64()/2,
		Arrival:     arrival,
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

// spillingBook returns an empty book of chunk-byte chunks, so that it
// spills within a few thousand entries; the test's end closes its spill
// file rather than leave that to the file's finalizer.
func spillingBook(t testing.TB, chunk int) *placementBook {
	b := &placementBook{chunkSize: chunk}
	t.Cleanup(func() { b.spill.Close() })
	return b
}

// lookup is Engine.Placement on a bare book: a spilled entry is read back.
func lookup(b *placementBook, id, slot int) (PlacementRecord, bool) {
	rec, cold, ok := b.lookup(id, slot)
	if cold != nil {
		return cold()
	}
	return rec, ok
}

// requireSpilled fails the test unless at least n of b's chunks spilled,
// none failed, and the spilled chunks' rows left the heap.
func requireSpilled(t testing.TB, b *placementBook, n int) {
	t.Helper()
	if spilledChunks(b) < n || b.spillErrors.Load() != 0 {
		t.Fatalf("%d of %d chunks spilled, %d errors: want at least %d spilled and none failed",
			spilledChunks(b), len(b.spans), b.spillErrors.Load(), n)
	}
	requireRowsSpilled(t, b)
}

// requireRowsSpilled fails the test unless the spans count every block
// once, in order, the spilled ones lie back to back in the file, bytes then
// rows, and the rows in memory are exactly those of the chunks in memory.
func requireRowsSpilled(t testing.TB, b *placementBook) {
	t.Helper()
	blocks, at, resident := 0, 0, 0
	for i, span := range b.spans {
		if span.first != blocks || span.rows == 0 {
			t.Fatalf("chunk %d holds %d blocks from block %d, want one or more from %d", i, span.rows, span.first, blocks)
		}
		blocks += span.rows
		if i < spilledChunks(b) {
			if span.at != at {
				t.Fatalf("spilled chunk %d starts at %d in the file, want %d", i, span.at, at)
			}
			at += span.size + span.rows*rowSize
		} else {
			resident += span.rows
		}
	}
	if blocks != b.blocks || resident != len(b.rows) || at != b.spilled {
		t.Fatalf("%d blocks in the spans, %d of them in memory, %d B spilled: want %d, %d and %d",
			blocks, resident, at, b.blocks, len(b.rows), b.spilled)
	}
}

// spilledChunks counts b's spilled chunks; opened, every chunk it opened.
func spilledChunks(b *placementBook) int { return len(b.spans) - len(b.chunks) }
func opened(b *placementBook) int        { return len(b.spans) }

// spilledBlock reports whether block k's chunk has spilled.
func spilledBlock(b *placementBook, k int) bool {
	return len(b.chunks) == 0 || k < b.spans[spilledChunks(b)].first
}

// historyRows returns every block's row, in order: the spilled ones read
// back from the spill file, then those in memory.
func historyRows(t testing.TB, b *placementBook) []historyBlock {
	t.Helper()
	var rows []historyBlock
	for _, span := range b.spans[:spilledChunks(b)] {
		spilled := make([]historyBlock, span.rows)
		if _, err := b.spill.ReadAt(rowBytes(spilled), int64(span.at+span.size)); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, spilled...)
	}
	return append(rows, b.rows...)
}

// liveRecords counts the records filed in the book's expiry ring, cell by
// cell.
func liveRecords(b *placementBook) int {
	n := 0
	for slot := b.ends.Base(); slot <= b.ends.Last(); slot++ {
		n += len(b.ends.Cell(slot))
	}
	return n
}

// TestBookAgainstMapOracle drives the book the way the engine does — admit
// with IDs out of order by a bounded displacement, repairs and degraded
// marks on live records, expiry by ticking the clock — against a map of
// plain records, over enough admissions to spill most chunks to the file
// and, at the larger displacements, to file IDs late. Every tick's expiry
// must be exactly the records whose window ended, in ID order, and every
// live record must be found without the file: none of its chunks spilled.
// Late IDs whose newest entry spilled, rows and all, read back too.
func TestBookAgainstMapOracle(t *testing.T) {
	const (
		admissions = 40_000
		chunk      = 16 << 10 // about 100 chunks
	)
	for seed, displacement := range []int{0, 1, 7, 64, DefaultQueueSize + 4} {
		rng := rand.New(rand.NewSource(int64(seed + 1)))
		b := spillingBook(t, chunk)
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

		live := map[int]bool{}
		slot := 1
		check := func(id int) {
			want, ok := oracle[id]
			if live[id] && want.State != StateDegraded {
				want.State = StateActive
				if slot < want.Request.Arrival {
					want.State = StateScheduled
				}
			}
			got, found := lookup(b, id, slot)
			if found != ok {
				t.Fatalf("seed %d: lookup(%d) found=%v, want %v", seed, id, found, ok)
			}
			if live[id] && b.liveRecord(id) == nil {
				t.Fatalf("seed %d: live record %d not found in memory", seed, id)
			}
			if !sameRecord(got, want) {
				t.Fatalf("seed %d: lookup(%d)\n got %+v\nwant %+v", seed, id, got, want)
			}
		}
		// tick moves the clock and retires what the book expires, which must
		// be what the oracle says ended.
		tick := func() {
			slot++
			var want []int
			for id := range live {
				if oracle[id].Request.End() < slot {
					want = append(want, id)
				}
			}
			sort.Ints(want)
			got := b.expire(slot)
			if len(got) != len(want) {
				t.Fatalf("seed %d: expire(%d) returned %d records, want %v", seed, slot, len(got), want)
			}
			for k, rec := range got {
				if rec.ID != want[k] {
					t.Fatalf("seed %d: expire(%d) returned %d at %d, want %v", seed, slot, rec.ID, k, want)
				}
				w := oracle[rec.ID]
				if w.State != StateDegraded {
					w.State = StateExpired
				}
				oracle[rec.ID] = w
				delete(live, rec.ID)
				b.retire(rec)
			}
		}
		for n, i := range order {
			// A window from the clock to a few slots ahead; now and then one
			// the clock has passed, as a preempted decision books it.
			arrival := slot + rng.Intn(3)
			if rng.Intn(32) == 0 {
				arrival = slot - 1 - rng.Intn(3)
			}
			rec := randomRecord(rng, ids[i], arrival)
			b.admit(rec.Request, rec.Placement, rec.DecidedSlot)
			oracle[rec.ID] = oracleCopy(rec)
			live[rec.ID] = true
			check(rec.ID)

			// Now and then the failure runtime touches one of the recent
			// admissions still live, and about every fourth admission the
			// clock ticks.
			id := ids[order[n-rng.Intn(min(n+1, 64))]]
			switch r := rng.Intn(16); {
			case r < 2 && !live[id]:
			case r == 0: // a repair moves the footprint
				lr := b.liveRecord(id)
				lr.Placement = randomPlacement(rng, id)
				lr.ReservedFrom = lr.Request.Arrival + rng.Intn(lr.Request.Duration)
				b.refile(lr)
				want := oracle[id]
				want.Placement, want.ReservedFrom = lr.Placement, lr.ReservedFrom
				oracle[id] = oracleCopy(want)
			case r == 1: // the repair budget runs out
				lr := b.liveRecord(id)
				lr.State = StateDegraded
				b.refile(lr)
				want := oracle[id]
				want.State = StateDegraded
				oracle[id] = want
			case r < 6:
				tick()
			}
			check(id)
			if n%97 == 0 {
				check(ids[order[rng.Intn(n+1)]])
			}
		}

		if got := b.filed; got != admissions {
			t.Fatalf("seed %d: %d placements filed, want %d", seed, got, admissions)
		}
		if got := liveRecords(b); got != len(live) || b.active != len(live) {
			t.Fatalf("seed %d: the ring holds %d records and counts %d, %d placements are live", seed, got, b.active, len(live))
		}
		for id := range oracle {
			check(id)
		}
		for _, id := range append(rejected, 0, -1, math.MinInt, next+1, math.MaxInt) {
			if _, found := lookup(b, id, slot); found {
				t.Fatalf("seed %d: lookup(%d) found an ID that was never admitted", seed, id)
			}
		}

		// A filed record handed out shares nothing with the book: scribbling
		// over one copy leaves the next lookup intact.
		for id, want := range oracle {
			if live[id] {
				continue
			}
			got, _ := lookup(b, id, slot)
			for i := range got.Placement.Assignments {
				got.Placement.Assignments[i] = core.Assignment{Cloudlet: -7, Instances: -7}
			}
			if got.Placement.Backup != nil {
				*got.Placement.Backup = core.SharedBackup{}
			}
			if again, _ := lookup(b, id, slot); !sameRecord(again, want) {
				t.Fatalf("seed %d: record %d changed through a copy handed out earlier", seed, id)
			}
		}
		requireSpilled(t, b, 3)
		if kept := len(b.chunks); kept > 4 {
			t.Errorf("seed %d: %d chunks in memory, want the newest and the few a live window ends in", seed, kept)
		}
		if displacement > historyBlockEntries && len(b.late) == 0 {
			t.Errorf("seed %d: displacement %d filed no ID late", seed, displacement)
		}
		coldLate := 0
		for _, k := range b.late {
			if spilledBlock(b, k) {
				coldLate++
			}
		}
		if coldLate == 0 {
			t.Errorf("seed %d: none of %d late IDs has its newest entry in a spilled chunk", seed, len(b.late))
		}
		// The clock runs past every window: the ring drains.
		for b.active > 0 {
			tick()
		}
		if len(live) != 0 {
			t.Fatalf("seed %d: %d placements live after the ring drained", seed, len(live))
		}
	}
}

// admitWindow files a bare record for id over [start, end].
func admitWindow(b *placementBook, id, start, end int) {
	b.admit(core.Request{ID: id, Arrival: start, Duration: end - start + 1}, core.Placement{Request: id}, start)
}

// expireIDs ticks the book to now, retires what expired and returns its IDs.
func expireIDs(b *placementBook, now int) []int {
	var ids []int
	for _, rec := range b.expire(now) {
		ids = append(ids, rec.ID)
		b.retire(rec)
	}
	return ids
}

// TestBookExpiresInIDOrder pins the end-of-window convention and the order
// records leave in: a window ending at slot e expires when the clock
// reaches e+1, and a tick returns ascending IDs whatever order they were
// filed in and however many buckets it pops.
func TestBookExpiresInIDOrder(t *testing.T) {
	var b placementBook
	for _, w := range [][3]int{{12, 3, 4}, {10, 1, 2}, {14, 2, 4}, {11, 1, 4}, {13, 4, 4}} {
		admitWindow(&b, w[0], w[1], w[2])
	}
	if got := expireIDs(&b, 2); len(got) != 0 {
		t.Errorf("expire(2) = %v, want none (window [1,2] still covers slot 2)", got)
	}
	if got := expireIDs(&b, 3); !slices.Equal(got, []int{10}) {
		t.Errorf("expire(3) = %v, want [10]", got)
	}
	if got := expireIDs(&b, 5); !slices.Equal(got, []int{11, 12, 13, 14}) {
		t.Errorf("expire(5) = %v, want [11 12 13 14]", got)
	}
	if b.active != 0 || len(expireIDs(&b, 100)) != 0 {
		t.Errorf("after draining: %d active", b.active)
	}
	// Two buckets popped by one tick, the later one holding the lower IDs.
	admitWindow(&b, 21, 6, 6)
	admitWindow(&b, 20, 6, 7)
	admitWindow(&b, 22, 6, 6)
	if got := expireIDs(&b, 9); !slices.Equal(got, []int{20, 21, 22}) {
		t.Errorf("expire(9) = %v, want [20 21 22]", got)
	}
}

// TestBookRebaseKeepsWindow moves a live record's reservation the way a
// repair does: the record is still found by ID, its end and so its expiry
// stay, the history keeps the new start, and an ID that was never admitted
// or has expired is not live.
func TestBookRebaseKeepsWindow(t *testing.T) {
	var b placementBook
	admitWindow(&b, 1, 1, 5)
	admitWindow(&b, 2, 2, 5)
	admitWindow(&b, 3, 2, 4)
	if b.liveRecord(99) != nil {
		t.Fatal("liveRecord(99) found an ID that was never admitted")
	}
	rec := b.liveRecord(3)
	rec.ReservedFrom = 4
	b.refile(rec)
	if got, ok := lookup(&b, 3, 4); !ok || got.State != StateActive || got.ReservedFrom != 4 || got.Request.End() != 4 {
		t.Fatalf("lookup(3) after the re-base = %+v, %v, want live, reserved from 4, ending at 4", got, ok)
	}
	if got := expireIDs(&b, 4); len(got) != 0 {
		t.Fatalf("expire(4) = %v, want none: the re-based window still covers slot 4", got)
	}
	if got := expireIDs(&b, 5); !slices.Equal(got, []int{3}) {
		t.Fatalf("expire(5) = %v, want [3]", got)
	}
	if b.liveRecord(3) != nil {
		t.Fatal("record 3 still live after its expiry")
	}
	if got, ok := lookup(&b, 3, 5); !ok || got.State != StateExpired || got.ReservedFrom != 4 {
		t.Fatalf("lookup(3) after expiry = %+v, %v, want expired, reserved from 4", got, ok)
	}
	b.liveRecord(1).ReservedFrom = 5
	if got := expireIDs(&b, 6); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("expire(6) = %v, want [1 2]", got)
	}
	if b.active != 0 || b.liveRecord(1) != nil || b.liveRecord(2) != nil {
		t.Fatalf("after the last expiry: %d active", b.active)
	}
}

// TestBookStragglerExpires files a window behind the ring's front — a
// decision preempted across ticks books a window the clock has passed —
// and behind every live window: it is found and leaves at the next tick.
func TestBookStragglerExpires(t *testing.T) {
	var b placementBook
	admitWindow(&b, 1, 10, 12)
	if got := expireIDs(&b, 11); len(got) != 0 {
		t.Fatalf("expire(11) = %v", got)
	}
	admitWindow(&b, 2, 7, 8)
	if rec, ok := lookup(&b, 2, 11); !ok || rec.State != StateActive {
		t.Fatalf("lookup(2) = %+v, %v, want the live straggler", rec, ok)
	}
	if got := expireIDs(&b, 12); !slices.Equal(got, []int{2}) {
		t.Fatalf("expire(12) = %v, want the straggler", got)
	}
	if rec := b.liveRecord(1); rec == nil || rec.ReservedFrom != 10 {
		t.Fatalf("liveRecord(1) = %+v after the straggler left, want the live window from 10", rec)
	}
}

// TestBookRingAgainstMapModel drives random admissions, re-bases and ticks
// against a plain map of id → window while the clock laps the ring many
// times — windows mostly near the clock, now and then far ahead of or
// behind it, so both ends of the deque grow — and checks every query after
// every operation: the live count, the live record of a sampled ID, and
// that each tick expires exactly the model's ended IDs in ascending order.
func TestBookRingAgainstMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var b placementBook
		model := map[int][2]int{}
		nextID, clock := 0, 1
		for op := 0; op < 2000; op++ {
			switch k := rng.Intn(10); {
			case k < 6:
				start := clock + rng.Intn(4)
				if rng.Intn(20) == 0 {
					start = clock - rng.Intn(30) + rng.Intn(60)
				}
				end := start + rng.Intn(6)
				nextID++
				admitWindow(&b, nextID, start, end)
				model[nextID] = [2]int{start, end}
			case k < 7:
				// A repair re-bases a live record anywhere in its window.
				id := 1 + rng.Intn(nextID+1)
				if w, live := model[id]; live {
					w[0] += rng.Intn(w[1] - w[0] + 1)
					b.liveRecord(id).ReservedFrom = w[0]
					model[id] = w
				}
			default:
				clock += rng.Intn(3)
				if rng.Intn(50) == 0 {
					clock += 40 // a stalled clock catching up
				}
				var want []int
				for id, w := range model {
					if w[1] < clock {
						want = append(want, id)
						delete(model, id)
					}
				}
				sort.Ints(want)
				if got := expireIDs(&b, clock); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: expire(%d) = %v, want %v", seed, op, clock, got, want)
				}
			}
			if b.active != len(model) || liveRecords(&b) != len(model) {
				t.Fatalf("seed %d op %d: %d active, %d in the ring, model %d", seed, op, b.active, liveRecords(&b), len(model))
			}
			id := 1 + rng.Intn(nextID+1)
			w, live := model[id]
			rec := b.liveRecord(id)
			if (rec != nil) != live || (live && (rec.ReservedFrom != w[0] || rec.Request.End() != w[1])) {
				t.Fatalf("seed %d op %d: liveRecord(%d) = %+v, model %v, %v", seed, op, id, rec, w, live)
			}
		}
	}
}

// TestBookSteadyStateAllocations pins the point of the ring and of the
// spare chunk: once warm, a clock that admits and expires a few records per
// slot allocates nothing, slot after slot, across chunk boundaries too — a
// chunk opens in the buffer of the one spilled before it.
func TestBookSteadyStateAllocations(t *testing.T) {
	b := spillingBook(t, 1<<10)
	id, slot := 0, 1
	step := func() {
		for k := 0; k < 8; k++ {
			id++
			admitWindow(b, id, slot, slot+k%5)
		}
		slot++
		for _, rec := range b.expire(slot) {
			b.retire(rec)
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	// The spans grow by doubling: give them room for the run's, ≈ 25 B an
	// entry in 1 KiB chunks.
	b.spans = slices.Grow(b.spans, 600*8*25>>10)
	spilled := spilledChunks(b)
	// One run of 250 steps after a warm-up of as many: the count is exact.
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 250; i++ {
			step()
		}
	}); n != 0 {
		t.Errorf("250 steady-state slots allocate %v times, want 0", n)
	}
	if got := spilledChunks(b) - spilled; got < 100 {
		t.Errorf("%d chunks spilled during the run, want the steps to cross 100 chunk boundaries or more", got)
	}
}

// TestBookOversizeRun files a placement whose entry is longer than a
// history chunk, between ordinary ones: it gets a chunk of its own size,
// the entry after it a new chunk, and once its window has ended and another
// chunk has opened the oversize one spills whole, with its row, and reads
// back.
func TestBookOversizeRun(t *testing.T) {
	const chunk = 4 << 10
	b := spillingBook(t, chunk)
	rng := rand.New(rand.NewSource(1))
	var want []PlacementRecord
	for id := 1; spilledChunks(b) < 3; id++ {
		rec := randomRecord(rng, id, id)
		if id == 2 {
			rec.Placement.Assignments = make([]core.Assignment, chunk/2) // ≈ 3 B each
			for i := range rec.Placement.Assignments {
				rec.Placement.Assignments[i] = core.Assignment{Cloudlet: i, Instances: 1 + i%5}
			}
		}
		b.admit(rec.Request, rec.Placement, rec.DecidedSlot)
		for _, r := range b.expire(rec.Request.End() + 1) {
			b.retire(r)
		}
		rec.State = StateExpired
		want = append(want, rec)
	}
	for _, w := range want {
		if got, ok := lookup(b, w.ID, 0); !ok || !sameRecord(got, w) {
			t.Fatalf("lookup(%d) after an oversize run: found=%v, %d assignments, want %d",
				w.ID, ok, len(got.Placement.Assignments), len(w.Placement.Assignments))
		}
	}
	requireSpilled(t, b, 3)
	if c := b.spans[1]; c.size <= chunk || c.first != 1 || c.rows != 1 {
		t.Errorf("a second chunk of %d B holding %d blocks from block %d: want the oversize entry alone in a chunk of its size",
			c.size, c.rows, c.first)
	}
	if rows := historyRows(t, b); rows[1].off != 0 || rows[1].n != 1 || rows[1].hi != 2 {
		t.Errorf("the oversize block's row reads back as %+v, want entry 2 alone at offset 0", rows[1])
	}
}

// sameBits is sameRecord with R and the payment compared bit for bit, so
// a NaN round-trips too.
func sameBits(a, b PlacementRecord) bool {
	ra, rb := &a.Request, &b.Request
	if math.Float64bits(ra.Reliability) != math.Float64bits(rb.Reliability) ||
		math.Float64bits(ra.Payment) != math.Float64bits(rb.Payment) {
		return false
	}
	ra.Reliability, ra.Payment, rb.Reliability, rb.Payment = 0, 0, 0, 0
	return sameRecord(a, b)
}

// filedAs returns rec as the history hands it back once nothing is live:
// expired, unless it was marked degraded.
func filedAs(rec PlacementRecord) PlacementRecord {
	rec = oracleCopy(rec)
	if rec.State != StateDegraded {
		rec.State = StateExpired
	}
	return rec
}

// TestHistoryRoundTrip files edge cases and random records straight into
// the history, with no live record, and reads every one back field by
// field: IDs, slots and groups at math.MinInt and math.MaxInt, negative
// deltas, IDs out of order, a decision slot after the arrival, 0, 1 and
// 1000 assignments — the last filed where it does not fit what is left of
// a chunk — with and without a backup, degraded and re-based; with nothing
// live, all but the newest chunk read back from the spill file.
func TestHistoryRoundTrip(t *testing.T) {
	b := spillingBook(t, 8<<10)
	var want []PlacementRecord
	file := func(rec PlacementRecord) {
		b.file(&rec, false)
		want = append(want, filedAs(rec))
	}
	file(PlacementRecord{
		ID: math.MinInt, DecidedSlot: math.MaxInt, State: StateDegraded, ReservedFrom: math.MaxInt,
		Request: core.Request{ID: math.MinInt, VNF: math.MaxInt, Reliability: math.Inf(-1),
			Arrival: math.MinInt, Duration: math.MinInt, Payment: math.NaN()},
		Placement: core.Placement{Request: math.MinInt, Scheme: core.Scheme(math.MinInt),
			Backup: &core.SharedBackup{Group: math.MaxInt, Cloudlet: math.MinInt, PoolSize: math.MaxInt}},
	})
	file(PlacementRecord{
		ID: math.MinInt + 1, DecidedSlot: math.MinInt, ReservedFrom: math.MinInt,
		Request: core.Request{ID: math.MinInt + 1, VNF: -1, Reliability: 1, Arrival: math.MaxInt, Duration: math.MaxInt, Payment: -0.0},
		Placement: core.Placement{Request: math.MinInt + 1, Scheme: core.Shared,
			Assignments: []core.Assignment{{Cloudlet: math.MinInt, Instances: math.MaxInt}},
			Backup:      &core.SharedBackup{Group: math.MinInt, Cloudlet: math.MaxInt, PoolSize: math.MinInt}},
	})
	rng := rand.New(rand.NewSource(27))
	ids := make([]int, 3000)
	for i := range ids {
		ids[i] = -1000 + 3*i + rng.Intn(3)
		if i > 0 && rng.Intn(8) == 0 {
			ids[i-1], ids[i] = ids[i], ids[i-1]
		}
	}
	for _, id := range ids {
		rec := randomRecord(rng, id, rng.Intn(2000)-1000)
		rec.DecidedSlot = rec.Request.Arrival + rng.Intn(7) - 3
		rec.ReservedFrom = rec.Request.Arrival + rng.Intn(5) - 2
		switch rng.Intn(8) {
		case 0:
			rec.State = StateDegraded
		case 1:
			rec.Placement.Assignments = nil
		}
		if rec.Placement.Backup != nil && rng.Intn(2) == 0 {
			rec.Placement.Backup.Group = -rec.Placement.Backup.Group
		}
		file(rec)
	}
	big := PlacementRecord{ID: ids[len(ids)-1] + 10, State: StateScheduled,
		Request:   core.Request{ID: ids[len(ids)-1] + 10, Duration: 3, Reliability: 0.9, Payment: 3},
		Placement: core.Placement{Request: ids[len(ids)-1] + 10, Scheme: core.OffSite, Assignments: make([]core.Assignment, 1000)}}
	for i := range big.Placement.Assignments {
		big.Placement.Assignments[i] = core.Assignment{Cloudlet: i, Instances: 1 + i%7}
	}
	for id := big.ID - 9; b.fits(b.encode(&big)); id++ {
		file(randomRecord(rng, id, 0))
		big.ID, big.Request.ID, big.Placement.Request = id+10, id+10, id+10
	}
	chunks := opened(b)
	file(big)
	if opened(b) != chunks+1 {
		t.Errorf("the 1000-assignment entry went into chunk %d of %d, want a new one", chunks, opened(b))
	}
	file(PlacementRecord{ID: math.MaxInt, DecidedSlot: math.MinInt, ReservedFrom: math.MinInt,
		Request:   core.Request{ID: math.MaxInt, Arrival: math.MaxInt, Duration: 1},
		Placement: core.Placement{Request: math.MaxInt, Scheme: core.OnSite, Assignments: []core.Assignment{{}}}})
	requireSpilled(t, b, 3)
	for _, w := range want {
		got, ok := lookup(b, w.ID, 0)
		if !ok || !sameBits(got, w) {
			t.Fatalf("lookup(%d) = %v\n got %+v\nwant %+v", w.ID, ok, got, w)
		}
	}
}

// FuzzHistoryEntry is TestHistoryRoundTrip's round trip on fuzzed field
// values. The entry is the second of a block whose bases come from a block
// of neighbours before it, all in the first chunk, so its arrival and group
// are differences too; neighbours after it fill three more chunks, so it
// reads back from the spill file.
func FuzzHistoryEntry(f *testing.F) {
	f.Add(1000, 5, 4, 5, 3, 0, 1, uint8(1), 2, 1, 7, true, false, math.Float64bits(0.95), math.Float64bits(40))
	f.Add(math.MinInt, math.MaxInt, math.MinInt, math.MaxInt, -1, -1, -1, uint8(0), math.MinInt, math.MaxInt,
		math.MinInt, false, true, uint64(math.MaxUint64), uint64(0))
	f.Add(math.MaxInt, math.MinInt, math.MaxInt, math.MinInt, math.MaxInt, math.MinInt, math.MaxInt, uint8(255),
		math.MaxInt, math.MinInt, math.MaxInt, true, true, math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)))
	f.Fuzz(func(t *testing.T, id, arrival, decided, reserved, duration, vnf, scheme int, n uint8,
		cloudlet, instances, group int, backup, degraded bool, r, pay uint64) {
		b := spillingBook(t, 8<<10)
		neighbour := func(k int) {
			nb := PlacementRecord{ID: id - k, DecidedSlot: arrival - 3*k, ReservedFrom: arrival - 3*k,
				Request:   core.Request{ID: id - k, Arrival: arrival - 3*k, Duration: 1},
				Placement: core.Placement{Request: id - k, Scheme: core.Shared, Backup: &core.SharedBackup{Group: group - k}}}
			b.file(&nb, false)
		}
		for k := historyBlockEntries + 1; k > 0; k-- {
			neighbour(k)
		}
		rec := PlacementRecord{ID: id, DecidedSlot: decided, State: StateScheduled, ReservedFrom: reserved,
			Request: core.Request{ID: id, VNF: vnf, Reliability: math.Float64frombits(r), Arrival: arrival,
				Duration: duration, Payment: math.Float64frombits(pay)},
			Placement: core.Placement{Request: id, Scheme: core.Scheme(scheme)}}
		if degraded {
			rec.State = StateDegraded
		}
		for i := 0; i < int(n%16); i++ {
			rec.Placement.Assignments = append(rec.Placement.Assignments, core.Assignment{Cloudlet: cloudlet + i, Instances: instances - i})
		}
		if backup {
			rec.Placement.Backup = &core.SharedBackup{Group: group, Cloudlet: cloudlet, PoolSize: instances}
		}
		b.file(&rec, false)
		if b.blocks != 2 || opened(b) != 1 || b.rows[1].n != 2 {
			t.Fatalf("%d blocks in %d chunks, the last of %d entries: want the entry second in block 1, in chunk 0",
				b.blocks, opened(b), b.rows[len(b.rows)-1].n)
		}
		for k := -1; spilledChunks(b) < 3; k-- {
			neighbour(k)
		}
		requireSpilled(t, b, 3)
		if got, ok := lookup(b, id, 0); !ok || !sameBits(got, filedAs(rec)) {
			t.Fatalf("lookup(%d) = %v\n got %+v\nwant %+v", id, ok, got, filedAs(rec))
		}
	})
}

// drain expires every live record of the book and retires it.
func drain(b *placementBook) {
	for _, rec := range b.expire(math.MaxInt) {
		b.retire(rec)
	}
}

// TestBookLateStraggler files an ID after more than a block of newer ones
// — a decision preempted across a whole block, for a window the clock has
// passed. It is late, found through the late map, and the IDs around it
// through the rows, once the clock has expired it and more entries have
// spilled its block, and its chunk's rows, too.
func TestBookLateStraggler(t *testing.T) {
	b := spillingBook(t, 1<<10)
	rng := rand.New(rand.NewSource(3))
	want := map[int]PlacementRecord{}
	slot := 1
	admit := func(id int) {
		rec := randomRecord(rng, id, 1+id/8)
		b.admit(rec.Request, rec.Placement, rec.DecidedSlot)
		want[id] = filedAs(rec)
		if slot < 1+id/8 {
			slot = 1 + id/8
			for _, r := range b.expire(slot) {
				b.retire(r)
			}
		}
	}
	for id := 1; id <= 2*historyBlockEntries+10; id++ {
		if id != 7 {
			admit(id)
		}
	}
	admit(7)
	if k, late := b.late[7]; !late || k != b.blocks-1 || len(b.late) != 1 {
		t.Fatalf("late = %v, want only the straggler 7, in block %d", b.late, b.blocks-1)
	}
	for id := 2*historyBlockEntries + 11; !spilledBlock(b, b.late[7]); id++ {
		admit(id)
	}
	requireSpilled(t, b, 3)
	drain(b)
	for id, w := range want {
		if got, ok := lookup(b, id, 1); !ok || !sameRecord(got, w) {
			t.Fatalf("lookup(%d) = %v\n got %+v\nwant %+v", id, ok, got, w)
		}
	}
}

// TestBookRefileSealedBlock repairs and then degrades a live record whose
// entry is in a sealed block of an older chunk: both newer entries are
// late, and lookup returns the newest, live and once expired, also once
// the chunks of its entries have spilled. While it is live, its window
// keeps its chunk, and so every newer one, in memory.
func TestBookRefileSealedBlock(t *testing.T) {
	const chunk = 512
	b := spillingBook(t, chunk)
	admitWindow(b, 1, 1, 50)
	for id := 2; id <= historyBlockEntries+1; id++ {
		admitWindow(b, id, 1, 1)
	}
	tick := func(now int) {
		for _, rec := range b.expire(now) {
			b.retire(rec)
		}
	}
	tick(2)
	if len(b.chunks) < 3 || spilledChunks(b) != 0 || b.spillErrors.Load() != 0 {
		t.Fatalf("%d of %d chunks spilled while record 1 is live: want at least 3, none spilled", spilledChunks(b), opened(b))
	}
	rec := b.liveRecord(1)
	rec.Placement = core.Placement{Request: 1, Scheme: core.OffSite,
		Assignments: []core.Assignment{{Cloudlet: 2, Instances: 1}, {Cloudlet: 3, Instances: 1}}}
	rec.ReservedFrom = 5
	b.refile(rec)
	rec.State = StateDegraded
	b.refile(rec)
	if k, late := b.late[1]; !late || k != b.blocks-1 || k < b.spans[1].first {
		t.Fatalf("late[1] = %d, %v with %d blocks, want the last block, in a newer chunk", k, late, b.blocks)
	}
	want := oracleCopy(*rec)
	for _, slot := range []int{5, 60} {
		if slot == 60 { // record 1 expires, and the chunks of both its entries spill
			tick(51)
			for id := historyBlockEntries + 2; !spilledBlock(b, b.late[1]); id++ {
				admitWindow(b, id, id, id)
				tick(id + 1)
			}
			requireSpilled(t, b, 3)
		}
		if got, ok := lookup(b, 1, slot); !ok || !sameRecord(got, want) {
			t.Fatalf("slot %d: lookup(1) = %v\n got %+v\nwant %+v", slot, ok, got, want)
		}
	}
}

// TestBookRefilesInOpenBlock refiles a record twice while its block is
// still open: three entries for one ID in one block, and lookup returns
// the newest; its neighbour keeps its one entry.
func TestBookRefilesInOpenBlock(t *testing.T) {
	var b placementBook
	admitWindow(&b, 1, 1, 3)
	admitWindow(&b, 2, 1, 3)
	rec := b.liveRecord(1)
	for n := 1; n <= 2; n++ {
		rec.Placement = core.Placement{Request: 1, Scheme: core.OnSite, Assignments: []core.Assignment{{Cloudlet: n, Instances: n}}}
		b.refile(rec)
	}
	if b.blocks != 1 || b.rows[0].n != 4 {
		t.Fatalf("%d blocks, the first of %d entries: want one block of 4", b.blocks, b.rows[0].n)
	}
	want := filedAs(*rec)
	drain(&b)
	if got, ok := lookup(&b, 1, 4); !ok || !sameRecord(got, want) {
		t.Fatalf("lookup(1) = %v\n got %+v\nwant %+v", ok, got, want)
	}
	if got, ok := lookup(&b, 2, 4); !ok || got.State != StateExpired || len(got.Placement.Assignments) != 0 {
		t.Fatalf("lookup(2) = %+v, %v, want the bare expired record", got, ok)
	}
}

// TestBookLookupGaps looks up IDs that were never admitted — before the
// first block, in the gaps inside a block, between two blocks, past the
// last — among every even ID of four blocks' worth, in chunks that cut
// the blocks short and, each window ending before the next, mostly spilled
// with their rows: the probes at each block's bounds take the rows as the
// spill file reads them back.
func TestBookLookupGaps(t *testing.T) {
	b := spillingBook(t, 2<<10)
	const last = 8 * historyBlockEntries
	for id := 2; id <= last; id += 2 {
		admitWindow(b, id, id, id)
		drain(b)
	}
	requireSpilled(t, b, 3)
	rows := historyRows(t, b)
	if len(rows) < 4 || rows[0].hi%2 != 0 {
		t.Fatalf("%d blocks, the first up to %d: want 4 or more, each up to an even ID", len(rows), rows[0].hi)
	}
	probes := []int{math.MinInt, -2, 0, 1, 3, 2 * historyBlockEntries, 2*historyBlockEntries + 1,
		2*historyBlockEntries + 3, last - 1, last + 1, last + 2, math.MaxInt}
	for _, blk := range rows { // the IDs around each block's end: a gap, then the next block's first
		probes = append(probes, blk.hi-1, blk.hi, blk.hi+1, blk.hi+2)
	}
	for _, id := range probes {
		_, found := lookup(b, id, 2)
		if want := id > 0 && id%2 == 0 && id <= last; found != want {
			t.Errorf("lookup(%d) found = %v, want %v", id, found, want)
		}
	}
}

// TestBookSpillFailures pins what a spill or a cold read that fails costs:
// nothing but the count. While the spill file cannot be created ($TMPDIR
// names a regular file) every chunk stays in memory with its rows, every
// lookup answers as before and each chunk boundary counts one failed
// attempt; the next boundary with a usable $TMPDIR spills them all, rows
// and all, and the rows read back as they were. Once the file has lost a
// chunk's rows (it is cut short behind the chunk's bytes), a lookup of an
// entry in that chunk reports not found and counts, and the other spilled
// chunks still answer. Once the file is closed under the book, a lookup of
// a spilled entry reports not found and counts, a chunk boundary's write
// fails and counts, and the chunk stays in memory with its rows and
// answers.
func TestBookSpillFailures(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", notDir)
	b := spillingBook(t, 1<<10)
	rng := rand.New(rand.NewSource(5))
	want := map[int]PlacementRecord{}
	chunkOf := map[int]int{}
	fileUntil := func(chunks int) {
		for id := len(want) + 1; opened(b) < chunks; id++ {
			rec := randomRecord(rng, id, 1)
			b.file(&rec, false)
			want[id], chunkOf[id] = filedAs(rec), opened(b)-1
		}
	}
	// check looks every entry up; one in a spilled chunk from the first lost
	// one on must not be found, every other must.
	lost := math.MaxInt
	check := func(stage string) {
		t.Helper()
		for id, w := range want {
			got, ok := lookup(b, id, 0)
			if c := chunkOf[id]; c >= lost && c < spilledChunks(b) {
				if ok {
					t.Fatalf("%s: lookup(%d) found an entry the file lost", stage, id)
				}
			} else if !ok || !sameRecord(got, w) {
				t.Fatalf("%s: lookup(%d) = %v\n got %+v\nwant %+v", stage, id, ok, got, w)
			}
		}
	}
	errorsWant := int64(0)
	expect := func(stage string, spilled, inMemory int) {
		t.Helper()
		if spilledChunks(b) != spilled || len(b.chunks) != inMemory || b.spillErrors.Load() != errorsWant {
			t.Fatalf("%s: %d chunks spilled, %d in memory, %d errors, want %d, %d and %d", stage,
				spilledChunks(b), len(b.chunks), b.spillErrors.Load(), spilled, inMemory, errorsWant)
		}
		requireRowsSpilled(t, b)
	}

	fileUntil(6) // nothing is live: chunks 1 to 5 opened, five attempts
	errorsWant = 5
	expect("no spill file", 0, 6)
	check("no spill file")
	sealed := slices.Clone(b.rows[:b.spans[5].first])

	t.Setenv("TMPDIR", t.TempDir())
	fileUntil(7)
	expect("spill file", 6, 1)
	check("spill file")
	if rows := historyRows(t, b); !slices.Equal(rows[:len(sealed)], sealed) {
		t.Fatalf("the rows of chunks 0 to 4 read back as\n%v\nwant\n%v", rows[:len(sealed)], sealed)
	}

	cut := b.spans[5]
	if err := b.spill.Truncate(int64(cut.at + cut.size)); err != nil {
		t.Fatal(err)
	}
	lost = 5
	for id := range want {
		if chunkOf[id] == lost {
			errorsWant++
		}
	}
	check("rows cut")
	expect("rows cut", 6, 1)

	b.spill.Close()
	lost = 0
	for id := range want {
		if chunkOf[id] < spilledChunks(b) {
			errorsWant++
		}
	}
	check("closed")
	expect("closed", 6, 1)
	fileUntil(8) // chunk 6 cannot spill
	errorsWant++
	expect("closed", 6, 2)
	check("closed, one more chunk")
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
// allocates nothing but the scheduler's placements, and the history keeps
// at most two chunks' buffers on the heap, rows included, while it spills
// dozens: its heap at the end of the run is within one chunk of its heap
// at a quarter of it. Two, because a chunk holds far more admissions than
// the live windows span, so the one before the newest is the most a live
// window ends in.
func TestEngineRetainsBoundedState(t *testing.T) {
	const (
		perSlot  = 8
		window   = 64
		baseline = 1_000
		total    = 200_000
		chunk    = 64 << 10 // about 2.5 Ki admissions
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
	e.book.chunkSize = chunk

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
		if active := e.book.active; active > peak {
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

	quarter, spilledAtQuarter := 0, 0 // the history's heap and spilled chunks a quarter into the run
	for done := baseline + (runs+1)*8*perSlot; done < total; done += perSlot {
		slotOfRequests()
		e.mu.Lock()
		if buffers := len(e.book.chunks) + min(cap(e.book.spare), 1); buffers > 2 {
			t.Fatalf("the history holds %d chunks' buffers on the heap, want at most two", buffers)
		}
		if quarter == 0 && done >= total/4 {
			quarter, spilledAtQuarter = e.book.bytes(), spilledChunks(&e.book)
		}
		e.mu.Unlock()
	}
	grown := admitted - admittedBase
	if grown < 50_000 {
		t.Fatalf("only %d admissions after the baseline: too few to measure retention", grown)
	}
	perAdmission := (float64(heap()) - float64(heapBase)) / float64(grown)
	if perAdmission > 1 {
		t.Errorf("the daemon retains %.2f B of heap per admission, want ≤ 1", perAdmission)
	}
	// Ticking with nothing to decide allocates nothing (the rolling ledger's
	// Advance is one lock round, no defer per row), and a chunk opens in the
	// buffers of the one spilled before it, so what a lap allocates is the
	// scheduler's placement per admission.
	idle := testing.AllocsPerRun(runs, func() {
		for i := 0; i < 8; i++ {
			e.Tick()
		}
	})
	t.Logf("%d admissions, peak %d active, %.2f B retained per admission; a lap of %.1f admissions allocates %.1f, an idle lap %.1f",
		admitted, peak, perAdmission, perLap, avg, idle)
	if idle != 0 {
		t.Errorf("eight idle ticks allocate %.1f objects, want 0", idle)
	}
	if avg > perLap {
		t.Errorf("a lap allocates %.1f objects for %.1f admissions: the engine allocates per admission", avg, perLap)
	}

	e.mu.Lock()
	live, free, filed, active := liveRecords(&e.book), len(e.book.free), e.book.filed, e.book.active
	spilled := spilledChunks(&e.book)
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
	st := e.Stats()
	t.Logf("the history holds %d B on the heap with %d chunks spilled, %d B with %d a quarter into the run",
		st.BookBytes, spilled, quarter, spilledAtQuarter)
	if spilled < 50 || st.SpillErrors != 0 || st.BookBytes > quarter+chunk {
		t.Errorf("%d chunks spilled with %d errors and %d B on the heap, %d B a quarter into the run: want 50 or more spilled, none failed, and the heap within a chunk of the quarter's",
			spilled, st.SpillErrors, st.BookBytes, quarter)
	}
	var metrics strings.Builder
	if err := e.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"revnfd_placement_history_spilled_bytes " + strconv.FormatFloat(float64(st.SpilledBytes), 'g', -1, 64) + "\n",
		"revnfd_placement_history_spill_errors_total 0\n",
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestBookUnderConcurrentAdmission runs four sharded workers, half on
// Submit and half on SubmitBatch, ticking the clock between them, against
// readers that look up admitted IDs while the run is on and the history
// spills. Every ID stays retrievable, and a placement's state only moves
// scheduled → active → expired.
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
	e.book.chunkSize = 4 << 10
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
					if res, err := submitOne(ctx, e, draw(rng)); err != nil {
						t.Errorf("submit: %v", err)
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
	if st.SpilledBytes < 3<<12 || st.SpillErrors != 0 {
		t.Fatalf("%d B spilled with %d errors, want three 4 KiB chunks or more and none", st.SpilledBytes, st.SpillErrors)
	}
}

// BenchmarkBookAdmit books admissions of 1–8 assignments on a clock that
// expires them, as the engine does, and reports what the history keeps per
// entry, in memory and spilled. Past the warm-up an admission allocates
// nothing but the history's growth, which rounds to 0 per admission.
func BenchmarkBookAdmit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	recs := make([]PlacementRecord, 4096)
	for i := range recs {
		recs[i] = randomRecord(rng, 0, 0)
	}
	book := spillingBook(b, 0)
	slot := 1
	admit := func(id int) {
		rec := &recs[id%len(recs)]
		req, p := rec.Request, rec.Placement
		req.ID, req.Arrival, p.Request = id, slot, id
		book.admit(req, p, slot)
		if id%8 == 0 {
			slot++
			for _, r := range book.expire(slot) {
				book.retire(r)
			}
		}
	}
	const warm = 1000
	for id := 1; id <= warm; id++ {
		admit(id)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		admit(warm + 1 + i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if n := (after.Mallocs - before.Mallocs) / uint64(b.N); n != 0 {
		b.Errorf("an admission allocates %d times, want 0", n)
	}
	b.ReportMetric((float64(book.bytes())+float64(book.spilled))/float64(book.filed), "B/entry")
}

// BenchmarkBookLookup looks up expired placements, at random, among 1 Mi
// filed ones of 1–8 assignments: /hot among those in the chunks still in
// memory, and /cold among the older ones, whose chunk's rows and then
// block are read back from the spill file (from the page cache, as a
// recent spill is).
func BenchmarkBookLookup(b *testing.B) {
	const filed = 1 << 20
	rng := rand.New(rand.NewSource(1))
	book := spillingBook(b, 0)
	for id := 1; id <= filed; id++ {
		rec := randomRecord(rng, id, 1+id/8)
		book.admit(rec.Request, rec.Placement, rec.DecidedSlot)
		if id%1024 == 0 {
			for _, r := range book.expire(1 + id/8) {
				book.retire(r)
			}
		}
	}
	for _, r := range book.expire(math.MaxInt) {
		book.retire(r)
	}
	// IDs are filed in order, so the first block in memory splits them.
	if spilledChunks(book) == 0 {
		b.Fatal("no chunk spilled: nothing to read back")
	}
	hot := book.spans[spilledChunks(book)-1].hi + 1
	for _, c := range []struct {
		name   string
		lo, hi int
	}{{"hot", hot, filed}, {"cold", 1, hot - 1}} {
		ids := make([]int, 4096)
		for i := range ids {
			ids[i] = c.lo + rng.Intn(c.hi-c.lo+1)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				id := ids[i%len(ids)]
				if rec, ok := lookup(book, id, math.MaxInt); !ok || rec.ID != id || rec.State != StateExpired {
					b.Fatalf("lookup(%d) = %+v, %v", id, rec, ok)
				}
			}
		})
	}
}
