package serve

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"unsafe"

	"revnf/internal/core"
)

// bookChunk is the length of one history chunk (records) and of one arena
// chunk (assignments). A power of two, so the index split compiles to a
// shift and a mask; 16 Ki records are 1.4 MB, small enough that opening a
// chunk under the engine mutex costs nothing a decision would notice.
const bookChunk = 16 << 10

// filedPlacement is one history entry: a PlacementRecord without a pointer
// in it, so the collector never scans the chunks that hold it. IDs, slots,
// the group ID and the arena offset stay int: they grow with the daemon's
// age, and narrowing them would bound its lifetime. The rest narrows to
// what a check guarantees: vnf and backupCloudlet index the network's
// catalog and cloudlets, count is at most the number of cloudlets
// (Placement.Validate rejects a cloudlet assigned twice) and duration at
// most the horizon (the ledger holds no longer window) — three sizes New
// checks against int32; poolSize and the instance counts are checked per
// placement by fileable. scheme is a registered core.Scheme, a small iota
// constant.
type filedPlacement struct {
	id, arrival               int
	decidedSlot, reservedFrom int
	group                     int // shared backup group; 0 means none (group IDs are positive)
	assignments               int // arena offset of the run
	reliability, payment      float64
	duration, vnf             int32
	backupCloudlet, poolSize  int32
	count                     int32 // assignments in the run
	scheme                    uint8
	degraded                  bool
}

// filedAssignment is one core.Assignment in the arena.
type filedAssignment struct {
	cloudlet, instances int32
}

// fileable reports whether the history can hold the placement: its
// instance counts and pool size fit an int32. The engine rejects a
// placement that is not as invalid; no scheduler in the tree can produce
// one (an instance takes at least one capacity unit).
func fileable(p core.Placement) bool {
	for _, a := range p.Assignments {
		if a.Instances > math.MaxInt32 {
			return false
		}
	}
	return p.Backup == nil || p.Backup.PoolSize <= math.MaxInt32
}

// placementBook is the engine's ID-keyed state, in two parts.
//
// The live records — admitted and not yet expired: what Tick releases and
// what the failure runtime repairs — are filed in the expiry ring itself: a
// deque of per-slot buckets holding each record under the last slot of its
// window, and a deque of counts of live records per first reserved slot,
// whose front is the oldest slot a live footprint holds (what a rolling
// ledger's base must not pass). The fronts follow the clock, so expiry pops
// whole buckets and gets the records back, and the ring's memory follows
// the span of slots between the oldest and the newest live window, which
// the horizon bounds. There is no per-ID table: a live record is found by
// ID through its history entry, whose window names the bucket to scan. A
// record enters at admission and leaves at expiry, when it goes back on the
// free list, so a steady-state admission allocates no record.
//
// history holds every placement ever admitted as a filedPlacement, sorted
// by ID in chunks of bookChunk; arena holds their assignment runs the same
// way. Both grow by one chunk at a time — nothing is copied on growth — and
// neither contains a pointer, so the history costs memory (88 B + 8 B per
// assignment for every admission, for as long as the daemon runs) but no
// collector time. A record is filed at admission and rewritten only by the
// failure runtime (refile), so the history always mirrors the live record
// and expiry never touches it.
//
// The book has no lock: the Engine field holding it is guarded by mu, and
// no pointer to a live record may outlive the critical section that read
// it, because retire recycles the record.
type placementBook struct {
	ends    slotDeque[[]*PlacementRecord] // live records by the last slot of their window
	starts  slotDeque[int]                // live records by ReservedFrom; the front count is never 0
	active  int                           // live records
	expired []*PlacementRecord            // expire's result, reused call after call
	free    []*PlacementRecord
	history [][]filedPlacement
	arena   [][]filedAssignment
}

// admit books one admission: a live record (recycled when one is free),
// filed in the ring, and its history entry.
func (b *placementBook) admit(req core.Request, placement core.Placement, slot int) {
	var rec *PlacementRecord
	if n := len(b.free); n > 0 {
		rec, b.free = b.free[n-1], b.free[:n-1]
	} else {
		rec = new(PlacementRecord)
	}
	*rec = PlacementRecord{
		ID:           req.ID,
		Request:      req,
		Placement:    placement,
		DecidedSlot:  slot,
		State:        StateScheduled,
		ReservedFrom: req.Arrival,
	}
	if b.active == 0 {
		// Every bucket is empty: restart the range at this window rather
		// than stretch it from wherever the last one drained.
		b.ends.n = 0
	}
	bucket := b.ends.at(req.End())
	*bucket = append(*bucket, rec)
	*b.starts.at(rec.ReservedFrom)++
	b.active++
	b.file(b.pack(rec, b.reserve(len(placement.Assignments))))
}

// expire takes every record whose window ended before slot now out of the
// ring — a window ending at slot e expires the moment the clock reaches
// e+1 — and returns them in ascending ID order, still whole: the caller
// releases each footprint, then retires the record. A record filed behind
// the front (a decision that booked a window the clock had passed) is in
// range and leaves with the rest. The slice is the book's scratch, valid
// until the next expire.
func (b *placementBook) expire(now int) []*PlacementRecord {
	b.expired = b.expired[:0]
	for b.ends.n > 0 && b.ends.lo < now {
		bucket := b.ends.front()
		for _, rec := range *bucket {
			b.expired = append(b.expired, rec)
			b.dropStart(rec.ReservedFrom)
		}
		*bucket = (*bucket)[:0]
		b.ends.popFront()
	}
	b.active -= len(b.expired)
	// Buckets pop in slot order and fill in decision order, which is ID
	// order at one token; sort only a batch that is not.
	byID := func(x, y *PlacementRecord) int { return cmp.Compare(x.ID, y.ID) }
	if !slices.IsSortedFunc(b.expired, byID) {
		slices.SortFunc(b.expired, byID)
	}
	return b.expired
}

// retire recycles a record expire returned, once its footprint is
// released. The record is cleared so the scheduler's placement it pointed
// at can be collected.
func (b *placementBook) retire(rec *PlacementRecord) {
	*rec = PlacementRecord{}
	b.free = append(b.free, rec)
}

// dropStart forgets one live record reserved from slot and moves the front
// of the start counts up to the oldest slot that still has one.
func (b *placementBook) dropStart(slot int) {
	*b.starts.at(slot)--
	for b.starts.n > 0 && *b.starts.front() == 0 {
		b.starts.popFront()
	}
}

// rebase moves a live record's reservation to start at from: a repair
// booked [from, end] and released the old footprint, which no longer pins
// the rolling window open. The end, and so the bucket, stays.
func (b *placementBook) rebase(rec *PlacementRecord, from int) {
	b.dropStart(rec.ReservedFrom)
	rec.ReservedFrom = from
	*b.starts.at(from)++
}

// oldestStart returns the first reserved slot of the oldest live footprint,
// and false when nothing is live. A rolling engine advances its ledger base
// to min(clock, oldestStart): live reservations pin the window open so
// their release still addresses live slots.
func (b *placementBook) oldestStart() (int, bool) {
	return b.starts.lo, b.active > 0
}

// liveRecord returns the live record for id, nil when id was never
// admitted or has expired.
func (b *placementBook) liveRecord(id int) *PlacementRecord {
	if f := b.find(id); f != nil {
		return b.liveOf(f)
	}
	return nil
}

// liveOf returns the live record of a history entry, nil once it has
// expired: a scan of the bucket of the window's last slot.
func (b *placementBook) liveOf(f *filedPlacement) *PlacementRecord {
	end := f.arrival + int(f.duration) - 1
	if end < b.ends.lo || end >= b.ends.lo+b.ends.n {
		return nil
	}
	for _, rec := range *b.ends.at(end) {
		if rec.ID == f.id {
			return rec
		}
	}
	return nil
}

// refile rewrites the history entry of a live record the failure runtime
// changed (a repair moved its footprint, or its repair budget ran out). The
// assignments are overwritten in place when the new run is no longer than
// the old one; otherwise a new run is reserved and the old one abandoned.
func (b *placementBook) refile(rec *PlacementRecord) {
	f := b.find(rec.ID)
	off := f.assignments
	if n := len(rec.Placement.Assignments); n > int(f.count) {
		off = b.reserve(n)
	}
	*f = b.pack(rec, off)
}

// lookup returns a copy of the record for id: the live one with its state
// as of slot, or else the filed one, which has expired. A filed copy shares
// no memory with the book; a live copy shares the scheduler's assignments
// with the live record, which replaces them on repair and never writes them.
func (b *placementBook) lookup(id, slot int) (PlacementRecord, bool) {
	f := b.find(id)
	if f == nil {
		return PlacementRecord{}, false
	}
	rec := b.liveOf(f)
	if rec == nil {
		return b.unpack(f), true
	}
	out := *rec
	if out.State != StateDegraded {
		if slot < out.Request.Arrival {
			out.State = StateScheduled
		} else {
			out.State = StateActive
		}
	}
	return out, true
}

// entries returns the number of history entries. Every chunk but the last
// is full.
func (b *placementBook) entries() int {
	n := len(b.history)
	if n == 0 {
		return 0
	}
	return (n-1)*bookChunk + len(b.history[n-1])
}

// bytes returns the memory the history and the arena hold, whole chunks
// counted.
func (b *placementBook) bytes() int {
	n := len(b.history) * bookChunk * int(unsafe.Sizeof(filedPlacement{}))
	for _, c := range b.arena {
		n += cap(c) * int(unsafe.Sizeof(filedAssignment{}))
	}
	return n
}

// at addresses history entry i of entries().
func (b *placementBook) at(i int) *filedPlacement {
	return &b.history[i/bookChunk][i%bookChunk]
}

// find returns the history entry for id by binary search, nil when id was
// never admitted.
func (b *placementBook) find(id int) *filedPlacement {
	n := b.entries()
	i := sort.Search(n, func(i int) bool { return b.at(i).id >= id })
	if i == n || b.at(i).id != id {
		return nil
	}
	return b.at(i)
}

// file inserts f in ID order: open a place at the end, then walk it back
// while the predecessor is larger. A decision takes its ID under its worker
// token and files after its Commit, so an ID can arrive after the larger
// ones of the other tokens (none at one token) — a bounded walk, and nothing
// holds positions into the history.
func (b *placementBook) file(f filedPlacement) {
	last := len(b.history) - 1
	if last < 0 || len(b.history[last]) == bookChunk {
		b.history = append(b.history, make([]filedPlacement, 0, bookChunk))
		last++
	}
	b.history[last] = b.history[last][:len(b.history[last])+1]
	i := b.entries() - 1
	for ; i > 0 && b.at(i-1).id > f.id; i-- {
		*b.at(i) = *b.at(i - 1)
	}
	*b.at(i) = f
}

// reserve opens a run of n arena entries and returns its offset. A run
// never straddles chunks: one that does not fit the rest of the last chunk
// opens a new one, longer than bookChunk if the run is — such a run starts
// at position 0, so the offset split still finds it.
func (b *placementBook) reserve(n int) int {
	last := len(b.arena) - 1
	if last < 0 || len(b.arena[last])+n > cap(b.arena[last]) {
		b.arena = append(b.arena, make([]filedAssignment, 0, max(bookChunk, n)))
		last++
	}
	off := last*bookChunk + len(b.arena[last])
	b.arena[last] = b.arena[last][:len(b.arena[last])+n]
	return off
}

// run addresses the n assignments at arena offset off.
func (b *placementBook) run(off, n int) []filedAssignment {
	return b.arena[off/bookChunk][off%bookChunk:][:n]
}

// pack narrows a record into its history entry and writes its assignments
// to the run reserved at arena offset off. Placement.Request and Request.ID
// equal the record's ID (Placement.Validate), so one id stands for all
// three.
func (b *placementBook) pack(rec *PlacementRecord, off int) filedPlacement {
	req, p := rec.Request, rec.Placement
	run := b.run(off, len(p.Assignments))
	for i, a := range p.Assignments {
		run[i] = filedAssignment{int32(a.Cloudlet), int32(a.Instances)}
	}
	f := filedPlacement{
		id:           rec.ID,
		arrival:      req.Arrival,
		decidedSlot:  rec.DecidedSlot,
		reservedFrom: rec.ReservedFrom,
		assignments:  off,
		reliability:  req.Reliability,
		payment:      req.Payment,
		duration:     int32(req.Duration),
		vnf:          int32(req.VNF),
		count:        int32(len(run)),
		scheme:       uint8(p.Scheme),
		degraded:     rec.State == StateDegraded,
	}
	if bk := p.Backup; bk != nil {
		f.group, f.backupCloudlet, f.poolSize = bk.Group, int32(bk.Cloudlet), int32(bk.PoolSize)
	}
	return f
}

// unpack widens a history entry into a fresh record. The caller has found
// no live record for it, so its state is expired unless it was marked
// degraded.
func (b *placementBook) unpack(f *filedPlacement) PlacementRecord {
	run := b.run(f.assignments, int(f.count))
	rec := PlacementRecord{
		ID: f.id,
		Request: core.Request{
			ID:          f.id,
			VNF:         int(f.vnf),
			Reliability: f.reliability,
			Arrival:     f.arrival,
			Duration:    int(f.duration),
			Payment:     f.payment,
		},
		Placement: core.Placement{
			Request:     f.id,
			Scheme:      core.Scheme(f.scheme),
			Assignments: make([]core.Assignment, len(run)),
		},
		DecidedSlot:  f.decidedSlot,
		State:        StateExpired,
		ReservedFrom: f.reservedFrom,
	}
	for i, a := range run {
		rec.Placement.Assignments[i] = core.Assignment{Cloudlet: int(a.cloudlet), Instances: int(a.instances)}
	}
	if f.degraded {
		rec.State = StateDegraded
	}
	if f.group != 0 {
		rec.Placement.Backup = &core.SharedBackup{Group: f.group, Cloudlet: int(f.backupCloudlet), PoolSize: int(f.poolSize)}
	}
	return rec
}

// slotDeque holds one cell per slot of a contiguous slot range
// [lo, lo+n-1] in a ring buffer, so that state keyed by slot costs an
// index rather than a hash and its storage is reused lap after lap. Cells
// outside the range are in their empty state (the zero value, or what
// popFront's caller reset them to), so the range grows over them as-is.
type slotDeque[T any] struct {
	cells []T // ring; the cell of slot lo sits at index head
	head  int
	n     int // slots in range
	lo    int // first slot in range; meaningless while n == 0
}

// at returns the cell of slot, growing the range (at either end) to
// include it.
func (d *slotDeque[T]) at(slot int) *T {
	switch {
	case d.n == 0:
		d.reserve(1)
		d.lo, d.n = slot, 1
	case slot < d.lo:
		grow := d.lo - slot
		d.reserve(d.n + grow)
		if d.head -= grow; d.head < 0 {
			d.head += len(d.cells)
		}
		d.lo, d.n = slot, d.n+grow
	case slot >= d.lo+d.n:
		d.reserve(slot - d.lo + 1)
		d.n = slot - d.lo + 1
	}
	i := d.head + slot - d.lo
	if i >= len(d.cells) {
		i -= len(d.cells)
	}
	return &d.cells[i]
}

// reserve makes room for n cells, keeping every cell (the empty ones too:
// their backing arrays are what the ring recycles).
func (d *slotDeque[T]) reserve(n int) {
	if n <= len(d.cells) {
		return
	}
	cells := make([]T, max(n, 2*len(d.cells), 8))
	k := copy(cells, d.cells[d.head:])
	copy(cells[k:], d.cells[:d.head])
	d.cells, d.head = cells, 0
}

// front returns the cell of slot lo; the range must not be empty.
func (d *slotDeque[T]) front() *T { return &d.cells[d.head] }

// popFront drops slot lo from the range. The caller has already returned
// its cell to the empty state.
func (d *slotDeque[T]) popFront() {
	if d.head++; d.head == len(d.cells) {
		d.head = 0
	}
	d.lo++
	d.n--
}
