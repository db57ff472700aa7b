package serve

import (
	"math"
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
// live holds the admitted-and-not-yet-expired records — what Tick releases
// and what the failure runtime repairs. A record enters at admission and
// leaves at expiry, when it goes back on the free list, so live is bounded
// by the window (at most the placements that fit the ledger at once) and a
// steady-state admission allocates no record.
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
	live    map[int]*PlacementRecord
	free    []*PlacementRecord
	history [][]filedPlacement
	arena   [][]filedAssignment
}

func newPlacementBook() placementBook {
	return placementBook{live: make(map[int]*PlacementRecord)}
}

// admit books one admission: a live record (recycled when one is free) and
// its history entry.
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
	b.live[req.ID] = rec
	b.file(b.pack(rec, b.reserve(len(placement.Assignments))))
}

// retire drops an expired record from the live index and recycles it. The
// record is cleared so the scheduler's placement it pointed at can be
// collected.
func (b *placementBook) retire(rec *PlacementRecord) {
	delete(b.live, rec.ID)
	*rec = PlacementRecord{}
	b.free = append(b.free, rec)
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
	if rec, ok := b.live[id]; ok {
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
	f := b.find(id)
	if f == nil {
		return PlacementRecord{}, false
	}
	return b.unpack(f), true
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

// unpack widens a history entry into a fresh record. Whatever is filed has
// left the live index, so its state is expired unless it was marked
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
