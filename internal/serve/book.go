package serve

import (
	"cmp"
	"encoding/binary"
	"math"
	"os"
	"slices"
	"sort"
	"sync/atomic"
	"unsafe"

	"revnf/internal/core"
	"revnf/internal/timeslot"
)

// The history's geometry: a lookup steps over at most a block's entries,
// and a chunk holds about 2.5 Ki on-site entries and their rows.
const (
	historyBlockEntries = 128
	historyChunk        = 64 << 10
	rowSize             = int(unsafe.Sizeof(historyBlock{}))
)

// historyBlock is a block's row. Its entries start at byte off of its
// chunk, after the block's header: varint(arrival base), varint(group
// base). hi is the largest own ID — every ID it holds but the late ones —
// of the block and those before it, so a binary search of the rows by hi
// names the one block an ID can be in.
type historyBlock struct {
	hi, off int
	n       int // entries, late ones and refiles included
}

// historySpan is a chunk's first block and row count, its last block's
// hi, the latest last slot of a window filed in it and, once spilled, the
// offset and length of its bytes in the spill file, rows behind them.
type historySpan struct {
	first, rows, hi, end, at, size int
}

// An entry's flags byte.
const (
	entryDegraded = 1 << iota // the repair budget ran out
	entryRebased              // ReservedFrom != Arrival: a varint follows
	entryBackup               // a shared backup follows the assignments
	entryCount                // not exactly one assignment: a uvarint count follows
)

// placementBook is the engine's ID-keyed state, in two parts.
//
// The live records — admitted and not yet expired: what Tick releases and
// what the failure runtime repairs — are filed in the expiry ring itself: an
// end-slot index holding each record under the last slot of its window. The
// front follows the clock, so expiry pops whole cells and gets the records
// back, and the ring's memory follows the span of slots between the oldest
// and the newest live window, which the horizon bounds.
// There is no per-ID table: a live record is found by ID through its
// history entry, whose window names the cell to scan. A record enters at
// admission and leaves at expiry, when it goes back on the free list, so a
// steady-state admission allocates no record.
//
// The history holds every placement ever admitted, as an append-only byte
// stream of varint-coded entries (encode has the layout) cut into blocks of
// at most historyBlockEntries, each with a row. An entry is
// prefixed by zigzag(ID − the previous ID in its block) and its body's
// length, so a lookup decodes one block's prefixes and only the body it
// wants. IDs arrive out of order by up to workers − 1 positions (an ID is
// taken under the worker token and filed after the Commit) and stay in the
// open block. An ID at or below a sealed block's hi (a decision preempted
// across a whole block) is late, and so is every refile: the failure
// runtime refiles a record it changed by appending a newer entry, so the
// newest entry always mirrors the live record and expiry never touches the
// history. late maps a late ID to the block of its newest entry; every
// other ID has one entry, in the block its hi names. Nothing in it but
// slice headers holds a pointer, so it costs no collector time, and it
// grows a chunk at a time; spillOld moves older chunks and their rows to a
// file, and their spans find them.
//
// The book has no lock: the Engine field holding it is guarded by mu, and
// no pointer to a live record may outlive the critical section that read
// it, because retire recycles the record.
type placementBook struct {
	ends    timeslot.Ends[*PlacementRecord] // live records by the last slot of their window
	active  int                             // live records
	expired []*PlacementRecord              // expire's result, reused call after call
	free    []*PlacementRecord

	spans       []historySpan  // every chunk, oldest first; the spilled ones lie back to back in spill
	chunks      [][]byte       // the bytes of the chunks after the spilled ones; the last is open
	rows        []historyBlock // the rows of their blocks; the last is the open block's
	spare       []byte         // the buffer of the chunk spilled last: the next chunk opens in it
	chunkSize   int            // a new chunk's size; 0 means historyChunk
	spill       *os.File       // nil before the first spill; never closed, its finalizer does
	spilled     int            // spill's size
	spillErrors atomic.Int64   // failed spills and cold reads: a cold read runs without mu
	blocks      int            // blocks opened; the open one is blocks − 1
	late        map[int]int    // late ID → block of its newest entry
	filed       int            // admissions in the history
	// The open block's encoder state: the previous ID, the bases of its
	// entries' arrivals and groups, and the hi of the block before it.
	prevID, arrivalBase, groupBase, sealedHi int
	lastGroup                                int    // the newest backup group filed: the next block's group base
	body                                     []byte // encode's scratch
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
	rec.ID, rec.Request, rec.Placement = req.ID, req, placement
	rec.DecidedSlot, rec.State, rec.ReservedFrom = slot, StateScheduled, req.Arrival
	b.ends.File(req.End(), rec)
	b.active++
	b.filed++
	b.file(rec, false)
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
	b.ends.Pop(now, func(rec *PlacementRecord) { b.expired = append(b.expired, rec) })
	b.active -= len(b.expired)
	// Cells pop in slot order and fill in decision order, which is ID
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

// liveRecord returns the live record for id, nil when id was never
// admitted or has expired. It reads no file: a spilled block holds no live
// record's newest entry.
func (b *placementBook) liveRecord(id int) *PlacementRecord {
	if f, cold, ok := b.find(id); ok && cold == nil {
		return b.liveOf(f)
	}
	return nil
}

// liveOf returns the live record of a history entry, nil once it has
// expired: a scan of the cell of the window's last slot.
func (b *placementBook) liveOf(f filedEntry) *PlacementRecord {
	r := f.body
	arrival := f.arrivalBase + r.int()
	r.int() // arrival − decided slot
	end := arrival + r.int() - 1
	for _, rec := range b.ends.Cell(end) {
		if rec.ID == f.id {
			return rec
		}
	}
	return nil
}

// refile files a newer history entry for a live record the failure runtime
// changed (a repair moved its footprint, or its repair budget ran out).
func (b *placementBook) refile(rec *PlacementRecord) {
	b.file(rec, true)
}

// lookup returns a copy of the record for id: the live one with its state
// as of slot, or else the filed one, which has expired. A filed copy shares
// no memory with the book; a live copy shares the scheduler's assignments
// with the live record, which replaces them on repair and never writes them.
// A spilled entry it leaves to cold, which needs no lock.
func (b *placementBook) lookup(id, slot int) (PlacementRecord, coldRead, bool) {
	f, cold, ok := b.find(id)
	if !ok || cold != nil {
		return PlacementRecord{}, cold, ok
	}
	rec := b.liveOf(f)
	if rec == nil {
		return f.unpack(), nil, true
	}
	out := *rec
	if out.State != StateDegraded {
		if slot < out.Request.Arrival {
			out.State = StateScheduled
		} else {
			out.State = StateActive
		}
	}
	return out, nil, true
}

// bytes returns the memory the history holds: its chunks in memory and the
// spare, counted whole, their rows, and the chunks' spans.
func (b *placementBook) bytes() int {
	n := cap(b.spans)*int(unsafe.Sizeof(historySpan{})) + cap(b.rows)*rowSize + cap(b.spare)
	for _, c := range b.chunks {
		n += cap(c)
	}
	return n
}

// file appends rec's history entry to the open block, after opening a new
// one when the open block is full or the entry does not fit what is left
// of its chunk. A refile is late, and so is an ID a sealed block already
// covers: a block's own IDs have one entry each.
func (b *placementBook) file(rec *PlacementRecord, refile bool) {
	if b.blocks == 0 || b.rows[len(b.rows)-1].n == historyBlockEntries || !b.fits(b.encode(rec)) {
		b.openBlock(rec)
	}
	c, span, blk := &b.chunks[len(b.chunks)-1], &b.spans[len(b.spans)-1], &b.rows[len(b.rows)-1]
	*c = append(b.appendPrefix(*c, rec.ID), b.body...)
	span.end = max(span.end, rec.Request.End())
	blk.n++
	b.prevID = rec.ID
	if bk := rec.Placement.Backup; bk != nil {
		b.lastGroup = bk.Group
	}
	if !refile && (b.blocks == 1 || rec.ID > b.sealedHi) {
		blk.hi = max(blk.hi, rec.ID)
		span.hi = blk.hi
		return
	}
	if b.late == nil {
		b.late = make(map[int]int)
	}
	b.late[rec.ID] = b.blocks - 1
}

// fits reports whether n more bytes fit the last chunk beside its rows.
func (b *placementBook) fits(n int) bool {
	c := b.chunks[len(b.chunks)-1]
	return cap(c)-len(c)-rowSize*b.spans[len(b.spans)-1].rows >= n
}

// openBlock seals the open block and opens the next with rec as its first
// entry: the bases are rec's arrival and the newest group filed, and the
// block starts a new chunk, in the spare if it is large enough, when its
// header, rec's entry and its row do not fit the last one. A new buffer is
// historyChunk bytes, or the three's size if that is more, so neither a
// block nor an entry ever straddles two chunks.
func (b *placementBook) openBlock(rec *PlacementRecord) {
	b.sealedHi = math.MinInt
	if b.blocks > 0 {
		b.sealedHi = b.spans[len(b.spans)-1].hi
	}
	b.prevID, b.arrivalBase, b.groupBase = 0, rec.Request.Arrival, b.lastGroup
	var buf [2 * binary.MaxVarintLen64]byte
	head := binary.AppendVarint(binary.AppendVarint(buf[:0], int64(b.arrivalBase)), int64(b.groupBase))
	if need := len(head) + b.encode(rec) + rowSize; b.blocks == 0 || !b.fits(need) {
		b.spillOld()
		if cap(b.spare) < need {
			b.spare = make([]byte, 0, max(cmp.Or(b.chunkSize, historyChunk), need))
		}
		b.chunks, b.spare = append(b.chunks, b.spare), nil
		b.spans = append(b.spans, historySpan{first: b.blocks, hi: b.sealedHi, end: math.MinInt})
	}
	c := &b.chunks[len(b.chunks)-1]
	b.rows = append(b.rows, historyBlock{hi: b.sealedHi, off: len(*c)})
	*c = append(*c, head...)
	b.spans[len(b.spans)-1].rows++
	b.blocks++
}

// spillOld writes the chunks in memory, which never change once the next
// opens, to a temporary file, bytes then rows, and drops them, oldest
// first, up to the first one a live window may still end in (every live
// window ends at or after the ring's front); the last one's buffer becomes
// the spare. A failure keeps the chunk until the next chunk opens.
func (b *placementBook) spillOld() {
	for len(b.chunks) > 0 {
		c, span := b.chunks[0], &b.spans[len(b.spans)-len(b.chunks)]
		if b.active > 0 && span.end >= b.ends.Base() {
			return
		}
		if b.spill == nil { // unlinked at once; nil on a failure, which WriteAt counts
			if f, err := os.CreateTemp("", "revnfd-history-*"); err == nil && os.Remove(f.Name()) == nil {
				b.spill = f
			} else if err == nil {
				f.Close()
			}
		}
		out := append(c, rowBytes(b.rows[:span.rows])...)
		if _, err := b.spill.WriteAt(out, int64(b.spilled)); err != nil {
			b.spillErrors.Add(1)
			return
		}
		span.at, span.size, b.spilled = b.spilled, len(c), b.spilled+len(out)
		b.chunks, b.rows, b.spare = slices.Delete(b.chunks, 0, 1), slices.Delete(b.rows, 0, span.rows), c[:0]
	}
}

// appendPrefix appends the prefix of the entry encode last wrote for id:
// zigzag(id − the previous ID in the block), uvarint(body length).
func (b *placementBook) appendPrefix(dst []byte, id int) []byte {
	return binary.AppendUvarint(binary.AppendVarint(dst, int64(id-b.prevID)), uint64(len(b.body)))
}

// encode writes the body of rec's entry, relative to the open block's
// bases, into the book's scratch and returns the entry's length, prefix
// included. The body is, as zigzag varints unless noted: arrival − the
// block's arrival base, arrival − decided slot, duration, VNF, scheme; a
// flags byte; ReservedFrom − arrival if re-based; uvarint(assignment
// count) unless it is 1; (cloudlet, instances) per assignment; the
// backup's group − the block's group base, cloudlet and pool size if it
// has one; then R and the payment as 8-byte IEEE bits, so they round-trip
// exactly. Differences wrap, so any int round-trips. Placement.Request
// and Request.ID equal the record's ID (Placement.Validate): the prefix's
// ID stands for all three.
func (b *placementBook) encode(rec *PlacementRecord) int {
	req, p := &rec.Request, &rec.Placement
	var flags byte
	if rec.State == StateDegraded {
		flags |= entryDegraded
	}
	if rec.ReservedFrom != req.Arrival {
		flags |= entryRebased
	}
	if p.Backup != nil {
		flags |= entryBackup
	}
	if len(p.Assignments) != 1 {
		flags |= entryCount
	}
	e := binary.AppendVarint(b.body[:0], int64(req.Arrival-b.arrivalBase))
	e = binary.AppendVarint(e, int64(req.Arrival-rec.DecidedSlot))
	e = binary.AppendVarint(e, int64(req.Duration))
	e = binary.AppendVarint(e, int64(req.VNF))
	e = binary.AppendVarint(e, int64(p.Scheme))
	e = append(e, flags)
	if flags&entryRebased != 0 {
		e = binary.AppendVarint(e, int64(rec.ReservedFrom-req.Arrival))
	}
	if flags&entryCount != 0 {
		e = binary.AppendUvarint(e, uint64(len(p.Assignments)))
	}
	for _, a := range p.Assignments {
		e = binary.AppendVarint(binary.AppendVarint(e, int64(a.Cloudlet)), int64(a.Instances))
	}
	if bk := p.Backup; bk != nil {
		e = binary.AppendVarint(e, int64(bk.Group-b.groupBase))
		e = binary.AppendVarint(binary.AppendVarint(e, int64(bk.Cloudlet)), int64(bk.PoolSize))
	}
	e = binary.LittleEndian.AppendUint64(e, math.Float64bits(req.Reliability))
	b.body = binary.LittleEndian.AppendUint64(e, math.Float64bits(req.Payment))
	var buf [2 * binary.MaxVarintLen64]byte
	return len(b.appendPrefix(buf[:0], rec.ID)) + len(b.body)
}

// filedEntry is the newest history entry of one ID: its body, and the
// bases of the block it is in.
type filedEntry struct {
	id, arrivalBase, groupBase int
	body                       entryReader
}

// coldRead reads a spilled entry back, its chunk's rows and then its
// block, and unpacks it; false when a read fails, which counts, or the
// block has no entry for the ID. Spilled bytes never change: it needs no mu.
type coldRead func() (PlacementRecord, bool)

// find returns the newest history entry for id, false when id was never
// admitted: the late map or a search by hi, of the spans and then the
// rows, names the block. A block in memory find walks; for a spilled one,
// which holds no live record's entry, it returns the read instead, and true.
func (b *placementBook) find(id int) (filedEntry, coldRead, bool) {
	k, late := b.late[id]
	c := sort.Search(len(b.spans), func(i int) bool {
		return late && b.spans[i].first > k || !late && b.spans[i].hi >= id
	})
	if late {
		c--
	} else if c == len(b.spans) {
		return filedEntry{}, nil, false
	}
	span, spilled := b.spans[c], len(b.spans)-len(b.chunks)
	if c >= spilled {
		rows := b.rows[span.first-b.spans[spilled].first:]
		blk := rows[blockOf(rows, span.first, k, id, late)]
		f, ok := walkBlock(b.chunks[c-spilled][blk.off:], blk.n, id, late)
		return f, nil, ok
	}
	file := b.spill
	return filedEntry{}, func() (PlacementRecord, bool) {
		rows := make([]historyBlock, span.rows, span.rows+1)
		if _, err := file.ReadAt(rowBytes(rows), int64(span.at+span.size)); err != nil {
			b.spillErrors.Add(1)
			return PlacementRecord{}, false
		}
		i := blockOf(rows, span.first, k, id, late)
		rows = append(rows, historyBlock{off: span.size}) // where the last block ends
		buf := make([]byte, rows[i+1].off-rows[i].off)
		if _, err := file.ReadAt(buf, int64(span.at+rows[i].off)); err != nil {
			b.spillErrors.Add(1)
		} else if f, ok := walkBlock(buf, rows[i].n, id, late); ok {
			return f.unpack(), true
		}
		return PlacementRecord{}, false
	}, true
}

// blockOf returns which of rows, a chunk's from its block first on, holds
// id's newest entry: block k for a late ID, else the first with hi ≥ id.
func blockOf(rows []historyBlock, first, k, id int, late bool) int {
	if late {
		return k - first
	}
	return sort.Search(len(rows), func(i int) bool { return rows[i].hi >= id })
}

// rowBytes views rows as bytes: the spill file is the process's own.
func rowBytes(rows []historyBlock) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(rows))), len(rows)*rowSize)
}

// walkBlock walks the prefixes of the block r starts with to id's newest
// entry: an own ID's one entry, or a late ID's last one in the block.
func walkBlock(r entryReader, entries, id int, late bool) (filedEntry, bool) {
	f := filedEntry{id: id, arrivalBase: r.int(), groupBase: r.int()}
	found := false
	for i, prev := 0, 0; i < entries; i++ {
		var d, n uint64
		if r[0]|r[1] < 0x80 { // a one-byte delta and length: nearly every prefix
			d, n, r = uint64(r[0]), uint64(r[1]), r[2:]
		} else {
			d, n = r.uint(), r.uint()
		}
		prev += int(d>>1) ^ -int(d&1)
		if prev == id {
			f.body, found = r[:n], true
			if !late {
				break
			}
		}
		r = r[n:]
	}
	return f, found
}

// unpack decodes the entry into a fresh record. The caller has found no
// live record for it, so its state is expired unless it was marked
// degraded.
func (f filedEntry) unpack() PlacementRecord {
	r := f.body
	rec := PlacementRecord{ID: f.id, State: StateExpired}
	req := &rec.Request
	req.ID, req.Arrival = f.id, f.arrivalBase+r.int()
	rec.DecidedSlot = req.Arrival - r.int()
	req.Duration = r.int()
	req.VNF = r.int()
	rec.Placement = core.Placement{Request: f.id, Scheme: core.Scheme(r.int())}
	flags := r[0]
	r = r[1:]
	rec.ReservedFrom = req.Arrival
	if flags&entryRebased != 0 {
		rec.ReservedFrom += r.int()
	}
	count := 1
	if flags&entryCount != 0 {
		count = int(r.uint())
	}
	rec.Placement.Assignments = make([]core.Assignment, count)
	for i := range rec.Placement.Assignments {
		rec.Placement.Assignments[i] = core.Assignment{Cloudlet: r.int(), Instances: r.int()}
	}
	if flags&entryBackup != 0 {
		rec.Placement.Backup = &core.SharedBackup{Group: f.groupBase + r.int(), Cloudlet: r.int(), PoolSize: r.int()}
	}
	if flags&entryDegraded != 0 {
		rec.State = StateDegraded
	}
	req.Reliability = math.Float64frombits(binary.LittleEndian.Uint64(r))
	req.Payment = math.Float64frombits(binary.LittleEndian.Uint64(r[8:]))
	return rec
}

// entryReader decodes a history entry field by field. The book wrote
// every byte it reads, so it checks nothing.
type entryReader []byte

// int decodes a zigzag varint.
func (r *entryReader) int() int {
	u := r.uint()
	return int(u>>1) ^ -int(u&1)
}

// uint decodes a uvarint.
func (r *entryReader) uint() uint64 {
	v, n := binary.Uvarint(*r)
	*r = (*r)[n:]
	return v
}
