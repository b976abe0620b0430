package core

// Buffer recycling (see DESIGN.md, "Buffer recycling"). A C build of GODIVA
// hands a deleted unit's buffers back to malloc for the next read; here the
// database keeps released, database-allocated field buffers on a free list
// and gives an exact (type, size) match to the next allocation instead of
// making a new zeroed slice and leaving the old one to the garbage collector.
//
// The list is demand-gated and bounded, so it never holds memory nobody is
// about to ask for:
//
//   - a released buffer is kept only while a read is coming — a unit in the
//     prefetch queue, a background read, or an inline read in progress;
//     otherwise the buffer goes to the GC, and so does the whole list when
//     the last coming read ends;
//   - free bytes stay within max(1, IOWorkers) × the largest unit released
//     so far, and within limit − mem, so charged plus free bytes never
//     exceed the memory limit; the oldest entries are dropped first.
//
// Free bytes are not charged against the limit and the §3.3 rules do not see
// them: a recycled buffer is reserved exactly like a new one. Borrowed
// buffers alias donor memory and are never recycled.

// freeKey identifies interchangeable released buffers.
type freeKey struct {
	dtype DataType
	size  int
}

// freeList holds released buffers in release order (head = oldest), linked
// through Buffer.freePrev/freeNext, and indexes them by key. All fields are
// guarded by the owning DB's mu; the *Locked method names mark that callers
// must hold it.
type freeList struct {
	head, tail *Buffer               // guarded by db.mu
	byKey      map[freeKey][]*Buffer // entries per key, oldest first; guarded by db.mu
	bytes      int64                 // sum of entry sizes; guarded by db.mu
	n          int                   // entries; guarded by db.mu
	maxUnit    int64                 // largest unit charge released so far; guarded by db.mu
}

// pushLocked appends b as the newest entry.
func (l *freeList) pushLocked(b *Buffer) {
	b.freePrev = l.tail
	b.freeNext = nil
	if l.tail != nil {
		l.tail.freeNext = b
	} else {
		l.head = b
	}
	l.tail = b
	if l.byKey == nil {
		l.byKey = make(map[freeKey][]*Buffer)
	}
	k := freeKey{b.dtype, b.size}
	l.byKey[k] = append(l.byKey[k], b)
	l.bytes += int64(b.size)
	l.n++
}

// takeLocked removes and returns the newest entry of type t and exactly size
// bytes, or nil.
func (l *freeList) takeLocked(t DataType, size int) *Buffer {
	k := freeKey{t, size}
	s := l.byKey[k]
	if len(s) == 0 {
		return nil
	}
	b := s[len(s)-1]
	s[len(s)-1] = nil
	l.setKeyLocked(k, s[:len(s)-1])
	l.unlinkLocked(b)
	return b
}

// popOldestLocked removes the oldest entry, which is also the oldest entry
// of its key.
func (l *freeList) popOldestLocked() {
	b := l.head
	k := freeKey{b.dtype, b.size}
	s := l.byKey[k]
	copy(s, s[1:])
	s[len(s)-1] = nil
	l.setKeyLocked(k, s[:len(s)-1])
	l.unlinkLocked(b)
}

func (l *freeList) setKeyLocked(k freeKey, s []*Buffer) {
	if len(s) == 0 {
		delete(l.byKey, k)
		return
	}
	l.byKey[k] = s
}

func (l *freeList) unlinkLocked(b *Buffer) {
	if b.freePrev != nil {
		b.freePrev.freeNext = b.freeNext
	} else {
		l.head = b.freeNext
	}
	if b.freeNext != nil {
		b.freeNext.freePrev = b.freePrev
	} else {
		l.tail = b.freePrev
	}
	b.freePrev, b.freeNext = nil, nil
	l.bytes -= int64(b.size)
	l.n--
}

// freeSizeBoundLocked is the size bound on free bytes: max(1, IOWorkers)
// times the largest unit released so far, and no more than the room left
// under the memory limit. Caller holds db.mu.
func (db *DB) freeSizeBoundLocked() int64 {
	bound := int64(max(1, db.ioWorkers)) * db.free.maxUnit
	return max(0, min(bound, db.limit-db.mem))
}

// freeBoundLocked is the number of free bytes the list may hold right now:
// the size bound while a read is coming, zero otherwise (and once the
// database is closed). Caller holds db.mu.
func (db *DB) freeBoundLocked() int64 {
	if db.closed || (len(db.queue) == 0 && db.ioReading == 0 && db.inlineReading == 0) {
		return 0
	}
	return db.freeSizeBoundLocked()
}

// trimFreeLocked drops the oldest entries until the list is within its
// bound. Run after every change that can shrink the bound: a reservation
// (mem grew), a new limit, a read ending, Close. Caller holds db.mu (write).
func (db *DB) trimFreeLocked() {
	db.trimFreeToLocked(db.freeBoundLocked())
}

func (db *DB) trimFreeToLocked(bound int64) {
	for db.free.bytes > bound {
		db.free.popOldestLocked()
	}
}

// recycleLocked offers a released buffer for reuse. Borrowed and empty
// buffers are never kept; with the godivainvariants tag every other
// released buffer is poisoned first, so a reader that kept a slice past its
// unit's release sees NaNs instead of plausible data. Caller holds db.mu
// (write).
func (db *DB) recycleLocked(b *Buffer) {
	if b == nil || b.borrowed || b.size == 0 {
		return
	}
	poisonBuffer(b)
	bound := db.freeBoundLocked()
	if int64(b.size) <= bound {
		db.free.pushLocked(b)
	}
	db.trimFreeToLocked(bound)
}

// takeFreeLocked hands out a released buffer of type t and size bytes, or
// nil when the list has none. The caller has already reserved the bytes and
// must clear the buffer before giving it to the application. Caller holds
// db.mu (write).
func (db *DB) takeFreeLocked(t DataType, size int) *Buffer {
	b := db.free.takeLocked(t, size)
	if b != nil {
		db.stats.buffersReused.Add(1)
		db.stats.bytesReused.Add(int64(size))
	}
	return b
}

// zero clears a recycled buffer, so every buffer the database hands out
// reads as zeros like a newly allocated one.
func (b *Buffer) zero() {
	clear(b.raw)
	clear(b.i32)
	clear(b.i64)
	clear(b.f32)
	clear(b.f64)
}
