package core

import "fmt"

// Memory-accounting overheads for the record indexing system, the "small
// overhead" of paper §3.2. These are charged against the database memory
// limit alongside the buffer payloads themselves.
const (
	recordOverhead = 96
	fieldOverhead  = 48
)

// Record is one dataset instance: a set of developer-defined fields, each a
// size plus a data buffer (paper §3.1, Figure 2). Records are created from a
// committed record type, filled by allocating field buffers and writing into
// them, then committed into the database index once the key-field buffers
// hold their final values.
//
// Records are not internally synchronized: a record belongs either to the
// read function filling it or, after commit, to whichever threads the
// application coordinates itself. This mirrors the paper's stance of
// foregoing database-style concurrency control.
type Record struct {
	db      *DB
	rt      *recordType
	unit    *unit // owning processing unit; nil for resident records
	buffers []*Buffer
	key     []byte
	memory  int64 // bytes charged against the database limit
	commit  bool
}

// newRecordLocked creates a record of the given committed type, allocating
// buffers for every field with a known declared size — recycled ones when
// the free list has a match. Declared sizes are small (keys, scalars), so a
// recycled fixed-size buffer is cleared here, under the lock. Caller holds
// db.mu; the call may drop and reacquire the lock while waiting for memory.
func (db *DB) newRecordLocked(recType string, owner *unit) (*Record, error) {
	if db.closed {
		return nil, ErrClosed
	}
	rt, ok := db.recordTypes[recType]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownRecordType, recType)
	}
	if !rt.committed {
		return nil, fmt.Errorf("%w: record type %q", ErrNotCommitted, recType)
	}
	r := &Record{db: db, rt: rt, unit: owner, buffers: make([]*Buffer, len(rt.fields))}
	need := int64(recordOverhead) + int64(len(rt.fields))*fieldOverhead
	for _, ft := range rt.fields {
		if ft.size != Unknown {
			need += int64(ft.size)
		}
	}
	err := db.reserveLocked(need, owner)
	if err != nil {
		return nil, err
	}
	r.memory = need
	for i, ft := range rt.fields {
		if ft.size == Unknown {
			continue
		}
		buf := db.takeFreeLocked(ft.dtype, ft.size)
		if buf != nil {
			buf.zero()
		} else if buf, err = newBuffer(ft.dtype, ft.size); err != nil {
			db.releaseLocked(r.memory)
			return nil, fmt.Errorf("field %q: %w", ft.name, err)
		}
		r.buffers[i] = buf
	}
	db.trimFreeLocked()
	if owner != nil {
		owner.records = append(owner.records, r)
		owner.memory += need
	} else {
		db.resident[r] = struct{}{}
	}
	return r, nil
}

// NewRecord creates a new record of a committed record type that is owned by
// the database itself rather than by any processing unit ("resident").
// Resident records are never evicted by the cache; they are freed only by
// DeleteRecord or Close. Read functions should instead create records
// through their Unit handle so the records are evicted with the unit.
func (db *DB) NewRecord(recType string) (*Record, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.checkInvariantsLocked("NewRecord")
	return db.newRecordLocked(recType, nil)
}

// Type returns the record's record type name.
func (r *Record) Type() string { return r.rt.name }

// AllocFieldBuffer allocates the data buffer of a field whose size was
// declared Unknown (or replaces an existing buffer), with the given size in
// bytes. This is how array buffers are sized once the meta data describing
// them has been read (paper §3.1). The buffer reads as zeros. Its memory may
// be a released buffer of an earlier unit, and is reused in turn once this
// record's unit is deleted or evicted: slices taken from it must not outlive
// the pin on the unit.
func (r *Record) AllocFieldBuffer(field string, size int) (*Buffer, error) {
	db := r.db
	db.mu.Lock()
	buf, reused, err := r.allocFieldBufferLocked(field, size)
	db.checkInvariantsLocked("AllocFieldBuffer")
	db.mu.Unlock()
	if reused {
		// Off the free list, the buffer belongs to whoever fills this
		// record (records are not synchronized; see Record), so the clear
		// needs no lock.
		buf.zero()
	}
	return buf, err
}

// allocFieldBufferLocked is AllocFieldBuffer under db.mu (write). reused
// reports that buf came off the free list and still holds stale bytes.
func (r *Record) allocFieldBufferLocked(field string, size int) (buf *Buffer, reused bool, err error) {
	db := r.db
	if db.closed {
		return nil, false, ErrClosed
	}
	if r.buffers == nil {
		return nil, false, r.errDropped()
	}
	pos, ok := r.rt.fieldPos[field]
	if !ok {
		return nil, false, fmt.Errorf("%w: %q in record type %q", ErrUnknownField, field, r.rt.name)
	}
	if r.commit && r.isKeyField(pos) {
		return nil, false, fmt.Errorf("%w: cannot reallocate key field %q of a committed record",
			ErrCommitted, field)
	}
	dtype := r.rt.fields[pos].dtype
	if err := checkBufferSize(dtype, size); err != nil {
		return nil, false, fmt.Errorf("field %q: %w", field, err)
	}
	need, err := r.resizeLocked(pos, size)
	if err != nil {
		return nil, false, err
	}
	// Taken only once the reservation holds: while it waited, the lock was
	// down and the match stayed available to other readers.
	buf = db.takeFreeLocked(dtype, size)
	reused = buf != nil
	if !reused {
		buf, _ = newBuffer(dtype, size) // size checked above
	}
	r.installLocked(pos, buf, need)
	return buf, reused, nil
}

// resizeLocked charges (or refunds) the change of field pos's buffer to size
// bytes and returns the change. Caller holds db.mu (write); the lock may be
// dropped while waiting for memory.
func (r *Record) resizeLocked(pos, size int) (int64, error) {
	old := int64(0)
	if b := r.buffers[pos]; b != nil {
		old = int64(b.size)
	}
	need := int64(size) - old
	if need > 0 {
		if err := r.db.reserveLocked(need, r.unit); err != nil {
			return 0, err
		}
	} else {
		r.db.releaseLocked(-need)
	}
	return need, nil
}

// installLocked makes buf field pos's buffer, recycles the buffer it
// replaces and books the size change need. Caller holds db.mu (write).
func (r *Record) installLocked(pos int, buf *Buffer, need int64) {
	db := r.db
	db.recycleLocked(r.buffers[pos])
	r.buffers[pos] = buf
	r.memory += need
	if r.unit != nil {
		r.unit.memory += need
	}
	// A reservation grew mem: keep free plus charged bytes under the limit.
	db.trimFreeLocked()
}

// BorrowFieldBuffer installs donated bytes as the named field's buffer
// without copying when the platform allows (little-endian host, naturally
// aligned data), falling back to an allocate-and-copy decode otherwise.
// This is the zero-copy intake of the read path: a read function that
// already holds the field's bytes — an mmap'd SHDF payload, a decoded wire
// segment — donates the slice instead of writing it element by element into
// newBuffer storage.
//
// Only unit-owned records may borrow: the donation's lifetime is the unit's
// lifetime, ending when the unit is deleted or evicted (register donor
// cleanup with Unit.OnRelease). Borrowed buffers are read-only; mutating
// accessors return ErrBorrowed. The donated bytes are charged against the
// database memory limit exactly like an allocated buffer of the same size.
func (r *Record) BorrowFieldBuffer(field string, data []byte) (*Buffer, error) {
	db := r.db
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.checkInvariantsLocked("BorrowFieldBuffer")
	if db.closed {
		return nil, ErrClosed
	}
	if r.buffers == nil {
		return nil, r.errDropped()
	}
	if r.unit == nil {
		return nil, fmt.Errorf("%w: resident records cannot borrow field memory", ErrBorrowed)
	}
	pos, ok := r.rt.fieldPos[field]
	if !ok {
		return nil, fmt.Errorf("%w: %q in record type %q", ErrUnknownField, field, r.rt.name)
	}
	if r.commit && r.isKeyField(pos) {
		return nil, fmt.Errorf("%w: cannot reallocate key field %q of a committed record",
			ErrCommitted, field)
	}
	buf, aliased, err := newBorrowedBuffer(r.rt.fields[pos].dtype, data)
	if err != nil {
		return nil, fmt.Errorf("field %q: %w", field, err)
	}
	need, err := r.resizeLocked(pos, buf.size)
	if err != nil {
		return nil, err
	}
	r.installLocked(pos, buf, need)
	if aliased {
		db.stats.bytesBorrowed.Add(int64(buf.size))
	}
	return buf, nil
}

func (r *Record) isKeyField(pos int) bool {
	name := r.rt.fields[pos].name
	for _, kf := range r.rt.keys {
		if kf.name == name {
			return true
		}
	}
	return false
}

// errDropped is the error of an accessor called on a record that has left
// the database: deleted, evicted with its unit, replaced by a duplicate-key
// commit, or swept by Close. Its buffers are gone and may already hold
// another unit's data.
func (r *Record) errDropped() error {
	return fmt.Errorf("%w: record of type %q", ErrRecordDropped, r.rt.name)
}

// FieldBuffer returns the data buffer of the named field, or ErrNoBuffer if
// it has not been allocated yet, or ErrRecordDropped once the record has
// left the database.
func (r *Record) FieldBuffer(field string) (*Buffer, error) {
	if r.buffers == nil {
		return nil, r.errDropped()
	}
	pos, ok := r.rt.fieldPos[field]
	if !ok {
		return nil, fmt.Errorf("%w: %q in record type %q", ErrUnknownField, field, r.rt.name)
	}
	buf := r.buffers[pos]
	if buf == nil {
		return nil, fmt.Errorf("%w: field %q", ErrNoBuffer, field)
	}
	return buf, nil
}

// SetString is shorthand for FieldBuffer(field).SetString(s).
func (r *Record) SetString(field, s string) error {
	buf, err := r.FieldBuffer(field)
	if err != nil {
		return err
	}
	return buf.SetString(s)
}

// CommitRecord inserts the record into the database's index system using the
// current contents of its key-field buffers (paper §3.1). All key-field
// buffers must be allocated and filled. Committing two records of the same
// type with equal key values replaces the earlier one in the index (and
// deletes it, mirroring the paper's assumption that key values uniquely
// identify a record).
func (db *DB) CommitRecord(r *Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.checkInvariantsLocked("CommitRecord")
	if db.closed {
		return ErrClosed
	}
	if r.commit {
		return fmt.Errorf("%w: record of type %q", ErrCommitted, r.rt.name)
	}
	if r.buffers == nil {
		return r.errDropped()
	}
	key, err := r.rt.keyFor(r)
	if err != nil {
		return err
	}
	idx := db.indexForLocked(r.rt.name)
	if prev, ok := idx.Get(key); ok {
		db.deleteRecordLocked(prev)
	}
	idx.Set(key, r)
	r.key = key
	r.commit = true
	db.stats.recordsCommitted.Add(1)
	return nil
}

// DeleteRecord removes a record from the index (if committed) and releases
// its memory. Unit-owned records are normally deleted wholesale via
// DeleteUnit or cache eviction; DeleteRecord exists for resident records and
// for explicit early frees.
func (db *DB) DeleteRecord(r *Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.checkInvariantsLocked("DeleteRecord")
	if db.closed {
		return ErrClosed
	}
	if r.buffers == nil {
		return r.errDropped()
	}
	db.deleteRecordLocked(r)
	return nil
}

// deleteRecordLocked drops r and removes it from its owner: the owning
// unit's record list and charge, or the resident set. Caller holds db.mu
// (write).
func (db *DB) deleteRecordLocked(r *Record) {
	mem := r.memory
	db.dropRecordLocked(r)
	if r.unit == nil {
		delete(db.resident, r)
		return
	}
	for i, ur := range r.unit.records {
		if ur == r {
			r.unit.records = append(r.unit.records[:i], r.unit.records[i+1:]...)
			break
		}
	}
	r.unit.memory -= mem
}

// dropRecordLocked removes a record from its type index, releases its
// memory charge and offers its buffers to the free list. Caller holds db.mu.
func (db *DB) dropRecordLocked(r *Record) {
	if r.commit {
		if idx, ok := db.indexes[r.rt.name]; ok {
			idx.Delete(r.key)
		}
		r.commit = false
	}
	db.releaseLocked(r.memory)
	r.memory = 0
	for _, b := range r.buffers {
		db.recycleLocked(b)
	}
	r.buffers = nil
}
