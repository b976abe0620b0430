package core

import (
	"sync/atomic"
	"time"
)

// Stats is a snapshot of the database's operation counters. Times are wall
// times; VisibleWait is the cumulative time callers spent blocked in
// WaitUnit/ReadUnit — the quantity the paper's evaluation reports as
// "visible I/O time" — while ReadTime is the cumulative time spent inside
// read functions regardless of whether a caller was waiting.
type Stats struct {
	RecordsCommitted int64
	UnitsAdded       int64 // units queued via AddUnit or first ReadUnit
	UnitsRead        int64 // read functions completed successfully
	UnitsPrefetched  int64 // subset of UnitsRead performed by the I/O workers
	UnitsFailed      int64
	UnitsDeleted     int64
	UnitsEvicted     int64
	CacheHits        int64
	Deadlocks        int64
	BytesLoaded      int64 // cumulative unit payload bytes brought in
	BytesBorrowed    int64 // subset of BytesLoaded adopted zero-copy (donated slices)
	BuffersReused    int64 // field buffers handed out from the free list instead of allocated
	BytesReused      int64 // bytes of those buffers
	PeakBytes        int64 // high-water memory charge
	EventsDropped    int64 // trace-log events discarded by the maxEvents cap
	VisibleWait      time.Duration
	ReadTime         time.Duration
}

// statsCounters holds the database operation counters as atomics, so stat
// bumps on the unit and query paths never take db.mu and Stats snapshots
// never serialize against it. Each field mirrors the Stats field of the
// same name; durations are stored as nanoseconds.
type statsCounters struct {
	recordsCommitted atomic.Int64
	unitsAdded       atomic.Int64
	unitsRead        atomic.Int64
	unitsPrefetched  atomic.Int64
	unitsFailed      atomic.Int64
	unitsDeleted     atomic.Int64
	unitsEvicted     atomic.Int64
	cacheHits        atomic.Int64
	deadlocks        atomic.Int64
	bytesLoaded      atomic.Int64
	bytesBorrowed    atomic.Int64
	buffersReused    atomic.Int64
	bytesReused      atomic.Int64
	peakBytes        atomic.Int64
	eventsDropped    atomic.Int64
	visibleWaitNanos atomic.Int64
	readTimeNanos    atomic.Int64
}

// observePeak raises peakBytes to mem if mem is a new high-water mark,
// via a compare-and-swap maximum so concurrent observers never regress it.
//
//godiva:noalloc
func (c *statsCounters) observePeak(mem int64) {
	for {
		cur := c.peakBytes.Load()
		if mem <= cur || c.peakBytes.CompareAndSwap(cur, mem) {
			return
		}
	}
}

// Stats returns a snapshot of the database counters. The snapshot is built
// from atomic loads and does not take the database lock; counters bumped
// concurrently may or may not be included. Dependent counters are loaded
// downstream-first (a unit is counted in UnitsAdded before UnitsRead before
// UnitsPrefetched), so cross-counter invariants like UnitsPrefetched <=
// UnitsRead <= UnitsAdded hold in every snapshot even while counters move.
//
//godiva:noalloc
func (db *DB) Stats() Stats {
	c := &db.stats
	var s Stats
	s.UnitsPrefetched = c.unitsPrefetched.Load()
	s.UnitsRead = c.unitsRead.Load()
	s.UnitsFailed = c.unitsFailed.Load()
	s.UnitsDeleted = c.unitsDeleted.Load()
	s.UnitsEvicted = c.unitsEvicted.Load()
	s.UnitsAdded = c.unitsAdded.Load()
	s.RecordsCommitted = c.recordsCommitted.Load()
	s.CacheHits = c.cacheHits.Load()
	s.Deadlocks = c.deadlocks.Load()
	s.BytesBorrowed = c.bytesBorrowed.Load()
	s.BytesLoaded = c.bytesLoaded.Load()
	s.BuffersReused = c.buffersReused.Load()
	s.BytesReused = c.bytesReused.Load()
	s.PeakBytes = c.peakBytes.Load()
	s.EventsDropped = c.eventsDropped.Load()
	s.VisibleWait = time.Duration(c.visibleWaitNanos.Load())
	s.ReadTime = time.Duration(c.readTimeNanos.Load())
	checkStatsSnapshot(&s)
	return s
}

// workerState is the per-worker mutable state of one background I/O worker.
// The counters are atomic so workers bump them without the database lock;
// unit (the name being read) is guarded by db.mu because it is only
// meaningful together with reading.
type workerState struct {
	prefetched   atomic.Int64
	failed       atomic.Int64
	blockedNanos atomic.Int64
	reading      atomic.Bool
	unit         string // guarded by db.mu
}

// IOWorkerStats describes one worker of the background I/O pool
// (Options.IOWorkers). Counters are cumulative since Open.
type IOWorkerStats struct {
	Worker      int           // worker index, 0..IOWorkers-1
	Prefetched  int64         // successful background reads completed
	Failed      int64         // background reads that ended in stateFailed
	Reading     bool          // a read is in flight on this worker right now
	Unit        string        // unit being read while Reading, "" otherwise
	BlockedTime time.Duration // cumulative time blocked on memory in a read
}

// IOWorkerStats returns a snapshot of the per-worker counters, one entry per
// background I/O worker in worker order; empty in single-thread mode.
func (db *DB) IOWorkerStats() []IOWorkerStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]IOWorkerStats, len(db.workers))
	for i := range db.workers {
		w := &db.workers[i]
		out[i] = IOWorkerStats{
			Worker:      i,
			Prefetched:  w.prefetched.Load(),
			Failed:      w.failed.Load(),
			Reading:     w.reading.Load(),
			Unit:        w.unit,
			BlockedTime: time.Duration(w.blockedNanos.Load()),
		}
	}
	return out
}

// RegisterStatsSource attaches a named provider of external operation
// counters — e.g. the remote unit client's transport stats — so tools that
// report DB.Stats can surface them alongside it without the core depending
// on any transport. Registering a name again replaces its provider. fn must
// be safe to call from any goroutine and must not call back into the
// database.
func (db *DB) RegisterStatsSource(name string, fn func() any) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.statsSources == nil {
		db.statsSources = make(map[string]func() any)
	}
	db.statsSources[name] = fn
}

// ExternalStats snapshots every registered external stats source by name.
// The providers run outside the database lock.
func (db *DB) ExternalStats() map[string]any {
	db.mu.RLock()
	fns := make(map[string]func() any, len(db.statsSources))
	for name, fn := range db.statsSources {
		fns[name] = fn
	}
	db.mu.RUnlock()
	out := make(map[string]any, len(fns))
	for name, fn := range fns {
		out[name] = fn()
	}
	return out
}
