package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"godiva/internal/zerocopy"
)

// Buffer recycling: released field buffers feed the next read through the
// free list (freelist.go), gated on a read coming and bounded in bytes.

// recycleBlocks and recycleValues fix the shape of every churn unit: four
// fluid blocks of 101+101 coordinates and 2×recycleValues variable values.
const (
	recycleBlocks = 4
	recycleValues = 10000
)

// recycleUnitBytes is the array payload of one churn unit; its memory
// charge adds the record overheads and the two key strings.
const (
	recycleUnitBytes  = recycleBlocks * (2*101 + 2*recycleValues) * 8
	recycleUnitCharge = recycleUnitBytes + recycleBlocks*(recordOverhead+6*fieldOverhead+11+9)
)

// fluidUnitReader returns a read function storing recycleBlocks fluid
// records for the unit, every value a non-zero function of the unit name.
// Before writing a buffer it checks that the buffer reads as zeros — a
// recycled buffer must not show the unit it came from — and reports
// violations on bad. delay stretches each read so the consumer runs ahead
// of the I/O workers, as a remote scan's does.
func fluidUnitReader(delay time.Duration, bad chan<- string) ReadFunc {
	return func(u *Unit) error {
		time.Sleep(delay)
		seed := float64(len(u.Name())) + 1
		for b := 0; b < recycleBlocks; b++ {
			r, err := u.NewRecord("fluid")
			if err != nil {
				return err
			}
			kb, err := r.FieldBuffer("block id")
			if err != nil {
				return err
			}
			raw, err := kb.Bytes()
			if err != nil {
				return err
			}
			if !allZero(raw) {
				reportBad(bad, fmt.Sprintf("unit %s block %d: key buffer not zeroed", u.Name(), b))
			}
			if err := r.SetString("block id", fmt.Sprintf("b%d", b)); err != nil {
				return err
			}
			if err := r.SetString("time-step id", u.Name()); err != nil {
				return err
			}
			for _, f := range []struct {
				name string
				n    int
			}{{"x coordinates", 101}, {"y coordinates", 101}, {"pressure", recycleValues}, {"temperature", recycleValues}} {
				buf, err := r.AllocFieldBuffer(f.name, 8*f.n)
				if err != nil {
					return err
				}
				xs, err := buf.Float64s()
				if err != nil {
					return err
				}
				for i, x := range xs {
					if x != 0 {
						reportBad(bad, fmt.Sprintf("unit %s block %d %s[%d] = %v before the read wrote it",
							u.Name(), b, f.name, i, x))
						break
					}
				}
				for i := range xs {
					xs[i] = seed + float64(i)
				}
			}
			if err := u.DB().CommitRecord(r); err != nil {
				return err
			}
		}
		return nil
	}
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

func reportBad(bad chan<- string, msg string) {
	select {
	case bad <- msg:
	default:
	}
}

func drainBad(t *testing.T, bad chan string) {
	t.Helper()
	for {
		select {
		case msg := <-bad:
			t.Error(msg)
		default:
			return
		}
	}
}

// freeState reads the free list's byte count and its size bound.
func freeState(db *DB) (bytes, bound int64, n int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.free.bytes, db.freeSizeBoundLocked(), db.free.n
}

// churn pushes units 0..n-1 through a window of `window` units the way a
// scan does: wait for unit k, check one buffer, delete it, add unit
// k+window. After every delete it checks the free list against its bound
// and calls after(k), if set; it returns the most free bytes it saw.
func churn(t *testing.T, db *DB, read ReadFunc, n, window int, after func(k int)) (peak int64) {
	t.Helper()
	name := func(k int) string { return fmt.Sprintf("u%04d", k) }
	for k := 0; k < window && k < n; k++ {
		if err := db.AddUnit(name(k), read); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < n; k++ {
		if err := db.WaitUnit(name(k)); err != nil {
			t.Fatalf("WaitUnit(%s): %v", name(k), err)
		}
		buf, err := db.GetFieldBuffer("fluid", "pressure", "b0", name(k))
		if err != nil {
			t.Fatal(err)
		}
		xs, err := buf.Float64s()
		if err != nil {
			t.Fatal(err)
		}
		if xs[1] != float64(len(name(k)))+2 {
			t.Fatalf("unit %s: pressure[1] = %v", name(k), xs[1])
		}
		if err := db.DeleteUnit(name(k)); err != nil {
			t.Fatal(err)
		}
		bytes, bound, _ := freeState(db)
		if bytes > bound {
			t.Fatalf("after deleting %s: %d free bytes over the bound %d", name(k), bytes, bound)
		}
		peak = max(peak, bytes)
		if after != nil {
			after(k)
		}
		if k+window < n {
			if err := db.AddUnit(name(k+window), read); err != nil {
				t.Fatal(err)
			}
		}
	}
	return peak
}

// A fixed-shape unit churned through a 4-unit window by two I/O workers
// allocates almost nothing once warm: every unit's buffers come from the
// units deleted before it.
func TestRecycleChurnReusesBuffers(t *testing.T) {
	db := newTestDB(t, Options{BackgroundIO: true, IOWorkers: 2, MemoryLimit: 64 << 20})
	defineFluidSchema(t, db)
	bad := make(chan string, 8)
	const warm, units = 8, 48
	// Reads slower than the consumer, as in a remote scan, made exact: the
	// read of unit k waits for the delete of unit k-2, so a read is always
	// coming when a unit is deleted, however slow the build.
	deleted := make([]chan struct{}, units)
	for k := range deleted {
		deleted[k] = make(chan struct{})
	}
	fill := fluidUnitReader(0, bad)
	read := func(u *Unit) error {
		var k int
		if _, err := fmt.Sscanf(u.Name(), "u%d", &k); err != nil {
			return err
		}
		if k >= 2 {
			<-deleted[k-2]
		}
		return fill(u)
	}
	var (
		s0, s1 Stats
		m0, m1 runtime.MemStats
	)
	churn(t, db, read, units, 4, func(k int) {
		close(deleted[k])
		switch k {
		case warm - 1:
			runtime.GC()
			runtime.ReadMemStats(&m0)
			s0 = db.Stats()
		case units - 3:
			// Unit units-1 is the last one added and its read is now free
			// to run; wait for it, so the window ends after every read.
			if err := db.WaitUnit(fmt.Sprintf("u%04d", units-1)); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			s1 = db.Stats()
		}
	})
	drainBad(t, bad)

	nRead := s1.UnitsRead - s0.UnitsRead
	if nRead < units-warm-4 {
		t.Fatalf("only %d units read in the measured window", nRead)
	}
	perUnit := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(nRead)
	if perUnit >= 0.1*recycleUnitBytes {
		t.Errorf("allocated %.0f bytes per unit read, want < 10%% of the unit's %d buffer bytes", perUnit, recycleUnitBytes)
	}
	reused := s1.BytesReused - s0.BytesReused
	if want := int64(0.9 * float64(nRead) * recycleUnitBytes); reused < want {
		t.Errorf("reused %d buffer bytes over %d units read, want >= 90%% of %d", reused, nRead, nRead*recycleUnitBytes)
	}
	t.Logf("%d units read: %.0f bytes allocated per %d-byte unit, %.1f%% of buffer bytes reused",
		nRead, perUnit, recycleUnitBytes, 100*float64(reused)/float64(nRead*recycleUnitBytes))
}

// A buffer handed out from the free list reads as zeros, key fields and
// arrays alike, although the unit it came from wrote non-zero data into it
// (and, with the godivainvariants tag, the release poisoned it with NaNs).
func TestRecycledBufferIsZeroed(t *testing.T) {
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)
	bad := make(chan string, 8)
	read := fluidUnitReader(0, bad)
	if err := db.ReadUnit("ua", read); err != nil {
		t.Fatal(err)
	}
	// A queued unit is a read coming, so the delete keeps ua's buffers.
	if err := db.AddUnit("ub", read); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteUnit("ua"); err != nil {
		t.Fatal(err)
	}
	if _, _, n := freeState(db); n == 0 {
		t.Fatal("delete with a queued unit kept no buffers")
	}
	if err := db.WaitUnit("ub"); err != nil { // single-thread: read inline
		t.Fatal(err)
	}
	drainBad(t, bad)
	if s, want := db.Stats(), int64(recycleUnitBytes+recycleBlocks*(11+9)); s.BytesReused != want {
		t.Errorf("BytesReused = %d, want the whole unit's %d", s.BytesReused, want)
	}
}

// With no read coming — nothing queued, nothing being read — a delete
// empties the free list and hands every buffer to the garbage collector,
// and so does the end of the last read coming.
func TestRecycleNeedsAReadComing(t *testing.T) {
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)
	read := fluidUnitReader(0, nil)
	for _, u := range []string{"ua", "uc", "ue", "uf"} {
		if err := db.ReadUnit(u, read); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DeleteUnit("ua"); err != nil {
		t.Fatal(err)
	}
	if _, _, n := freeState(db); n != 0 {
		t.Fatalf("delete with no read coming kept %d buffers", n)
	}
	if err := db.AddUnit("ub", read); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteUnit("uc"); err != nil {
		t.Fatal(err)
	}
	if _, _, n := freeState(db); n == 0 {
		t.Fatal("delete with a queued unit kept no buffers")
	}
	// Deleting the queued unit ends the demand; the next release flushes.
	if err := db.DeleteUnit("ub"); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteUnit("ue"); err != nil {
		t.Fatal(err)
	}
	if bytes, _, n := freeState(db); n != 0 || bytes != 0 {
		t.Fatalf("free list holds %d buffers (%d bytes) with no read coming", n, bytes)
	}

	// A read that takes nothing: when it ends, no read is coming.
	if err := db.AddUnit("ug", func(*Unit) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteUnit("uf"); err != nil {
		t.Fatal(err)
	}
	if _, _, n := freeState(db); n == 0 {
		t.Fatal("delete with a queued unit kept no buffers")
	}
	if err := db.WaitUnit("ug"); err != nil { // single-thread: read inline
		t.Fatal(err)
	}
	if bytes, _, n := freeState(db); n != 0 || bytes != 0 {
		t.Fatalf("free list holds %d buffers (%d bytes) after the last read ended", n, bytes)
	}
	if s := db.Stats(); s.BuffersReused != 0 {
		t.Errorf("BuffersReused = %d, want 0", s.BuffersReused)
	}
}

// Borrowed buffers alias donor memory: they never join the free list, and
// their release never writes to the donation.
func TestBorrowedBuffersNotRecycled(t *testing.T) {
	db := newTestDB(t, Options{})
	defineFluidSchema(t, db)
	donated := make([]float64, 64)
	for i := range donated {
		donated[i] = float64(i) + 0.5
	}
	raw, ok := zerocopy.BytesOfF64s(donated)
	if !ok {
		t.Skip("big-endian host: BorrowFieldBuffer copies instead of aliasing")
	}
	var borrowed *Buffer
	err := db.ReadUnit("ua", func(u *Unit) error {
		r, err := u.NewRecord("fluid")
		if err != nil {
			return err
		}
		if err := r.SetString("block id", "b0"); err != nil {
			return err
		}
		if err := r.SetString("time-step id", "ua"); err != nil {
			return err
		}
		if borrowed, err = r.BorrowFieldBuffer("pressure", raw); err != nil {
			return err
		}
		if _, err := r.AllocFieldBuffer("temperature", 8*64); err != nil {
			return err
		}
		return u.DB().CommitRecord(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !borrowed.Borrowed() {
		t.Fatal("donation was copied, not aliased")
	}
	if err := db.AddUnit("ub", fluidUnitReader(0, nil)); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteUnit("ua"); err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	for b := db.free.head; b != nil; b = b.freeNext {
		if b == borrowed || b.borrowed {
			t.Error("free list holds a borrowed buffer")
		}
	}
	n := db.free.n
	db.mu.RUnlock()
	// Two key strings and the temperature array: everything but the loan.
	if n != 3 {
		t.Errorf("free list holds %d buffers, want 3", n)
	}
	for i, x := range donated {
		if x != float64(i)+0.5 {
			t.Fatalf("donation[%d] = %v after release, want %v", i, x, float64(i)+0.5)
		}
	}
}

// Free bytes stay within max(1, IOWorkers) × the largest unit released and
// within the room under the limit; SetMemSpace trims the list to a lower
// limit and Close empties it.
func TestFreeListBound(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db := newTestDB(t, Options{BackgroundIO: true, IOWorkers: workers, MemoryLimit: 64 << 20})
			defineFluidSchema(t, db)
			read := fluidUnitReader(time.Millisecond, nil)
			if peak := churn(t, db, read, 24, 6, nil); peak == 0 {
				t.Error("churn never kept a released buffer")
			}
			db.mu.RLock()
			maxUnit := db.free.maxUnit
			db.mu.RUnlock()
			if maxUnit != recycleUnitCharge {
				t.Errorf("largest unit released = %d bytes, want %d", maxUnit, recycleUnitCharge)
			}

			// Park every worker and queue one more unit: reads are coming
			// for as long as the gate stays shut.
			gate := make(chan struct{})
			defer close(gate)
			parked := func(*Unit) error { <-gate; return nil }
			for k := 0; k <= workers; k++ {
				if err := db.AddUnit(fmt.Sprintf("parked%d", k), parked); err != nil {
					t.Fatal(err)
				}
			}
			for _, u := range []string{"x0", "x1", "x2", "x3"} {
				if err := db.ReadUnit(u, read); err != nil { // inline: the pool is parked
					t.Fatal(err)
				}
			}
			for _, u := range []string{"x0", "x1", "x2", "x3"} {
				if err := db.DeleteUnit(u); err != nil {
					t.Fatal(err)
				}
			}
			bytes, bound, _ := freeState(db)
			if want := int64(workers) * recycleUnitCharge; bound != want || bytes > bound || bytes < want-recycleUnitCharge {
				t.Errorf("after 4 deletes: %d free bytes, bound %d; want bound %d and bytes within one unit of it",
					bytes, bound, want)
			}
			db.SetMemSpace(db.MemUsed() + recycleUnitBytes/2)
			if bytes, _, _ := freeState(db); bytes > recycleUnitBytes/2 {
				t.Errorf("after SetMemSpace to mem + %d: %d free bytes", recycleUnitBytes/2, bytes)
			}
		})
	}
}
