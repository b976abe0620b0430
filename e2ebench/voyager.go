package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"godiva/internal/core"
	"godiva/internal/genx"
	"godiva/internal/rocketeer"
)

// voyagerBatch is the paper's Fig. 3 run: the multi-thread (TG) Voyager
// build, with the paper's single I/O thread, runs the simple, medium and
// complex tests back to back over a local dataset, in whole passes. The
// seed orders the three tests within each pass. An op is one rendered
// image; an op's latency is one snapshot's cycle in the consumer loop (wait
// for the unit, render every pass of the test, delete it), read from the
// core's unit event log.
type voyagerBatch struct {
	data   string
	orders [][]int
	refs   map[string][]byte
}

const maxPasses = 64

func (w *voyagerBatch) inputs(e *env) error {
	for i := 0; i < maxPasses; i++ {
		w.orders = append(w.orders, e.rng.Perm(len(rocketeer.Tests())))
	}
	_, err := fmt.Fprintf(e.digest, "test orders %v\n", w.orders)
	return err
}

func (w *voyagerBatch) setup(e *env, dir string) error {
	w.data = filepath.Join(dir, "data")
	_, err := genx.WriteDataset(e.spec, w.data)
	return err
}

func (w *voyagerBatch) teardown() error { return os.RemoveAll(filepath.Dir(w.data)) }

func (w *voyagerBatch) prepare(e *env) error {
	n, err := digestDir(e.digest, w.data)
	if err != nil {
		return err
	}
	e.info["dataset_bytes"] = n
	e.info["core_memory_cap_bytes"] = int64(384e6) // rocketeer's default cap
	start := time.Now()
	w.refs, err = renderReferences(e.spec, w.data, filepath.Join(e.work, "refs"), rocketeer.Tests())
	e.info["reference_s"] = time.Since(start).Seconds()
	return err
}

// runStats is what one rocketeer.Run contributed.
type runStats struct {
	images     int
	total, vis time.Duration
	db         core.Stats
	cycles     []float64 // per-snapshot consumer cycle, ms
	waits      []float64 // per-snapshot unit wait, ms
	queue      []float64 // per-unit prefetch queue wait, ms
}

// unitSpan is one snapshot's life in the consumer loop, from the unit log.
type unitSpan struct {
	added, reading, ready time.Time
	prevDone, deleted     time.Time
}

// unitTimeline reads per-snapshot waits and cycles out of a Voyager run's
// unit event log. Voyager waits for unit k right after deleting unit k-1,
// so unit k's wait ends when it turns ready (or at once, if it already
// was) and its cycle ends when it is deleted.
func unitTimeline(events []core.UnitEvent, start time.Time) []unitSpan {
	byUnit := map[string]*unitSpan{}
	var order []*unitSpan
	for _, ev := range events {
		u := byUnit[ev.Unit]
		if u == nil {
			u = &unitSpan{}
			byUnit[ev.Unit] = u
		}
		switch {
		case ev.To == "pending":
			u.added = ev.When
		case ev.To == "reading":
			u.reading = ev.When
		case ev.To == "ready" && ev.From == "reading":
			u.ready = ev.When
		case ev.To == "deleted":
			u.deleted = ev.When
			order = append(order, u)
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].deleted.Before(order[j].deleted) })
	out := make([]unitSpan, len(order))
	prev := start
	for i, u := range order {
		u.prevDone = prev
		prev = u.deleted
		out[i] = *u
	}
	return out
}

func (u unitSpan) wait() time.Duration {
	if u.ready.After(u.prevDone) {
		return u.ready.Sub(u.prevDone)
	}
	return 0
}

func (w *voyagerBatch) runTest(test rocketeer.VisTest, dir string, imgDir string, spec genx.Spec) (*runStats, error) {
	start := time.Now()
	res, err := rocketeer.Run(rocketeer.VersionTG, rocketeer.Config{
		Test: test, Spec: spec, Dir: dir, ImageDir: imgDir,
		Width: imgW, Height: imgH, TraceUnits: true,
	})
	if err != nil {
		return nil, err
	}
	rs := &runStats{images: res.Images, total: res.Total, vis: res.VisibleIO, db: res.DB}
	for _, u := range unitTimeline(res.Events, start) {
		rs.cycles = append(rs.cycles, ms(u.deleted.Sub(u.prevDone)))
		rs.waits = append(rs.waits, ms(u.wait()))
		rs.queue = append(rs.queue, ms(u.reading.Sub(u.added)))
	}
	return rs, nil
}

func expectedImages(spec genx.Spec, tests []rocketeer.VisTest) int {
	n := 0
	for _, t := range tests {
		n += len(t.Ops) * spec.Snapshots
	}
	return n
}

func (w *voyagerBatch) measure(e *env, d time.Duration) (*phase, error) {
	tests := rocketeer.Tests()
	imgDir := filepath.Join(e.work, "images")
	ph := &phase{named: map[string]metric{}, layer: map[string]float64{}}
	var passRates, waits, queue []float64
	var images int
	var wait, read, compute time.Duration
	var bytesLoaded, bytesBorrowed, unitsRead, hits, evictions, failedUnits, deadlocks int64
	var busy time.Duration
	for pass := 0; pass == 0 || busy < d; pass++ {
		if err := os.RemoveAll(imgDir); err != nil {
			return nil, err
		}
		passStart := time.Now()
		passImages := 0
		var passLat []float64
		for _, ti := range w.orders[pass%len(w.orders)] {
			rs, err := w.runTest(tests[ti], w.data, imgDir, e.spec)
			if err != nil {
				ph.attempted += len(tests[ti].Ops) * e.spec.Snapshots
				ph.fail("pass %d %s: %v", pass, tests[ti].Name, err)
				continue
			}
			passImages += rs.images
			passLat = append(passLat, rs.cycles...)
			ph.lat = append(ph.lat, rs.cycles...)
			waits = append(waits, rs.waits...)
			queue = append(queue, rs.queue...)
			wait += rs.db.VisibleWait
			read += rs.db.ReadTime
			compute += rs.total - rs.vis
			bytesLoaded += rs.db.BytesLoaded
			bytesBorrowed += rs.db.BytesBorrowed
			unitsRead += rs.db.UnitsRead
			hits += rs.db.CacheHits
			evictions += rs.db.UnitsEvicted
			failedUnits += rs.db.UnitsFailed
			deadlocks += rs.db.Deadlocks
		}
		wall := time.Since(passStart)
		busy += wall
		images += passImages
		passRates = append(passRates, float64(passImages)/wall.Seconds())
		ph.windows = append(ph.windows, window{ops: float64(passImages), secs: wall.Seconds(), lat: passLat})

		// Checks, outside the timed pass: every image, byte for byte.
		want := expectedImages(e.spec, tests)
		ph.attempted += want
		n, bad, err := compareImages(imgDir, w.refs, func(name string) string { return name })
		if err != nil {
			return nil, err
		}
		for _, b := range bad {
			ph.fail("pass %d: %s", pass, b)
		}
		if n != want || passImages != want {
			ph.fail("pass %d: %d images on disk, %d reported, want %d", pass, n, passImages, want)
		}
	}
	if failedUnits != 0 || deadlocks != 0 {
		ph.fail("core: %d units failed, %d deadlocks", failedUnits, deadlocks)
	}
	ph.wall = busy
	ph.tailPct = 90
	if images > 0 {
		ph.mbPerOp = float64(bytesLoaded) / 1e6 / float64(images)
	}
	ph.named["frames_per_s"] = metric{median(passRates), "1/s"}
	ph.named["passes"] = metric{float64(len(passRates)), "count"}
	ph.named["visible_io_s"] = metric{wait.Seconds(), "s"}
	ph.named["compute_s"] = metric{compute.Seconds(), "s"}
	wt := tailAt(waits, ph.tailPct)
	ph.layer["core.visible_wait_s"] = wait.Seconds()
	ph.layer["core.unit_wait_ms_p50"] = median(waits)
	ph.layer["core.unit_wait_ms_tail"] = wt.Value
	ph.layer["core.queue_wait_ms_p50"] = median(queue)
	ph.layer["core.read_busy_s"] = read.Seconds()
	if unitsRead > 0 {
		ph.layer["core.bytes_copied_per_unit"] = float64(bytesLoaded-bytesBorrowed) / float64(unitsRead)
		ph.layer["core.cache_hit_ratio"] = float64(hits) / float64(hits+unitsRead)
	}
	ph.layer["core.evictions"] = float64(evictions)
	ph.layer["core.units_failed"] = float64(failedUnits)
	ph.layer["core.deadlocks"] = float64(deadlocks)
	ph.layer["rocketeer.compute_s"] = compute.Seconds()
	return ph, nil
}

// traced replays every test's passes over the dataset through the
// benchmark's own core, vis and render calls, once untraced and once
// traced, and checks each replayed image against the references.
func (w *voyagerBatch) traced(e *env, d time.Duration, base *phase) (map[string]float64, error) {
	untraced, _, err := w.replay(e, nil, base)
	if err != nil {
		return nil, err
	}
	tracedWall, rp, err := w.replay(e, e.tr, base)
	if err != nil {
		return nil, err
	}
	m := replayMetrics(e.tr.snapshot(), rp)
	m["trace.overhead_ratio"] = tracedWall.Seconds() / untraced.Seconds()
	return m, nil
}

func (w *voyagerBatch) replay(e *env, tr *tracer, ph *phase) (time.Duration, *replayer, error) {
	rp := newReplayer(tr, e.spec)
	hooks := &readHooks{tr: tr, tracks: newTrackSlots(1)}
	steps := make([]int, e.spec.Snapshots)
	for i := range steps {
		steps[i] = i
	}
	start := time.Now()
	for _, test := range rocketeer.Tests() {
		db, err := openDB(core.Options{MemoryLimit: 384e6, BackgroundIO: true, IOWorkers: 1})
		if err != nil {
			return 0, nil, err
		}
		read := hooks.localRead(e.spec, w.data, fileOrder(test.Vars))
		err = rp.batch(db, read, e.spec, test, steps, func(name string, img []byte) {
			ph.attempted++
			if !bytes.Equal(img, w.refs[name]) {
				ph.fail("replay %s differs from the reference", name)
			}
		})
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, nil, err
		}
	}
	return time.Since(start), rp, nil
}
