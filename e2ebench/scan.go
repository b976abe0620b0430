package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"godiva/internal/core"
	"godiva/internal/genx"
	"godiva/internal/remote"
)

// scanRemote is a data scan with almost no compute: an in-process godivad
// on loopback serves the dataset, a core DB with two I/O workers and a
// two-connection client prefetches snapshot units through
// remote.NewReadFunc, and the consumer waits for each unit in order, reads
// all seven test variables of every block with GetFieldBuffer, folds them
// into a checksum and deletes the unit. The seed orders the snapshots of
// every pass. An op is one unit scanned; its latency is the consumer's cycle
// for the unit (wait, queries, fold, delete).
type scanRemote struct {
	dir    string
	srv    *remote.Server
	client *remote.Client
	order  []int // snapshot order of every pass
	sums   []uint64
}

const (
	scanWorkers = 2
	scanWindow  = 4 // units added ahead of the consumer
	scanMemory  = 64 << 20
)

func (w *scanRemote) inputs(e *env) error {
	w.order = e.rng.Perm(e.spec.Snapshots)
	_, err := fmt.Fprintf(e.digest, "scan order %v\n", w.order)
	return err
}

func (w *scanRemote) setup(e *env, dir string) error {
	w.dir = dir
	data := filepath.Join(dir, "data")
	if _, err := genx.WriteDataset(e.spec, data); err != nil {
		return err
	}
	srv, err := remote.Serve(remote.ServerOptions{Dir: data})
	if err != nil {
		return err
	}
	w.srv = srv
	w.client = remote.NewClient(remote.ClientOptions{Addr: srv.Addr(), PoolSize: scanWorkers})
	// One pass fills the server's reader and payload caches: the timed
	// scans measure the warm path.
	_, err = w.scan(e, nil, 0, e.spec.Snapshots, &phase{}, false)
	return err
}

func (w *scanRemote) teardown() error {
	var err error
	if w.client != nil {
		err = w.client.Close()
	}
	if w.srv != nil {
		err = errors.Join(err, w.srv.Close())
	}
	w.client, w.srv = nil, nil
	return errors.Join(err, os.RemoveAll(w.dir))
}

func (w *scanRemote) prepare(e *env) error {
	data := filepath.Join(w.dir, "data")
	n, err := digestDir(e.digest, data)
	if err != nil {
		return err
	}
	e.info["dataset_bytes"] = n
	e.info["core_memory_cap_bytes"] = scanMemory
	e.info["payload_cache_bytes"] = 64 << 20 // godivad's default budget
	w.sums, err = directChecksums(e.spec, data, testVars())
	return err
}

// scanResult is what one scan loop produced.
type scanResult struct {
	wall                time.Duration
	units               int
	cycles, waits       []float64       // ms
	done                []time.Duration // when each unit's cycle ended
	queryUS             []float64
	db                  core.Stats
	events              []core.UnitEvent
	readNanos, commitNs int64
}

// scan runs the scan loop for d, and for at least minUnits units, then
// finishes the units already added. With check set it compares every
// unit's checksum with the direct read.
func (w *scanRemote) scan(e *env, tr *tracer, d time.Duration, minUnits int, ph *phase, check bool) (*scanResult, error) {
	hooks := &readHooks{tr: tr, tracks: newTrackSlots(scanWorkers)}
	vars := testVars()
	inner := hooks.remoteRead(w.client, e.spec, vars)
	res := &scanResult{}
	var readNanos timeSum
	read := func(u *core.Unit) error {
		start := time.Now()
		err := inner(u)
		readNanos.add(time.Since(start))
		return err
	}
	db, err := openDB(core.Options{MemoryLimit: scanMemory, BackgroundIO: true, IOWorkers: scanWorkers, TraceUnits: tr != nil})
	if err != nil {
		return nil, err
	}
	// Every pass visits the snapshots in the same order, so any window of
	// at most Snapshots consecutive units holds each snapshot once.
	seq := func(k int) int { return w.order[k%len(w.order)] }
	window := min(scanWindow, len(w.order))
	added := 0
	add := func() error {
		err := db.AddUnit(unitName(seq(added)), read)
		added++
		return err
	}
	start := time.Now()
	for added < window {
		if err = add(); err != nil {
			break
		}
	}
	for k := 0; err == nil && k < added; k++ {
		step := seq(k)
		name := unitName(step)
		t0 := time.Now()
		root := tr.begin("bench.unit", "bench", 0, name, tidConsumer)
		var sum uint64
		sum, err = w.consume(db, tr, root, name, e.spec, vars, res)
		if err == nil && (time.Since(start) < d || added < minUnits) {
			sp := tr.begin("core.add", "core", root, name, tidConsumer)
			err = add()
			tr.end(sp)
		}
		tr.end(root)
		res.cycles = append(res.cycles, ms(time.Since(t0)))
		res.done = append(res.done, time.Since(start))
		res.units++
		if check {
			ph.attempted++
			if err == nil && sum != w.sums[step] {
				ph.fail("unit %s: checksum %x, direct read %x", name, sum, w.sums[step])
			}
		}
	}
	res.wall = time.Since(start)
	res.db = db.Stats()
	res.events = db.UnitEvents()
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	res.readNanos = readNanos.total()
	res.commitNs = hooks.commit.nanos.Load()
	return res, err
}

// consume waits for one unit, queries every test variable of every block,
// folds them and deletes the unit.
func (w *scanRemote) consume(db *core.DB, tr *tracer, root int, name string, spec genx.Spec, vars []string, res *scanResult) (uint64, error) {
	sp := tr.begin("core.wait", "core", root, name, tidConsumer)
	t0 := time.Now()
	err := db.WaitUnit(name)
	res.waits = append(res.waits, ms(time.Since(t0)))
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	stepID, err := stepIDOf(spec, name)
	if err == nil {
		var data [][]float64
		sp = tr.begin("core.query", "core", root, name, tidConsumer)
		q0 := time.Now()
		data, err = queryAll(db, spec.Blocks, stepID, vars)
		if tr != nil && len(data) > 0 {
			res.queryUS = append(res.queryUS, float64(time.Since(q0).Nanoseconds())/1e3/float64(len(data)))
		}
		tr.end(sp)
		if err == nil {
			h := uint64(foldSeed)
			for _, xs := range data {
				h = fold(h, xs)
			}
			sp = tr.begin("core.delete", "core", root, name, tidConsumer)
			err = db.DeleteUnit(name)
			tr.end(sp)
			return h, err
		}
	}
	return 0, errors.Join(err, db.DeleteUnit(name))
}

func stepIDOf(spec genx.Spec, unit string) (string, error) {
	step, err := unitStep(unit)
	if err != nil {
		return "", err
	}
	return spec.StepID(step), nil
}

// queryAll fetches every variable of every block, in block then variable
// order. The slices alias database buffers, valid while the unit is pinned.
func queryAll(db *core.DB, blocks int, stepID string, vars []string) ([][]float64, error) {
	out := make([][]float64, 0, blocks*len(vars))
	for b := 0; b < blocks; b++ {
		for _, v := range vars {
			buf, err := db.GetFieldBuffer(recBlock, v, genx.BlockID(b), stepID)
			if err != nil {
				return nil, err
			}
			xs, err := buf.Float64s()
			if err != nil {
				return nil, err
			}
			out = append(out, xs)
		}
	}
	return out, nil
}

func (w *scanRemote) measure(e *env, d time.Duration) (*phase, error) {
	ph := &phase{named: map[string]metric{}, layer: map[string]float64{}}
	r, err := w.scan(e, nil, d, scanWindow, ph, true)
	if err != nil {
		return nil, err
	}
	w.fill(ph, r)
	return ph, nil
}

// fill turns a scan's counts into the phase's metrics.
func (w *scanRemote) fill(ph *phase, r *scanResult) {
	ph.wall = r.wall
	ph.lat = r.cycles
	ph.tailPct = 99
	ph.windows = slice(r.done, r.cycles, windowWidth, r.wall)
	if r.db.UnitsRead > 0 {
		ph.mbPerOp = float64(r.db.BytesLoaded) / float64(r.db.UnitsRead) / 1e6
	}
	ph.named["scan_mb_per_s"] = metric{float64(r.db.BytesLoaded) / 1e6 / r.wall.Seconds(), "MB/s"}
	ph.named["units_per_s"] = metric{float64(r.units) / r.wall.Seconds(), "1/s"}
	ph.named["visible_wait_share"] = metric{r.db.VisibleWait.Seconds() / r.wall.Seconds(), "ratio"}
	if r.db.UnitsFailed != 0 || r.db.Deadlocks != 0 {
		ph.fail("core: %d units failed, %d deadlocks", r.db.UnitsFailed, r.db.Deadlocks)
	}
}

// traced scans with spans on for d and reports the layer metrics of that
// scan; the untraced scan before it sets the overhead baseline.
func (w *scanRemote) traced(e *env, d time.Duration, base *phase) (map[string]float64, error) {
	c0, s0 := w.client.Stats(), w.srv.Stats()
	r, err := w.scan(e, e.tr, d, scanWindow, base, true)
	if err != nil {
		return nil, err
	}
	c1, s1 := w.client.Stats(), w.srv.Stats()
	units := float64(r.db.UnitsRead)
	m := coreStatsMetrics(r.db)
	wt := tailAt(r.waits, 99)
	m["core.unit_wait_ms_p50"] = median(r.waits)
	m["core.unit_wait_ms_tail"] = wt.Value
	m["core.queue_wait_ms_p50"] = median(queueWaits(r.events))
	m["core.query_us_p50"] = median(r.queryUS)
	if units > 0 {
		m["core.commit_ms_per_unit"] = float64(r.commitNs) / 1e6 / units
		m["remote.rpcs_per_unit"] = float64(c1.RPCs-c0.RPCs) / units
		m["remote.bytes_in_per_unit"] = float64(c1.BytesIn-c0.BytesIn) / units
		m["remote.fetch_ms_per_unit"] = float64(r.readNanos-r.commitNs) / 1e6 / units
	}
	remoteMetrics(m, c0, c1, s0, s1)
	tracedRate := float64(r.units) / r.wall.Seconds()
	if tracedRate > 0 {
		m["trace.overhead_ratio"] = float64(len(base.lat)) / base.wall.Seconds() / tracedRate
	}
	return m, nil
}

// queueWaits reads how long each unit sat in the prefetch FIFO, from added
// to picked up by an I/O worker, out of the unit event log.
func queueWaits(events []core.UnitEvent) []float64 {
	added := map[string]time.Time{}
	var out []float64
	for _, ev := range events {
		switch ev.To {
		case "pending":
			added[ev.Unit] = ev.When
		case "reading":
			if t, ok := added[ev.Unit]; ok {
				out = append(out, ms(ev.When.Sub(t)))
				delete(added, ev.Unit)
			}
		}
	}
	return out
}
