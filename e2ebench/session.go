package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"godiva/internal/core"
	"godiva/internal/genx"
	"godiva/internal/rocketeer"
)

// sessionRevisit is one interactive user driving rocketeer.NewSession and
// View: the paper's interactive path, with a blocking ReadUnit per view,
// FinishUnit after it, LRU hits on revisits and evictions under a memory cap
// that holds about three of the eight all-variable snapshot units. The seed
// draws the view sequence from shuffled decks that hold every feature,
// parameter and variable combination once and snapshots in Zipf(s=1.2)
// proportions. An op is one view.
type sessionRevisit struct {
	dir    string
	data   string
	views  []view
	s      *rocketeer.Session
	images map[int]string // view index -> the session's image of it
	deck   int            // views per deck; the run is measured in decks
}

const (
	sessionMemory = 12 << 20
	sessionViews  = 8192 // more than any run completes
	sessionChecks = 8    // views checked against an O-build render per run
)

var (
	sessionFeatures = []string{"surface", "iso", "slice", "cut"}
	sessionParams   = map[string][]float64{
		"surface": {0},
		"iso":     {0.3, 0.45, 0.6, 0.7},
		"slice":   {0.2, 0.35, 0.5, 0.65, 0.8},
		"cut":     {0.25, 0.5, 0.75},
	}
)

// drawViews draws n views over steps snapshots. Snapshot k is the k-th most
// popular, by Zipf(s). Views are dealt in decks: each deck holds every
// feature-parameter-variable combination once and as many snapshot cards,
// in Zipf proportions, each half shuffled by the seed. So every deck asks
// for the same work in a different order, and the benchmark measures in
// whole decks. It returns the views and the deck size.
func drawViews(rng *rand.Rand, steps, n int, s float64, vars []string) ([]view, int) {
	var combos []view
	for _, f := range sessionFeatures {
		for _, p := range sessionParams[f] {
			for _, v := range vars {
				combos = append(combos, view{Feature: f, Var: v, Param: p})
			}
		}
	}
	deck := len(combos)
	stepCards := zipfCards(steps, deck, s)
	views := make([]view, 0, n)
	for len(views) < n {
		vs := append([]view(nil), combos...)
		cs := append([]int(nil), stepCards...)
		rng.Shuffle(len(vs), func(a, b int) { vs[a], vs[b] = vs[b], vs[a] })
		rng.Shuffle(len(cs), func(a, b int) { cs[a], cs[b] = cs[b], cs[a] })
		for i := range vs {
			vs[i].Step = cs[i]
		}
		views = append(views, vs...)
	}
	return views[:n], deck
}

// zipfCards returns n snapshot cards, snapshot k's share proportional to
// 1/(k+1)^s, rounded by largest remainder so they add up to n exactly.
func zipfCards(steps, n int, s float64) []int {
	weights := make([]float64, steps)
	var sum float64
	for k := range weights {
		weights[k] = 1 / math.Pow(float64(k+1), s)
		sum += weights[k]
	}
	counts := make([]int, steps)
	rest := make([]int, steps)
	left := n
	for k, w := range weights {
		counts[k] = int(float64(n) * w / sum)
		left -= counts[k]
		rest[k] = k
	}
	sort.Slice(rest, func(i, j int) bool {
		fi := float64(n)*weights[rest[i]]/sum - float64(counts[rest[i]])
		fj := float64(n)*weights[rest[j]]/sum - float64(counts[rest[j]])
		return fi > fj
	})
	for i := 0; i < left; i++ {
		counts[rest[i%steps]]++
	}
	var cards []int
	for k, c := range counts {
		for j := 0; j < c; j++ {
			cards = append(cards, k)
		}
	}
	return cards
}

func (w *sessionRevisit) inputs(e *env) error {
	w.views, w.deck = drawViews(e.rng, e.spec.Snapshots, sessionViews, 1.2, testVars())
	_, err := fmt.Fprintf(e.digest, "views %v\n", w.views)
	return err
}

func (w *sessionRevisit) setup(e *env, dir string) error {
	w.dir = dir
	w.data = filepath.Join(dir, "data")
	if _, err := genx.WriteDataset(e.spec, w.data); err != nil {
		return err
	}
	s, err := rocketeer.NewSession(rocketeer.SessionConfig{
		Spec: e.spec, Dir: w.data, MemoryLimit: sessionMemory,
		ImageDir: filepath.Join(w.dir, "images"), Width: imgW, Height: imgH,
		IOWorkers: 1,
	})
	if err != nil {
		return err
	}
	w.s = s
	return nil
}

func (w *sessionRevisit) teardown() error {
	var err error
	if w.s != nil {
		err = w.s.Close()
		w.s = nil
	}
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}

func (w *sessionRevisit) prepare(e *env) error {
	n, err := digestDir(e.digest, w.data)
	if err != nil {
		return err
	}
	e.info["dataset_bytes"] = n
	e.info["unit_bytes"] = n / int64(e.spec.Snapshots)
	e.info["core_memory_cap_bytes"] = sessionMemory
	return nil
}

func (w *sessionRevisit) measure(e *env, d time.Duration) (*phase, error) {
	ph := &phase{named: map[string]metric{}, layer: map[string]float64{}}
	s0 := w.s.Stats()
	var waits, computeS []float64
	var at []time.Duration
	images := map[int]string{}
	hits := 0
	start := time.Now()
	i := 0
	for ; i < len(w.views) && (i == 0 || time.Since(start) < d); i++ {
		v := w.views[i]
		before := w.s.Stats()
		t0 := time.Now()
		res, err := w.s.View(v.Step, v.Feature, v.Var, v.Param)
		el := time.Since(t0)
		after := w.s.Stats()
		ph.attempted++
		if err != nil {
			ph.fail("view %d %+v: %v", i, v, err)
			continue
		}
		wait := after.VisibleWait - before.VisibleWait
		at = append(at, time.Since(start))
		ph.lat = append(ph.lat, ms(el))
		waits = append(waits, ms(wait))
		computeS = append(computeS, (el - wait).Seconds())
		images[i] = res.Image
		if res.CacheHit {
			hits++
		}
	}
	ph.wall = time.Since(start)
	st := w.s.Stats()
	delta := core.Stats{
		UnitsRead: st.UnitsRead - s0.UnitsRead, CacheHits: st.CacheHits - s0.CacheHits,
		UnitsEvicted: st.UnitsEvicted - s0.UnitsEvicted, UnitsFailed: st.UnitsFailed - s0.UnitsFailed,
		Deadlocks: st.Deadlocks - s0.Deadlocks, BytesLoaded: st.BytesLoaded - s0.BytesLoaded,
		BytesBorrowed: st.BytesBorrowed - s0.BytesBorrowed,
		VisibleWait:   st.VisibleWait - s0.VisibleWait, ReadTime: st.ReadTime - s0.ReadTime,
	}
	ph.windows = chunks(at, ph.lat, w.deck)
	if len(ph.lat) > 0 {
		ph.mbPerOp = float64(delta.BytesLoaded) / 1e6 / float64(len(ph.lat))
	}
	ph.tailPct = 95
	t := tailAt(ph.lat, ph.tailPct)
	ph.named["views_per_s"] = metric{float64(len(ph.lat)) / ph.wall.Seconds(), "1/s"}
	ph.named["view_ms_p50"] = metric{median(ph.lat), "ms"}
	ph.named["view_ms_tail"] = metric{t.Value, "ms"}
	ph.named["view_hit_ratio"] = metric{float64(hits) / float64(max(1, len(ph.lat))), "ratio"}
	ph.layer = coreStatsMetrics(delta)
	wt := tailAt(waits, ph.tailPct)
	ph.layer["core.unit_wait_ms_p50"] = median(waits)
	ph.layer["core.unit_wait_ms_tail"] = wt.Value
	var compute float64
	for _, c := range computeS {
		compute += c
	}
	ph.layer["rocketeer.compute_s"] = compute
	if delta.UnitsFailed != 0 || delta.Deadlocks != 0 {
		ph.fail("core: %d units failed, %d deadlocks", delta.UnitsFailed, delta.Deadlocks)
	}
	if got := int64(hits) + delta.UnitsRead; got != int64(len(ph.lat)) {
		ph.fail("%d hits + %d reads != %d views", hits, delta.UnitsRead, len(ph.lat))
	}
	w.images = images
	if err := w.checkViews(e, ph, i); err != nil {
		return nil, err
	}
	return ph, nil
}

// checkViews compares a seeded sample of the views' images, byte for byte,
// with the original (O) build rendering the same view as a one-pass test.
func (w *sessionRevisit) checkViews(e *env, ph *phase, n int) error {
	refDir := filepath.Join(e.work, "session-refs")
	for k := 0; k < sessionChecks && k < n; k++ {
		i := int(uint64(e.seed+int64(k)*7919) % uint64(n))
		img, ok := w.images[i]
		if !ok {
			continue
		}
		v := w.views[i]
		test := rocketeer.VisTest{Name: fmt.Sprintf("check%d", k), Vars: []string{v.Var}, Ops: []rocketeer.Op{v.op()}}
		if _, err := rocketeer.Run(rocketeer.VersionO, rocketeer.Config{
			Test: test, Spec: e.spec, Dir: w.data, ImageDir: refDir,
			FirstSnapshot: v.Step, Snapshots: 1, Width: imgW, Height: imgH,
		}); err != nil {
			return err
		}
		want, err := os.ReadFile(filepath.Join(refDir, imageName(test.Name, v.Step, 0, v.op())))
		if err != nil {
			return err
		}
		got, err := os.ReadFile(img)
		if err != nil {
			return err
		}
		ph.attempted++
		if !bytes.Equal(got, want) {
			ph.fail("view %d %+v differs from the O-build render", i, v)
		}
	}
	return nil
}

// traced replays the views the untraced phase served through the
// benchmark's own session-shaped loop (ReadUnit, one pass, FinishUnit on a
// database with the same memory cap), once untraced and once traced, and
// checks each replayed image against the session's own.
func (w *sessionRevisit) traced(e *env, d time.Duration, base *phase) (map[string]float64, error) {
	// Replay as many of the served views as fit in half of d at the
	// untraced rate, so the two replays together take about d.
	n := int(float64(len(base.lat)) / base.wall.Seconds() * d.Seconds() / 2)
	n = max(min(n, len(w.images)), 1)
	views := w.views[:n]
	untraced, _, err := w.replay(e, nil, views, base)
	if err != nil {
		return nil, err
	}
	tracedWall, rp, err := w.replay(e, e.tr, views, base)
	if err != nil {
		return nil, err
	}
	m := replayMetrics(e.tr.snapshot(), rp)
	m["trace.overhead_ratio"] = tracedWall.Seconds() / untraced.Seconds()
	return m, nil
}

func (w *sessionRevisit) replay(e *env, tr *tracer, views []view, ph *phase) (time.Duration, *replayer, error) {
	rp := newReplayer(tr, e.spec)
	var current atomic.Int64
	hooks := &readHooks{tr: tr, tracks: newTrackSlots(1), parent: func(string) int { return int(current.Load()) }}
	db, err := openDB(core.Options{MemoryLimit: sessionMemory, BackgroundIO: true, IOWorkers: 1})
	if err != nil {
		return 0, nil, err
	}
	read := hooks.localRead(e.spec, w.data, allVars())
	start := time.Now()
	err = rp.interactive(db, read, e.spec, views, &current, func(i int, img []byte) {
		path, ok := w.images[i]
		if !ok {
			return // the view failed in the session; already counted
		}
		want, rerr := os.ReadFile(path)
		ph.attempted++
		if rerr != nil || !bytes.Equal(img, want) {
			ph.fail("replayed view %d differs from the session's image", i)
		}
	})
	wall := time.Since(start)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	return wall, rp, err
}
