package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"godiva/internal/core"
	"godiva/internal/genx"
	"godiva/internal/push"
	"godiva/internal/remote"
	"godiva/internal/rocketeer"
)

// ingestFollow writes beside reads: an ingest-enabled godivad starts on an
// empty directory, one producer client ingests snapshot files pre-generated
// in set-up, open loop at a fixed step rate below the follower's render
// capacity, and rocketeer.Follow (Block policy, test simple) renders each
// step as its files land. The seed draws which snapshot's payload each step
// carries and each step's offset within its slot of the schedule. An op is
// one rendered step; its latency is the step's freshness: from when its
// last file was due to when the step was rendered. Each ingest is timed
// from when it was due, so a stall also counts against later ingests.
type ingestFollow struct {
	dir      string
	srv      *remote.Server
	producer *remote.Client
	follower *remote.Client
	payloads [][][]*genx.BlockData // [snapshot][file] -> blocks
	content  []int                 // per step: the snapshot its payload is
	offset   []float64             // per step: offset in its slot, in slots
	refData  string
	refs     map[string][]byte
	nextStep int
}

const (
	followRate     = 8.0 // steps per second
	followMaxSteps = 4096
)

func (w *ingestFollow) inputs(e *env) error {
	for s := 0; s < followMaxSteps; s++ {
		w.content = append(w.content, e.rng.Intn(e.spec.Snapshots))
		w.offset = append(w.offset, 0.05*e.rng.Float64())
	}
	_, err := fmt.Fprintf(e.digest, "steps %v offsets %v\n", w.content, w.offset)
	return err
}

func (w *ingestFollow) setup(e *env, dir string) error {
	w.dir = dir
	w.payloads = make([][][]*genx.BlockData, e.spec.Snapshots)
	err := genx.StreamDataset(e.spec, func(step, file int, blocks []*genx.BlockData) error {
		w.payloads[step] = append(w.payloads[step], blocks)
		return nil
	})
	if err != nil {
		return err
	}
	srv, err := remote.Serve(remote.ServerOptions{Dir: filepath.Join(dir, "ingest"), Ingest: true})
	if err != nil {
		return err
	}
	w.srv = srv
	w.producer = remote.NewClient(remote.ClientOptions{Addr: srv.Addr(), PoolSize: 1})
	w.follower = remote.NewClient(remote.ClientOptions{Addr: srv.Addr(), PoolSize: 1})
	return errors.Join(w.producer.Ping(), w.follower.Ping())
}

func (w *ingestFollow) teardown() error {
	var err error
	for _, c := range []*remote.Client{w.producer, w.follower} {
		if c != nil {
			err = errors.Join(err, c.Close())
		}
	}
	if w.srv != nil {
		err = errors.Join(err, w.srv.Close())
	}
	w.producer, w.follower, w.srv = nil, nil, nil
	return errors.Join(err, os.RemoveAll(w.dir))
}

func (w *ingestFollow) prepare(e *env) error {
	w.refData = filepath.Join(e.work, "follow-ref-data")
	if _, err := genx.WriteDataset(e.spec, w.refData); err != nil {
		return err
	}
	n, err := digestDir(e.digest, w.refData)
	if err != nil {
		return err
	}
	e.info["dataset_bytes"] = n
	e.info["core_memory_cap_bytes"] = core.DefaultMemoryLimit
	e.info["payload_cache_bytes"] = 64 << 20
	e.info["step_rate_per_s"] = followRate
	simple, _ := rocketeer.TestByName("simple")
	w.refs, err = renderReferences(e.spec, w.refData, filepath.Join(e.work, "follow-refs"), []rocketeer.VisTest{simple})
	return err
}

// stepPayload builds the payload of one file of a step: the blocks of the
// step's snapshot, stamped with the step's own time and ID.
func (w *ingestFollow) stepPayload(spec genx.Spec, step, file int) *remote.FilePayload {
	src := w.payloads[w.content[step]][file]
	t := float64(step+1) * spec.DT
	blocks := make([]*genx.BlockData, len(src))
	for i, bd := range src {
		c := *bd
		c.Time, c.StepID = t, spec.StepID(step)
		blocks[i] = &c
	}
	return &remote.FilePayload{
		Path: filepath.Base(genx.SnapshotFile("", step, file)), Time: t,
		StepID: spec.StepID(step), Blocks: blocks,
	}
}

// followRun is what one producer/follower run measured.
type followRun struct {
	wall                time.Duration
	steps               int
	fresh, ingest, late []float64 // ms
	at                  []time.Duration
	ingestBusy          time.Duration
	ingestBytes         int64
	maxLagging          int
	res                 *rocketeer.FollowResult
}

// follow ingests n steps starting at the next unused step number while a
// follower renders them, and checks the follower's output.
func (w *ingestFollow) follow(e *env, tr *tracer, n int, ph *phase) (*followRun, error) {
	first := w.nextStep
	w.nextStep += n
	imgDir := filepath.Join(e.work, fmt.Sprintf("follow-images-%d", first))
	simple, _ := rocketeer.TestByName("simple")
	var mu sync.Mutex
	rendered := map[int]time.Time{}
	cfg := rocketeer.FollowConfig{
		Test: simple, Client: w.follower, Policy: push.Block, Queue: 64,
		MaxSteps: n, ImageDir: imgDir, Width: imgW, Height: imgH,
		Logf: func(format string, args ...any) {
			now := time.Now()
			if !strings.Contains(format, "images") || len(args) == 0 {
				return
			}
			if s, ok := args[0].(int); ok {
				mu.Lock()
				rendered[s] = now
				mu.Unlock()
			}
		},
	}
	// The follower is the server's only subscriber: wait for an earlier
	// follower's subscription to go, then for this one's to register.
	if err := w.waitSubscribers(0); err != nil {
		return nil, err
	}
	type outcome struct {
		res *rocketeer.FollowResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := rocketeer.Follow(cfg)
		done <- outcome{res, err}
	}()
	var out outcome
	if err := w.waitSubscribers(1); err != nil {
		// Closing the client ends Follow.
		err = errors.Join(err, w.follower.Close())
		out = <-done
		return nil, errors.Join(err, out.err)
	}

	run := &followRun{}
	p0 := w.srv.PushStats()
	lastDue := make(map[int]time.Time, n)
	interval := time.Duration(float64(time.Second) / followRate)
	t0 := time.Now().Add(10 * time.Millisecond)
	removed := first
	for k := 0; k < n; k++ {
		s := first + k
		for f := 0; f < e.spec.FilesPerSnapshot; f++ {
			fp := w.stepPayload(e.spec, s, f)
			slot := float64(k) + w.offset[s] + 0.25*float64(f)/float64(e.spec.FilesPerSnapshot)
			due := t0.Add(time.Duration(slot * float64(interval)))
			time.Sleep(time.Until(due))
			started := time.Now()
			sp := tr.begin("remote.ingest", "remote", 0, fmt.Sprintf("step_%05d", s), tidProducer)
			err := w.producer.Ingest(fp.Path, fp)
			tr.end(sp)
			ack := time.Now()
			run.ingest = append(run.ingest, ms(ack.Sub(due)))
			run.late = append(run.late, ms(started.Sub(due)))
			run.ingestBusy += ack.Sub(started)
			run.ingestBytes += fp.Bytes()
			ph.attempted++
			if err != nil {
				ph.fail("ingest step %d file %d: %v", s, f, err)
			}
			lastDue[s] = due
		}
		if l := w.srv.PushStats().Lagging; l > run.maxLagging {
			run.maxLagging = l
		}
		// Retention: the server keeps only steps not yet rendered.
		mu.Lock()
		upto := removed
		for upto < s && !rendered[upto].IsZero() {
			upto++
		}
		mu.Unlock()
		for ; removed < upto; removed++ {
			for f := 0; f < e.spec.FilesPerSnapshot; f++ {
				if err := os.Remove(genx.SnapshotFile(filepath.Join(w.dir, "ingest"), removed, f)); err != nil {
					ph.fail("retention: %v", err)
				}
			}
		}
	}
	select {
	case out = <-done:
	case <-time.After(60 * time.Second):
		err := w.follower.Close()
		out = <-done
		return nil, fmt.Errorf("follower did not finish: %w", errors.Join(out.err, err))
	}
	if out.err != nil {
		return nil, out.err
	}
	run.res = out.res
	p1 := w.srv.PushStats()
	mu.Lock()
	renderedAt := make(map[int]time.Time, len(rendered))
	for s, t := range rendered {
		renderedAt[s] = t
	}
	mu.Unlock()
	var last time.Time
	for s := first; s < first+n; s++ {
		r, ok := renderedAt[s]
		if !ok {
			ph.fail("step %d never rendered", s)
			continue
		}
		run.fresh = append(run.fresh, ms(r.Sub(lastDue[s])))
		run.at = append(run.at, r.Sub(t0))
		if r.After(last) {
			last = r
		}
	}
	run.steps = len(run.fresh)
	run.wall = last.Sub(t0)

	// Checks: every step rendered once, nothing skipped or dropped, every
	// image equal to the O-build render of the step's snapshot.
	ph.attempted += n
	if run.res.Steps != n || run.res.Skipped != 0 {
		ph.fail("follow rendered %d steps, skipped %d, want %d and 0", run.res.Steps, run.res.Skipped, n)
	}
	if d := p1.Dropped - p0.Dropped; d != 0 {
		ph.fail("push dropped %d events under Block", d)
	}
	if run.res.DB.UnitsFailed != 0 {
		ph.fail("core: %d units failed", run.res.DB.UnitsFailed)
	}
	checked, bad, err := compareImages(imgDir, w.refs, func(name string) string {
		var s int
		if _, err := fmt.Sscanf(name, "simple_t%d_", &s); err != nil || s < 0 || s >= len(w.content) {
			return name
		}
		return strings.Replace(name, fmt.Sprintf("_t%04d_", s), fmt.Sprintf("_t%04d_", w.content[s]), 1)
	})
	if err != nil {
		return nil, err
	}
	for _, b := range bad {
		ph.fail("%s", b)
	}
	if want := n * len(simple.Ops); checked != want || run.res.Images != want {
		ph.fail("%d images on disk, %d reported, want %d", checked, run.res.Images, want)
	}
	return run, os.RemoveAll(imgDir)
}

func (w *ingestFollow) waitSubscribers(n int) error {
	start := time.Now()
	for w.srv.PushStats().Subscribers != n {
		if time.Since(start) > 10*time.Second {
			return fmt.Errorf("%d subscribers after 10s, want %d", w.srv.PushStats().Subscribers, n)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (w *ingestFollow) steps(d time.Duration) int {
	n := int(d.Seconds() * followRate)
	if n < 2 {
		n = 2
	}
	if w.nextStep+n > followMaxSteps {
		n = followMaxSteps - w.nextStep
	}
	return n
}

func (w *ingestFollow) measure(e *env, d time.Duration) (*phase, error) {
	ph := &phase{named: map[string]metric{}, layer: map[string]float64{}}
	c0, s0, p0 := w.follower.Stats(), w.srv.Stats(), w.srv.PushStats()
	run, err := w.follow(e, nil, w.steps(d), ph)
	if err != nil {
		return nil, err
	}
	c1, s1, p1 := w.follower.Stats(), w.srv.Stats(), w.srv.PushStats()
	ph.wall = run.wall
	ph.lat = run.fresh
	ph.tailPct = 90
	ph.windows = slice(run.at, run.fresh, 2*windowWidth, run.wall)
	if run.steps > 0 {
		ph.mbPerOp = float64(run.res.DB.BytesLoaded) / 1e6 / float64(run.steps)
	}
	ft, it := tailAt(run.fresh, ph.tailPct), tailAt(run.ingest, ph.tailPct)
	ph.named["freshness_ms_p50"] = metric{median(run.fresh), "ms"}
	ph.named["freshness_ms_tail"] = metric{ft.Value, "ms"}
	ph.named["ingest_ms_p50"] = metric{median(run.ingest), "ms"}
	ph.named["ingest_ms_tail"] = metric{it.Value, "ms"}
	ph.named["steps_per_s"] = metric{float64(run.steps) / run.wall.Seconds(), "1/s"}
	ph.named["generator_late_ms_p50"] = metric{median(run.late), "ms"}
	ph.named["generator_late_ms_max"] = metric{quantile(run.late, 1), "ms"}
	e.info["ingest_tail"] = it
	e.info["freshness_tail"] = ft

	m := coreStatsMetrics(run.res.DB)
	remoteMetrics(m, c0, c1, s0, s1)
	if units := float64(run.res.DB.UnitsRead); units > 0 {
		m["remote.rpcs_per_unit"] = float64(c1.RPCs-c0.RPCs) / units
		m["remote.bytes_in_per_unit"] = float64(c1.BytesIn-c0.BytesIn) / units
		// Follow's read function commits inside rocketeer, so this is
		// fetch plus commit.
		m["remote.fetch_ms_per_unit"] = ms(run.res.DB.ReadTime) / units
	}
	if run.ingestBusy > 0 {
		m["remote.ingest_mb_per_s"] = float64(run.ingestBytes) / 1e6 / run.ingestBusy.Seconds()
	}
	m["remote.ingest_ms_p50"] = median(run.ingest)
	m["remote.ingest_ms_tail"] = it.Value
	m["push.delivered"] = float64(p1.Delivered - p0.Delivered)
	m["push.dropped"] = float64(p1.Dropped - p0.Dropped)
	m["push.lagging"] = float64(run.maxLagging)
	ph.layer = m
	return ph, nil
}

// traced runs the producer and follower again with the producer's ingests
// traced, then replays test simple's passes over the snapshots through a
// plain godivad (remote fetch, core, vis, render), once untraced and once
// traced, checking the replayed images against the references.
func (w *ingestFollow) traced(e *env, d time.Duration, base *phase) (map[string]float64, error) {
	if _, err := w.follow(e, e.tr, w.steps(d), base); err != nil {
		return nil, err
	}
	srv, err := remote.Serve(remote.ServerOptions{Dir: w.refData})
	if err != nil {
		return nil, err
	}
	client := remote.NewClient(remote.ClientOptions{Addr: srv.Addr(), PoolSize: 1})
	untraced, _, err := w.replay(e, nil, client, base)
	var tracedWall time.Duration
	var rp *replayer
	if err == nil {
		tracedWall, rp, err = w.replay(e, e.tr, client, base)
	}
	err = errors.Join(err, client.Close(), srv.Close())
	if err != nil {
		return nil, err
	}
	m := replayMetrics(e.tr.snapshot(), rp)
	m["trace.overhead_ratio"] = tracedWall.Seconds() / untraced.Seconds()
	return m, nil
}

func (w *ingestFollow) replay(e *env, tr *tracer, c *remote.Client, ph *phase) (time.Duration, *replayer, error) {
	simple, _ := rocketeer.TestByName("simple")
	rp := newReplayer(tr, e.spec)
	hooks := &readHooks{tr: tr, tracks: newTrackSlots(1)}
	db, err := openDB(core.Options{BackgroundIO: true, IOWorkers: 1})
	if err != nil {
		return 0, nil, err
	}
	steps := make([]int, e.spec.Snapshots)
	for i := range steps {
		steps[i] = i
	}
	start := time.Now()
	err = rp.batch(db, hooks.remoteRead(c, e.spec, fileOrder(simple.Vars)), e.spec, simple, steps, func(name string, img []byte) {
		ph.attempted++
		if !bytes.Equal(img, w.refs[name]) {
			ph.fail("replay %s differs from the reference", name)
		}
	})
	wall := time.Since(start)
	return wall, rp, errors.Join(err, db.Close())
}
