// Command e2ebench is the GODIVA wall-clock benchmark. One run generates its
// inputs from a seed, drives one workload through the shipped public entry
// points (rocketeer, core, remote, push), checks every output and prints
// each metric by name with its unit. The last line of standard output is the
// result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, measured with tracing off; with --trace 1
// the run measures half its time untraced and half traced, replays the
// visualization passes, and reports the per-layer metrics, writing the spans
// as Chrome trace-event JSON.
//
// Run it through run.sh, which builds it from source first:
//
//	sh e2ebench/run.sh --workload scan-remote --seed 7 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"godiva/internal/genx"
)

// endToEnd lists the metrics a --trace 0 run reports, for every workload.
// What an "op" is depends on the workload; see README.md.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"mb_per_s", "MB/s"},
	{"op_ms_p50", "ms"},
}

// perLayer lists the metrics a --trace 1 run reports, for every workload; a
// layer a workload does not enter reads 0.
var perLayer = []struct{ name, unit string }{
	{"op_ms_tail", "ms"},
	{"core.visible_wait_s", "s"},
	{"core.unit_wait_ms_p50", "ms"},
	{"core.unit_wait_ms_tail", "ms"},
	{"core.queue_wait_ms_p50", "ms"},
	{"core.read_busy_s", "s"},
	{"core.commit_ms_per_unit", "ms"},
	{"core.query_us_p50", "us"},
	{"core.bytes_copied_per_unit", "B"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.evictions", "count"},
	{"core.units_failed", "count"},
	{"core.deadlocks", "count"},
	{"remote.rpc_ms_mean", "ms"},
	{"remote.rpcs_per_unit", "count"},
	{"remote.bytes_in_per_unit", "B"},
	{"remote.fetch_ms_per_unit", "ms"},
	{"remote.retries", "count"},
	{"remote.server_bytes_copied", "B"},
	{"remote.payload_cache_hit_ratio", "ratio"},
	{"remote.ingest_mb_per_s", "MB/s"},
	{"remote.ingest_ms_p50", "ms"},
	{"remote.ingest_ms_tail", "ms"},
	{"push.delivered", "count"},
	{"push.dropped", "count"},
	{"push.lagging", "count"},
	{"genx.read_block_ms", "ms"},
	{"vis.surface_ms", "ms"},
	{"vis.iso_ms", "ms"},
	{"vis.slice_ms", "ms"},
	{"vis.cut_ms", "ms"},
	{"vis.node_scalar_ms", "ms"},
	{"render.draw_ms", "ms"},
	{"render.tris_per_image", "count"},
	{"rocketeer.compute_s", "s"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.sched_latency_ms_p99", "ms"},
	{"go.alloc_mb", "MB"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_share", "ratio"},
	{"core.self_share", "ratio"},
	{"remote.self_share", "ratio"},
	{"genx.self_share", "ratio"},
	{"vis.self_share", "ratio"},
	{"render.self_share", "ratio"},
	{"failed_ratio", "ratio"},
}

// shareLayers are the layers whose self time the traced run attributes.
var shareLayers = []string{"core", "remote", "genx", "vis", "render"}

// env is one benchmark run's configuration and shared state.
type env struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	spec     genx.Spec
	work     string // scratch directory of this run, removed at exit
	out      string // reports and traces are written here
	rng      *rand.Rand
	digest   hash.Hash
	tr       *tracer // nil outside the traced phases
	info     map[string]any
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}

// workload is one benchmark scenario.
type workload interface {
	// inputs draws the workload's seeded inputs and feeds them to the
	// digest; it runs before any set-up.
	inputs(e *env) error
	// setup builds one instance in dir. It is timed and repeated; only
	// the last instance is kept.
	setup(e *env, dir string) error
	teardown() error
	// prepare runs once after the last set-up, untimed: references and
	// oracles the checks need.
	prepare(e *env) error
	// measure runs the workload for d with tracing off.
	measure(e *env, d time.Duration) (*phase, error)
	// traced runs the traced part of a --trace 1 run for d, given the
	// untraced phase that preceded it, and returns per-layer metrics.
	traced(e *env, d time.Duration, base *phase) (map[string]float64, error)
}

// phase is what one measured stretch of a workload produced.
type phase struct {
	wall      time.Duration
	windows   []window  // the measured stretch, cut for bestQuartile
	mbPerOp   float64   // payload MB brought into the core per op
	lat       []float64 // per-op latency, ms
	tailPct   float64   // the percentile op_ms_tail reports
	attempted int
	failed    int
	problems  []string
	named     map[string]metric  // the workload's own end-to-end metrics
	layer     map[string]float64 // per-layer metrics measured untraced
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// The dataset is genx.Scaled(datasetScale): 30 blocks, 8 snapshots of 2
// files, 29 MB. Each run sets up this many times; setup_s is the median.
const (
	datasetScale = 4
	setups       = 5
)

var workloads = map[string]func() workload{
	"voyager-batch":   func() workload { return &voyagerBatch{} },
	"scan-remote":     func() workload { return &scanRemote{} },
	"session-revisit": func() workload { return &sessionRevisit{} },
	"ingest-follow":   func() workload { return &ingestFollow{} },
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: voyager-batch, scan-remote, session-revisit or ingest-follow")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer run")
	)
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *trace == 1, datasetScale, setups, ".bench_build")
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the line the benchmark ends its output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run runs one workload on a genx.Scaled(scale) dataset, setting up
// nsetup times, with scratch data, reports and traces under dir.
func run(name string, seed int64, seconds float64, traced bool, scale, nsetup int, dir string) (res *result, err error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("need --seconds > 0")
	}
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	e := &env{
		workload: name, seed: seed, seconds: seconds, traced: traced,
		spec:   genx.Scaled(scale),
		work:   filepath.Join(dir, "work", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid())),
		out:    filepath.Join(dir, "out"),
		rng:    rand.New(rand.NewSource(seed)),
		digest: sha256.New(),
		info:   map[string]any{},
	}
	for _, d := range []string{e.work, e.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	defer func() {
		if rerr := os.RemoveAll(e.work); err == nil && rerr != nil {
			err = rerr
		}
	}()
	w := mk()
	fmt.Fprintf(e.digest, "%s %+v\n", name, e.spec)
	if err := w.inputs(e); err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}

	var setupTimes []float64
	for i := 0; i < nsetup; i++ {
		if i > 0 {
			if err := w.teardown(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		sdir := filepath.Join(e.work, fmt.Sprintf("setup%d", i))
		// Each set-up starts with no earlier file writes pending.
		syscall.Sync()
		start := time.Now()
		if err := w.setup(e, sdir); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer func() {
		if terr := w.teardown(); err == nil && terr != nil {
			err = fmt.Errorf("teardown: %w", terr)
		}
	}()
	if err := w.prepare(e); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	e.logf("%s seed %d: inputs %s, set-up %.3fs (median of %d)", name, seed, shortDigest(e), median(setupTimes), nsetup)

	// Flush the set-up's file writes now, so their write-back does not
	// land inside the measured window.
	syscall.Sync()
	d := time.Duration(seconds * float64(time.Second))
	goBefore := readGo()
	rss := sampleRSS(25 * time.Millisecond)
	var ph *phase
	layers := map[string]float64{}
	if !traced {
		ph, err = w.measure(e, d)
	} else {
		ph, err = w.measure(e, d/2)
	}
	rssMedian := rss.median()
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	if traced {
		e.tr = newTracer()
		if layers, err = w.traced(e, d/2, ph); err != nil {
			return nil, fmt.Errorf("traced: %w", err)
		}
	}
	for k, v := range ph.layer {
		if _, ok := layers[k]; !ok {
			layers[k] = v
		}
	}
	for k, v := range goDelta(goBefore, readGo()) {
		layers[k] = v
	}

	res = &result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed++
		res.Correct = false
		ph.problems = append(ph.problems, "no operation completed")
	}
	layers["failed_ratio"] = float64(res.Failed) / float64(res.Attempted)
	t := tailAt(ph.lat, ph.tailPct)
	rate, p50 := bestQuartile(ph.windows)
	e2e := map[string]float64{
		"setup_s":   median(setupTimes),
		"rss_mb":    rssMedian,
		"ops_per_s": rate,
		"mb_per_s":  rate * ph.mbPerOp,
		"op_ms_p50": p50,
	}
	// The tail does not repeat across runs within a tenth, so it is
	// reported with the per-layer metrics (and in the report).
	layers["op_ms_tail"] = t.Value
	if traced {
		spans := e.tr.snapshot()
		self, roots := selfTimes(spans)
		selfS := map[string]float64{}
		for l, s := range self {
			selfS[l] = s.Seconds()
		}
		if roots > 0 {
			for _, l := range shareLayers {
				layers[l+".self_share"] = float64(self[l]) / float64(roots)
			}
			layers["trace.unattributed_share"] = float64(self["bench"]) / float64(roots)
		}
		e.info["self_time_s"] = selfS
		e.info["traced_root_s"] = roots.Seconds()
		e.info["spans"] = len(spans)
		tpath := filepath.Join(e.out, fmt.Sprintf("trace-%s-%d.json", name, seed))
		if err := writeChromeTrace(tpath, spans, map[string]any{"workload": name, "seed": seed}); err != nil {
			return nil, err
		}
		e.info["trace_file"] = tpath
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
		}
	}
	if err := report(e, ph, res, e2e, layers, t, setupTimes); err != nil {
		return nil, err
	}
	return res, nil
}

func shortDigest(e *env) string { return fmt.Sprintf("%x", e.digest.Sum(nil))[:16] }

// report prints (and saves) everything the run measured and how: the named
// metrics of the workload with their units, the host and sizing record,
// the input digest and every failed check.
func report(e *env, ph *phase, res *result, e2e, layers map[string]float64, t tail, setupTimes []float64) error {
	nproc := runtime.NumCPU()
	rep := map[string]any{
		"workload":     e.workload,
		"seed":         e.seed,
		"seconds":      e.seconds,
		"trace":        e.traced,
		"input_digest": fmt.Sprintf("%x", e.digest.Sum(nil)),
		"host": map[string]any{
			"label":      fmt.Sprintf("%d-CPU container", nproc),
			"nproc":      nproc,
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		},
		"setup_s_each": setupTimes,
		"peak_rss_mb":  metric{peakRSSMB(), "MB"},
		"wall_s":       ph.wall.Seconds(),
		"windows":      len(ph.windows),
		"named":        ph.named,
		"op_ms_tail":   t,
		"problems":     ph.problems,
		"info":         e.info,
	}
	e2eOut := map[string]metric{}
	for _, m := range endToEnd {
		e2eOut[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
	}
	rep["end_to_end"] = e2eOut
	if e.traced {
		lay := map[string]metric{}
		for _, m := range perLayer {
			lay[m.name] = metric{Value: layers[m.name], Unit: m.unit}
		}
		rep["per_layer"] = lay
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	path := filepath.Join(e.out, fmt.Sprintf("report-%s-%d-trace%v.json", e.workload, e.seed, e.traced))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	var b strings.Builder
	names := make([]string, 0, len(ph.named))
	for n := range ph.named {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.4g%s", n, ph.named[n].Value, ph.named[n].Unit)
	}
	e.logf("%s:%s", e.workload, b.String())
	if len(ph.problems) > 0 {
		e.logf("failed checks: %s", strings.Join(ph.problems, "; "))
	}
	fmt.Printf("report %s\n", data)
	return nil
}
