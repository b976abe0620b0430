package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"godiva/internal/core"
	"godiva/internal/remote"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailGrid lists the percentiles a tail may be reported at, highest first.
var tailGrid = []float64{99.9, 99, 95, 90, 80, 75, 50}

// tail is a latency tail: the highest percentile of tailGrid with at least
// ten samples beyond it, with that percentile and the sample count.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Beyond     int     `json:"beyond"`
	Samples    int     `json:"samples"`
}

// tailAt reports the p-th percentile as the tail when at least ten samples
// lie beyond it, and falls back to tailOf otherwise. Workloads fix p for
// their run length so that every run reports the same percentile.
func tailAt(xs []float64, p float64) tail {
	n := len(xs)
	if beyond := n - int(math.Ceil(float64(n)*p/100)); beyond >= 10 {
		return tail{Value: quantile(xs, p/100), Percentile: p, Beyond: beyond, Samples: n}
	}
	return tailOf(xs)
}

func tailOf(xs []float64) tail {
	n := len(xs)
	for _, p := range tailGrid {
		beyond := n - int(math.Ceil(float64(n)*p/100))
		if beyond >= 10 {
			return tail{Value: quantile(xs, p/100), Percentile: p, Beyond: beyond, Samples: n}
		}
	}
	// Too few samples for any percentile to have ten beyond it: report the
	// median and say how many lie beyond it.
	return tail{Value: median(xs), Percentile: 50, Beyond: n / 2, Samples: n}
}

// window is one stretch of a measured run: how many ops it completed, in
// how many seconds, and their latencies.
type window struct {
	ops  float64
	secs float64
	lat  []float64
}

// slice cuts a measured stretch into consecutive windows of the given
// width; at[i] is when op i completed, relative to the start, and lat[i] its
// latency. A window's rate runs from its first completion to its last, so
// a schedule's phase does not quantize it. Ops past the last whole window
// are dropped; a stretch shorter than two windows is one window.
func slice(at []time.Duration, lat []float64, width, total time.Duration) []window {
	n := int(total / width)
	if n < 2 {
		n, width = 1, total+1
	}
	first := make([]time.Duration, n)
	last := make([]time.Duration, n)
	ws := make([]window, n)
	for i, t := range at {
		k := int(t / width)
		if k >= n {
			continue
		}
		if ws[k].ops == 0 || t < first[k] {
			first[k] = t
		}
		if t > last[k] {
			last[k] = t
		}
		ws[k].ops++
		ws[k].lat = append(ws[k].lat, lat[i])
	}
	out := ws[:0]
	for k, w := range ws {
		if w.ops >= 2 && last[k] > first[k] {
			w.ops--
			w.secs = (last[k] - first[k]).Seconds()
			out = append(out, w)
		}
	}
	return out
}

// chunks cuts a run into windows of n consecutive ops; at[i] is when op i
// completed, relative to the start, and lat[i] its latency. A trailing
// partial window is dropped; fewer than n ops make one window.
func chunks(at []time.Duration, lat []float64, n int) []window {
	if len(at) < n {
		n = len(at)
	}
	var out []window
	prev := time.Duration(0)
	for k := 0; n > 0 && (k+1)*n <= len(at); k++ {
		end := at[(k+1)*n-1]
		out = append(out, window{ops: float64(n), secs: (end - prev).Seconds(), lat: lat[k*n : (k+1)*n]})
		prev = end
	}
	return out
}

// bestQuartile summarizes a run's windows: the upper quartile of their op
// rates and the lower quartile of their median latencies. Interference
// from outside the program (other tenants of the host) only ever slows a
// window, so the better quartile moves less between runs than a whole-run
// figure, while a slower program moves every window and so the figure.
func bestQuartile(ws []window) (rate, p50 float64) {
	rates := make([]float64, 0, len(ws))
	meds := make([]float64, 0, len(ws))
	for _, w := range ws {
		if w.secs > 0 {
			rates = append(rates, w.ops/w.secs)
		}
		if len(w.lat) > 0 {
			meds = append(meds, median(w.lat))
		}
	}
	return quantile(rates, 0.75), quantile(meds, 0.25)
}

// windowWidth is the width runs are cut into for bestQuartile.
const windowWidth = time.Second

// rssSampler records the resident set size every interval until stopped.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB
}

func sampleRSS(every time.Duration) *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if mb := rssMB(); mb > 0 {
				r.samples = append(r.samples, mb)
			}
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// median stops sampling and returns the median resident set size in MB.
func (r *rssSampler) median() float64 {
	close(r.stop)
	<-r.done
	return median(r.samples)
}

// rssMB reads the current resident set size from /proc/self/statm.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / 1e6
}

// timeSum adds up durations from concurrent goroutines.
type timeSum struct{ n atomic.Int64 }

func (t *timeSum) add(d time.Duration) { t.n.Add(int64(d)) }

func (t *timeSum) total() int64 { return t.n.Load() }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb * 1024 / 1e6
	}
	return 0
}

// goSample is a snapshot of the Go runtime's cumulative counters.
type goSample struct {
	gcCPU, totalCPU, allocBytes float64
	sched                       *metrics.Float64Histogram
}

var goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func readGo() goSample {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var g goSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = float64(s[2].Value.Uint64())
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		g.sched = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return g
}

// goDelta reports the runtime metrics between two samples: the GC's share
// of CPU time, the MB allocated and the 99th percentile of goroutine
// scheduling latency in ms.
func goDelta(a, b goSample) map[string]float64 {
	out := map[string]float64{
		"go.gc_cpu_fraction":      0,
		"go.alloc_mb":             (b.allocBytes - a.allocBytes) / 1e6,
		"go.sched_latency_ms_p99": 0,
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		out["go.gc_cpu_fraction"] = (b.gcCPU - a.gcCPU) / cpu
	}
	if a.sched == nil || b.sched == nil || len(a.sched.Counts) != len(b.sched.Counts) {
		return out
	}
	var total uint64
	counts := make([]uint64, len(b.sched.Counts))
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return out
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if float64(cum) >= 0.99*float64(total) {
			edge := b.sched.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.sched.Buckets[i]
			}
			out["go.sched_latency_ms_p99"] = edge * 1e3
			break
		}
	}
	return out
}

// coreStatsMetrics maps a database's counters onto per-layer metrics.
func coreStatsMetrics(s core.Stats) map[string]float64 {
	m := map[string]float64{
		"core.visible_wait_s": s.VisibleWait.Seconds(),
		"core.read_busy_s":    s.ReadTime.Seconds(),
		"core.evictions":      float64(s.UnitsEvicted),
		"core.units_failed":   float64(s.UnitsFailed),
		"core.deadlocks":      float64(s.Deadlocks),
	}
	if s.UnitsRead > 0 {
		m["core.bytes_copied_per_unit"] = float64(s.BytesLoaded-s.BytesBorrowed) / float64(s.UnitsRead)
		m["core.cache_hit_ratio"] = float64(s.CacheHits) / float64(s.CacheHits+s.UnitsRead)
	}
	return m
}

// remoteMetrics adds the client and server counters between two snapshots.
func remoteMetrics(m map[string]float64, c0, c1 remote.RemoteStats, s0, s1 remote.ServerStats) {
	if rpcs := c1.RPCs - c0.RPCs; rpcs > 0 {
		m["remote.rpc_ms_mean"] = ms(c1.Latency-c0.Latency) / float64(rpcs)
	}
	m["remote.retries"] = float64(c1.Retries - c0.Retries)
	m["remote.server_bytes_copied"] = float64(s1.BytesCopied - s0.BytesCopied)
	hits := s1.PayloadCacheHits - s0.PayloadCacheHits
	if all := hits + s1.PayloadCacheMisses - s0.PayloadCacheMisses; all > 0 {
		m["remote.payload_cache_hit_ratio"] = float64(hits) / float64(all)
	}
}
