package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSelfTimes checks the self-time arithmetic on a hand-built tree: a
// layer's self time is its spans' time minus what their children cover,
// and the layers' self times add up to the root spans' time.
func TestSelfTimes(t *testing.T) {
	at := func(id, parent int, layer string, start, end time.Duration) span {
		return span{id: id, parent: parent, layer: layer, start: start, end: end}
	}
	spans := []span{
		at(1, 0, "bench", 0, 100),
		at(2, 1, "core", 10, 40),
		at(3, 2, "genx", 20, 30),
		at(4, 1, "vis", 50, 80),
		at(5, 4, "render", 60, 90), // runs past its parent: clipped at 80
		at(6, 0, "remote", 200, 230),
		at(7, 6, "core", 210, 215),
	}
	self, roots := selfTimes(spans)
	want := map[string]time.Duration{
		"bench": 100 - 30 - 30, "core": 20 + 5, "genx": 10,
		"vis": 30 - 20, "render": 30, "remote": 25,
	}
	for layer, w := range want {
		if self[layer] != w {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], w)
		}
	}
	if roots != 130 {
		t.Errorf("roots = %v, want 130", roots)
	}
	// Without children running past their parents, the self times add up
	// to the roots exactly.
	spans[4].end = 80
	self, roots = selfTimes(spans)
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != roots {
		t.Errorf("self times add to %v, roots %v", sum, roots)
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	kids := []span{{start: 30, end: 60}, {start: 10, end: 40}, {start: 70, end: 200}}
	if got := covered(0, 100, kids); got != 50+30 {
		t.Errorf("covered = %v, want 80", got)
	}
}

func TestTailPicksPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {200, 95}, {100, 90}, {50, 80}, {40, 75}, {12, 50}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		tl := tailOf(xs)
		if tl.Percentile != c.want {
			t.Errorf("n=%d: percentile %v, want %v", c.n, tl.Percentile, c.want)
		}
		if c.n >= 40 && tl.Beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond", c.n, tl.Beyond)
		}
	}
	if q := quantile([]float64{4, 1, 3, 2}, 0.5); q != 2.5 {
		t.Errorf("median of 1..4 = %v", q)
	}
}

// TestWorkloadsSmoke runs every workload at a tiny scale, untraced and
// traced, and requires correct outputs and every metric present.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				dir := t.TempDir()
				res, err := run(name, 3, 0.4, traced, 16, 2, dir)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				list := endToEnd
				if traced {
					list = perLayer
				}
				if len(res.Metrics) != len(list) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(list))
				}
				for _, m := range list {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s = %+v", m.name, got)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
				if !traced {
					return
				}
				data, err := os.ReadFile(filepath.Join(dir, "out", fmt.Sprintf("trace-%s-3.json", name)))
				if err != nil {
					t.Fatal(err)
				}
				var tr struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
					t.Errorf("trace: %d events, %v", len(tr.TraceEvents), err)
				}
			})
		}
	}
}

// TestSeedDeterminesInputs checks that the input digest depends on the
// seed and on nothing else.
func TestSeedDeterminesInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload three times")
	}
	digest := func(seed int64) string {
		dir := t.TempDir()
		if _, err := run("session-revisit", seed, 0.1, false, 16, 1, dir); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "out", fmt.Sprintf("report-session-revisit-%d-tracefalse.json", seed)))
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Digest string `json:"input_digest"`
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return rep.Digest
	}
	a, b, c := digest(5), digest(5), digest(6)
	if a != b {
		t.Errorf("same seed, different digests %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 5 and 6 gave the same digest")
	}
}
