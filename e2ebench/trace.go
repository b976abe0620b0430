package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracks (Chrome trace thread IDs) the benchmark's spans are drawn on.
const (
	tidConsumer = 1  // the workload's consumer: voyager loop, scan, viewer
	tidProducer = 2  // the ingest producer
	tidWorkers  = 10 // first background read track; one per concurrent read
)

// span is one timed call from the benchmark into a layer. Spans of one
// request (a unit, a view or a step) share req; parent is the span that made
// the call (0 for a root).
type span struct {
	id, parent int
	name       string
	layer      string
	req        string
	tid        int
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced phases run the same code with tracing off.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name, layer string, parent int, req string, tid int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		id: len(t.spans) + 1, parent: parent, name: name, layer: layer,
		req: req, tid: tid, start: now, end: -1,
	})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = now
}

// add records a span whose ends were observed elsewhere (for example in the
// core's unit event log) and returns its ID.
func (t *tracer) add(name, layer string, parent int, req string, tid int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		id: len(t.spans) + 1, parent: parent, name: name, layer: layer,
		req: req, tid: tid, start: start.Sub(t.epoch), end: end.Sub(t.epoch),
	})
	return len(t.spans)
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end >= s.start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each layer's self time — the time its spans cover minus
// the part of that time their child spans cover — and the summed duration of
// the root spans, which is the time all layers' self times add up to.
func selfTimes(spans []span) (self map[string]time.Duration, roots time.Duration) {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self = make(map[string]time.Duration)
	for _, s := range spans {
		d := s.end - s.start
		if s.parent == 0 {
			roots += d
		}
		self[s.layer] += d - covered(s.start, s.end, children[s.id])
	}
	return self, roots
}

// covered returns how much of [start, end] the union of the spans covers.
func covered(start, end time.Duration, spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	var total time.Duration
	cur := start
	for _, c := range sorted {
		lo, hi := c.start, c.end
		if lo < cur {
			lo = cur
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// writeChromeTrace writes the spans as Chrome trace-event JSON ("X"
// complete events, microsecond timestamps), loadable in chrome://tracing or
// Perfetto and joinable with other timelines by request ID.
func writeChromeTrace(path string, spans []span, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.tid,
			Args: map[string]any{"id": s.id, "parent": s.parent, "req": s.req},
		}
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// trackSlots hands out one Chrome track per concurrent background read, so
// overlapping reads on different I/O workers draw on different rows.
type trackSlots struct{ ch chan int }

func newTrackSlots(n int) *trackSlots {
	s := &trackSlots{ch: make(chan int, n)}
	for i := 0; i < n; i++ {
		s.ch <- tidWorkers + i
	}
	return s
}

func (s *trackSlots) get() int {
	select {
	case t := <-s.ch:
		return t
	default:
		return tidWorkers + cap(s.ch)
	}
}

func (s *trackSlots) put(t int) {
	if t >= tidWorkers+cap(s.ch) {
		return
	}
	select {
	case s.ch <- t:
	default:
	}
}
