package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point. Spans of one request or operation share Req; Parent
// is the span that made the call (0 for a root).
type span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the measured code paths are
// the same in both modes apart from the recording itself.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t          *tracer
	id, parent int64
	req        int64
	name       string
	start      time.Time
}

// newID returns a fresh span or request id; 0 on a nil tracer.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// begin starts a span named name under parent, for request req.
func (t *tracer) begin(name string, parent, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.newID(), parent: parent, req: req, name: name, start: time.Now()}
}

// end records the span.
func (s openSpan) end() {
	if s.t == nil {
		return
	}
	now := time.Now()
	s.t.add(span{ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
		Start: s.start.Sub(s.t.epoch), End: now.Sub(s.t.epoch)})
}

// record adds a span whose bounds were taken elsewhere, such as a request
// timed from its due time rather than its send time.
func (t *tracer) record(name string, id, parent, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

func (t *tracer) add(sp span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Calls int
	// Total is the summed span time; Self subtracts, span by span, the part
	// of each span's interval that its child spans cover.
	Total, Self time.Duration
	// Selfs holds each span's self time, for medians.
	Selfs []float64
}

// perCall is the mean self time per span, in units of unit.
func (l *layerTime) perCall(unit time.Duration) float64 {
	return float64(l.Self) / float64(unit) / float64(l.Calls)
}

// selfTimes aggregates every recorded span by name.
func (t *tracer) selfTimes() map[string]*layerTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	return selfTimes(spans)
}

func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[int64][]span)
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := make(map[string]*layerTime)
	for _, sp := range spans {
		lt := out[sp.Name]
		if lt == nil {
			lt = &layerTime{}
			out[sp.Name] = lt
		}
		dur := sp.End - sp.Start
		self := dur - covered(sp, children[sp.ID])
		lt.Calls++
		lt.Total += dur
		lt.Self += self
		lt.Selfs = append(lt.Selfs, float64(self))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return sum + curHi - curLo
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, sp := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			sp.ID, sp.Parent, sp.Req, sp.Name, int64(sp.Start), int64(sp.End))
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
