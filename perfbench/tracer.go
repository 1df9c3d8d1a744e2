package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer boundary.
type span struct {
	Name string `json:"name"`
	ID   uint64 `json:"id"`
	// Parent is the span that caused this one; Trace is shared by the
	// spans of one request (a fleet session, a ladder rung).
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace,omitempty"`
	// Start is nanoseconds since the tracer started; Dur the span's
	// length in nanoseconds.
	Start int64 `json:"start_ns"`
	Dur   int64 `json:"dur_ns"`
	// Count is the work done inside the span (frames, steps, records),
	// so a per-unit cost is measured where the work happens.
	Count int64 `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so the untraced end-to-end runs pay one nil check
// per call site.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span identifier, for a parent recorded after its
// children.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record closes a span that started at start and ends now.
func (t *tracer) record(name string, id, parent, trace uint64, start time.Time, count int64) {
	if t == nil {
		return
	}
	end := time.Now()
	if id == 0 {
		id = t.next.Add(1)
	}
	s := span{Name: name, ID: id, Parent: parent, Trace: trace,
		Start: start.Sub(t.t0).Nanoseconds(), Dur: end.Sub(start).Nanoseconds(), Count: count}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the lengths of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.Dur))
		}
	}
	return out
}

// perUnit is the summed span time of a name divided by the summed work
// count: nanoseconds per frame, step or record.
func (t *tracer) perUnit(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var dur, n int64
	for _, s := range t.spans {
		if s.Name == name {
			dur += s.Dur
			n += s.Count
		}
	}
	if n == 0 {
		return 0
	}
	return float64(dur) / float64(n)
}

// selfTime is each span's duration minus the part of it its direct
// children cover, summed by name.
func (t *tracer) selfTime() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range t.spans {
		covered := coveredNanos(s, children[s.ID])
		self[s.Name] += s.Dur - covered
	}
	return self
}

// coveredNanos is how much of parent's interval the union of kids
// covers (children may overlap when they ran concurrently).
func coveredNanos(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.Start+k.Dur, parent.Start+parent.Dur)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

// write dumps the header, every span and the per-name self times as
// JSON lines.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"env": header}); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := enc.Encode(map[string]any{"self_ns": t.selfTime()}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
