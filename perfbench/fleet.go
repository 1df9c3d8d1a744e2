package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cpsmon/internal/archive"
	"cpsmon/internal/can"
	"cpsmon/internal/durable"
	"cpsmon/internal/fleet"
	"cpsmon/internal/flight"
	"cpsmon/internal/rules"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
	"cpsmon/internal/wire"
)

// fleetConns is how many vehicle connections the load generator keeps
// open: one per CPU, at most two, so the run measures the server rather
// than the scheduler juggling more connections than there are cores.
func fleetConns() int { return max(1, min(2, runtime.NumCPU())) }

// fleetLogs is how many distinct captures the fleet session mix cycles
// through: the five scenarios crossed with the four fault variants.
const fleetLogs = 20

// fleetRig is an in-process fleet server wired as monitord wires it
// with -state-dir: a durable ledger, a lossless archive under the state
// dir, a flight recorder at the default 1-in-64 sampling with the
// default latency SLO, and the wire, archive and durable metrics on the
// server registry.
type fleetRig struct {
	led  *durable.Ledger
	aw   *archive.Writer
	srv  *fleet.Server
	addr string
}

func startRig(dir string, onEvent func(uint64, string, wire.Event)) (*fleetRig, error) {
	strict, err := rules.Strict()
	if err != nil {
		return nil, err
	}
	relaxed, err := rules.Relaxed()
	if err != nil {
		return nil, err
	}
	resolve := func(name string) (*speclang.RuleSet, error) {
		switch name {
		case "", "strict":
			return strict, nil
		case "relaxed":
			return relaxed, nil
		}
		return nil, fmt.Errorf("unknown spec %q", name)
	}
	led, err := durable.Open(dir)
	if err != nil {
		return nil, err
	}
	archDir := filepath.Join(dir, "archive")
	aw, err := archive.OpenWriter(archDir, archive.Options{})
	if err != nil {
		led.Close()
		return nil, err
	}
	srv, err := fleet.NewServer(fleet.Config{
		DB:          sigdb.Vehicle(),
		Resolve:     resolve,
		DeltaMode:   speclang.DeltaUpdateAware,
		Triage:      rules.DefaultTriage(),
		Flight:      flight.New(flight.Config{SampleEvery: 64}),
		SLO:         flight.NewSLO(100*time.Millisecond, 0.99, time.Minute),
		Ledger:      led,
		Epoch:       led.Epoch(),
		SessionBase: led.State().MaxSession,
		SpecEpoch:   led.State().SpecEpoch,
		Archiver:    aw,
		OnEvent:     onEvent,
	})
	if err != nil {
		aw.Close()
		led.Close()
		return nil, err
	}
	rig := &fleetRig{led: led, aw: aw, srv: srv}
	wire.Instrument(srv.Registry())
	archive.Instrument(srv.Registry())
	durable.Instrument(srv.Registry())
	cat, err := archive.OpenCatalog(archDir)
	if err == nil {
		_, err = durable.Recover(led, cat, srv)
	}
	if err == nil {
		err = srv.Listen("127.0.0.1:0")
	}
	if err != nil {
		return nil, errors.Join(err, rig.close())
	}
	rig.addr = srv.Addr().String()
	return rig, nil
}

// close drains the server, then seals the archive and closes the ledger.
func (r *fleetRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return errors.Join(r.srv.Shutdown(ctx), r.aw.Close(), r.led.Close())
}

// recvEvent is one event as the vehicle received it.
type recvEvent struct {
	e  wire.Event
	at time.Time
}

// session is one vehicle session: hello → stream → finish → verdict.
type session struct {
	log    int
	id     uint64
	frames int
	hello  time.Duration
	finish time.Duration
	// finishAt is when Client.Finish was called.
	finishAt time.Time
	// sched holds each batch's scheduled send time (open loop only).
	sched []time.Time

	mu      sync.Mutex // OnEvent runs on the client's read goroutine
	events  []recvEvent
	verdict *wire.Verdict
	err     error
}

func (s *session) onEvent(e wire.Event) {
	now := time.Now()
	s.mu.Lock()
	s.events = append(s.events, recvEvent{e, now})
	s.mu.Unlock()
}

func (s *session) received() []recvEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}

// serverEvent is a begin event as the server's OnEvent hook saw it.
type serverEvent struct {
	session uint64
	e       wire.Event
	at      time.Time
}

// fleetLoad drives sessions against a rig from conns connections.
type fleetLoad struct {
	addr    string
	spec    string
	caps    []capture
	batches [][][]can.Frame
	conns   int
	tr      *tracer
	// exps, when set, is the oracle's prediction for each capture:
	// each session is checked against it as soon as its verdict is in
	// (a few microseconds against the session's tens of milliseconds),
	// and its events are then dropped unless keepEvents is set, so the
	// benchmark's own bookkeeping does not grow the heap it measures.
	exps       []expectation
	keepEvents bool

	// hookOn gates the server OnEvent hook to traced phases; hooked
	// collects what it saw.
	hookOn atomic.Bool
	hookMu sync.Mutex
	hooked []serverEvent
}

func (fl *fleetLoad) onServerEvent(id uint64, _ string, e wire.Event) {
	if e.Kind != wire.EventBegin || !fl.hookOn.Load() {
		return
	}
	now := time.Now()
	fl.hookMu.Lock()
	fl.hooked = append(fl.hooked, serverEvent{id, e, now})
	fl.hookMu.Unlock()
}

// detectWindows and verdictWindows are how many time windows the
// traced run's open-loop detection and verdict latencies are split into
// (see metrics.windowPct). Verdicts, one per session, get fewer windows, so
// each window still holds a few dozen of them.
const (
	detectWindows  = 5
	verdictWindows = 3
)

// phase is one timed stretch of fleet load.
type phase struct {
	sessions []*session
	start    time.Time
	// dur is the phase's planned length; wall and cpu are what it took
	// on the wall and process CPU clocks, its last sessions included.
	dur, wall, cpu time.Duration
	// lags is each open-loop batch's send lateness; sendBusy the time
	// connections spent inside Client.Send.
	lags     []time.Duration
	sendBusy time.Duration
	before   fleet.Stats
	after    fleet.Stats
}

// framesVerdicted sums the frames the server reported checking in
// sessions that reached a verdict.
func (p *phase) framesVerdicted() uint64 {
	var n uint64
	for _, s := range p.sessions {
		if s.verdict != nil {
			n += s.verdict.FramesIngested
		}
	}
	return n
}

// openSlices is how many slices the untraced run's open loop is cut
// into, and tracedSlices how many the traced run's closed loop is.
const (
	openSlices   = 12
	tracedSlices = 6
)

// sliceRates returns each phase's verdicted frames per wall second.
func sliceRates(ps []*phase) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = float64(p.framesVerdicted()) / p.wall.Seconds()
	}
	return out
}

// sliceCPU returns each phase's process CPU nanoseconds per verdicted
// frame.
func sliceCPU(ps []*phase) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = float64(p.cpu) / float64(p.framesVerdicted())
	}
	return out
}

// run churns sessions on every connection until dur has passed, then
// lets each connection finish the session it is in. rate > 0 is an
// open loop at that aggregate frame rate; rate == 0 a closed loop in
// which each connection sends as fast as the server's acks allow.
// Connection c plays captures c, c+conns, c+2·conns, … of the mix, so
// the session sequence is fixed by the seed. next holds each
// connection's position in that sequence across phases.
func (fl *fleetLoad) run(srv *fleet.Server, rate float64, dur time.Duration, next []int) *phase {
	sw := startWatch()
	start := sw.wall
	p := &phase{start: start, dur: dur, before: srv.Stats()}
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < fl.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var pc *pacer
			if rate > 0 {
				pc = &pacer{start: start, rate: rate / float64(fl.conns)}
			}
			var sessions []*session
			var lags []time.Duration
			var busy time.Duration
			for first := true; first || time.Now().Before(deadline); first = false {
				li := (next[c]*fl.conns + c) % len(fl.caps)
				next[c]++
				s := fl.session(c, li, pc, &lags, &busy)
				sessions = append(sessions, s)
			}
			mu.Lock()
			p.sessions = append(p.sessions, sessions...)
			p.lags = append(p.lags, lags...)
			p.sendBusy += busy
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p.wall, p.cpu = sw.elapsed()
	p.after = srv.Stats()
	return p
}

// session plays capture li as one vehicle session on connection conn.
func (fl *fleetLoad) session(conn, li int, pc *pacer, lags *[]time.Duration, busy *time.Duration) *session {
	s := &session{log: li, frames: len(fl.caps[li].frames)}
	trace := fl.tr.id()
	t0 := time.Now()
	c, err := fleet.DialOptions(fl.addr, fleet.Options{
		Vehicle: fmt.Sprintf("vehicle-%d", conn),
		Spec:    fl.spec,
		OnEvent: s.onEvent,
		Seed:    int64(conn + 1),
	})
	s.hello = time.Since(t0)
	fl.tr.record("fleet.dial", 0, trace, trace, t0, 0)
	if err != nil {
		s.err = fmt.Errorf("dial: %w", err)
		return s
	}
	defer c.Close()
	s.id = c.Session()
	for _, b := range fl.batches[li] {
		if pc != nil {
			due := pc.next(len(b))
			if w := time.Until(due); w > 0 {
				time.Sleep(w)
			}
			s.sched = append(s.sched, due)
			*lags = append(*lags, lateness(due, time.Now()))
		}
		ts := time.Now()
		err := c.Send(b)
		*busy += time.Since(ts)
		fl.tr.record("fleet.send", 0, trace, trace, ts, int64(len(b)))
		if err != nil {
			s.err = fmt.Errorf("send: %w", err)
			return s
		}
	}
	tf := time.Now()
	v, err := c.Finish()
	s.finish = time.Since(tf)
	s.finishAt = tf
	fl.tr.record("fleet.finish", 0, trace, trace, tf, int64(s.frames))
	fl.tr.record("fleet.session", trace, 0, trace, t0, int64(s.frames))
	s.verdict, s.err = v, err
	if fl.exps != nil {
		s.err = checkSession(s, fl.exps[li])
		if !fl.keepEvents {
			s.mu.Lock()
			s.events = nil
			s.mu.Unlock()
		}
	}
	return s
}

// checkSession compares a session's verdict and begin events with the
// oracle's prediction for its capture under the strict spec.
func checkSession(s *session, exp expectation) error {
	if s.err != nil {
		return s.err
	}
	v := s.verdict
	if v.FramesIngested != uint64(s.frames) || v.FramesDropped != 0 || v.FramesRejected != 0 {
		return fmt.Errorf("session %d: frames ingested/dropped/rejected %d/%d/%d of %d",
			s.id, v.FramesIngested, v.FramesDropped, v.FramesRejected, s.frames)
	}
	if !slices.Equal(v.Rules, exp.strictRules) {
		return fmt.Errorf("session %d: verdict %+v, oracle %+v", s.id, v.Rules, exp.strictRules)
	}
	var begins []beginKey
	for _, r := range s.received() {
		if r.e.Kind == wire.EventBegin {
			begins = append(begins, beginKey{r.e.Rule, r.e.Time})
		}
	}
	sortBegins(begins)
	if !slices.Equal(begins, exp.begins) {
		return fmt.Errorf("session %d: %d begin events, oracle %d (or they differ)", s.id, len(begins), len(exp.begins))
	}
	return nil
}

// fleetWorkload is fleet-live, or fleet-canary when canary is set.
type fleetWorkload struct {
	canary bool
	rate   float64
	seed   int64

	caps []capture
	rig  *fleetRig
	load *fleetLoad
}

func (w *fleetWorkload) setup(dir string) error {
	caps, err := generateAll(fleetMix(w.seed, fleetLogs))
	if err != nil {
		return err
	}
	w.caps = caps
	w.load = &fleetLoad{caps: caps, conns: fleetConns()}
	for _, c := range caps {
		w.load.batches = append(w.load.batches, splitBatches(c.frames))
	}
	w.rig, err = startRig(dir, w.load.onServerEvent)
	if err != nil {
		return err
	}
	w.load.addr = w.rig.addr
	if w.canary {
		if err := w.rig.srv.BeginShadow("relaxed", rules.RelaxedSource); err != nil {
			return errors.Join(err, w.rig.close())
		}
	}
	return nil
}

func (w *fleetWorkload) teardown() error { return w.rig.close() }

func (w *fleetWorkload) measure(o *oracle, seconds int, tr *tracer) (*outcome, error) {
	out := &outcome{}
	exps, err := expectAll(o, w.caps, w.canary)
	if err != nil {
		return nil, err
	}
	w.load.exps = exps
	next := make([]int, w.load.conns)
	// Warm-up: one closed-loop session per connection compiles the
	// spec, fills the pools and opens the first archive segment.
	warm := w.load.run(w.rig.srv, 0, 0, next)

	total := time.Duration(seconds) * time.Second
	heap := startHeapSampler()
	gc0 := readGC()
	var open *phase
	var timed, closed, closedTraced []*phase
	var heaps []float64 // peak live heap per open-loop slice
	if tr == nil {
		// The untraced run is an open loop at the workload's fixed rate,
		// cut into slices; cpu_ns_per_frame is the median slice's, so one
		// disturbed stretch moves it by at most a slice's worth. At a
		// fixed offered load the server does the same work however fast
		// the machine runs that minute, so its CPU cost per frame and its
		// live heap repeat where a closed loop's would follow the
		// machine's speed.
		for i := 0; i < openSlices; i++ {
			timed = append(timed, w.load.run(w.rig.srv, w.rate, total/openSlices, next))
			heaps = append(heaps, heap.lap())
		}
	} else {
		// A traced run spends its first half in one open loop, where the
		// latencies are measured with the tracer and the server's event
		// hook on, then runs a closed loop in slices, alternating
		// untraced and traced ones, so the tracing overhead is measured
		// on the same server at the same point in the run.
		w.load.tr = tr
		w.load.hookOn.Store(true)
		w.load.keepEvents = true
		open = w.load.run(w.rig.srv, w.rate, total/2, next)
		w.load.keepEvents = false
		w.load.hookOn.Store(false)
		timed = []*phase{open}
		slice := (total - total/2) / tracedSlices
		for i := 0; i < tracedSlices; i++ {
			if i%2 == 1 {
				w.load.tr = tr
				closedTraced = append(closedTraced, w.load.run(w.rig.srv, 0, slice, next))
			} else {
				w.load.tr = nil
				closed = append(closed, w.load.run(w.rig.srv, 0, slice, next))
			}
		}
		w.load.tr = nil
		timed = append(append(timed, closed...), closedTraced...)
	}
	heap.finish()
	gcDelta := readGC().sub(gc0)

	phases := append([]*phase{warm}, timed...)
	var all []*session
	for _, p := range phases {
		all = append(all, p.sessions...)
	}
	for _, s := range all {
		out.attempted++
		if s.err != nil {
			out.fail(s.err)
		}
	}
	if w.canary {
		// Every session of the run is shadowed from its first batch, so
		// the server's shadow counters must equal the oracle's
		// per-batch strict-vs-relaxed comparison summed over them.
		var wantB, wantDB, wantD uint64
		for _, s := range all {
			wantB += exps[s.log].batches
			wantDB += exps[s.log].divergentBatches
			wantD += exps[s.log].divergences
		}
		first, last := phases[0].before, w.rig.srv.Stats()
		gotB := last.ShadowBatches - first.ShadowBatches
		gotDB := last.ShadowDivergentBatches - first.ShadowDivergentBatches
		gotD := last.ShadowDivergences - first.ShadowDivergences
		if gotB != wantB || gotDB != wantDB || gotD != wantD {
			// Server-wide counters cannot name the session that
			// diverged, so every session of the run counts as failed.
			out.failAll(fmt.Errorf("shadow batches/divergent/divergences %d/%d/%d, oracle %d/%d/%d",
				gotB, gotDB, gotD, wantB, wantDB, wantD))
		}
	}

	// End-to-end metrics. The runtime deltas span every phase after the
	// warm-up, so all their frames count.
	if tr == nil {
		out.cpuPerFrame = median(sliceCPU(timed))
		out.peakHeapMB = median(heaps)
		out.wallFPS = median(sliceRates(timed))
	} else {
		out.wallFPS = median(sliceRates(closed))
	}
	for _, p := range timed {
		out.frames += p.framesVerdicted()
	}
	out.gc = gcDelta

	if tr != nil {
		w.pathMetrics(out, o, open, closed, closedTraced)
	}
	return out, nil
}

// pathMetrics derives the fleet, generator and wire per-layer metrics
// of a traced run.
func (w *fleetWorkload) pathMetrics(out *outcome, o *oracle, open *phase, closed, traced []*phase) {
	lm := newMetrics()
	out.layers = lm
	// Open-loop latencies, the vehicle's view: detection from the
	// scheduled send of the deciding batch to receipt of the begin, and
	// verdict from the Finish call to the verdict in hand.
	detect := make([][]float64, detectWindows)
	verdict := make([][]float64, verdictWindows)
	for _, s := range open.sessions {
		if s.err != nil {
			continue
		}
		wv := window(open.start, s.finishAt, open.dur, verdictWindows)
		verdict[wv] = append(verdict[wv], ms(s.finish))
		batches := w.load.batches[s.log]
		for _, r := range s.received() {
			if r.e.Kind != wire.EventBegin {
				continue
			}
			if d, ok := detectLatency(batches, s.sched, r.e.Time+o.horizon[r.e.Rule], r.at); ok {
				wd := window(open.start, r.at, open.dur, detectWindows)
				detect[wd] = append(detect[wd], ms(d))
			}
		}
	}
	lm.windowPct("fleet.detect_p50_ms", "ms", detect, 0.5)
	lm.windowPct("fleet.detect_p90_ms", "ms", detect, 0.9)
	lm.windowPct("fleet.verdict_p50_ms", "ms", verdict, 0.5)
	lags := durationsMS(open.lags)
	lm.pct("gen.lag_p50_ms", "ms", lags, 0.5)
	lm.pct("gen.lag_p90_ms", "ms", lags, 0.9)
	var busy, wall time.Duration
	for _, p := range traced {
		busy += p.sendBusy
		wall += p.wall * time.Duration(w.load.conns)
	}
	lm.set("gen.send_blocked_frac", "ratio", busy.Seconds()/wall.Seconds())
	out.traceOverhead = 1 - median(sliceCPU(closed))/median(sliceCPU(traced))

	var hello []float64
	byID := make(map[uint64]*session)
	for _, p := range append([]*phase{open}, traced...) {
		for _, s := range p.sessions {
			hello = append(hello, ms(s.hello))
		}
	}
	for _, s := range open.sessions {
		byID[s.id] = s
	}
	lm.pct("fleet.hello_ms_p50", "ms", hello, 0.5)

	// Server-side begin events: emission lag from the schedule, and
	// delivery time to the vehicle.
	type key struct {
		id   uint64
		rule string
		at   time.Duration
	}
	recv := make(map[key]time.Time)
	for _, s := range open.sessions {
		for _, r := range s.received() {
			if r.e.Kind == wire.EventBegin {
				recv[key{s.id, r.e.Rule, r.e.Time}] = r.at
			}
		}
	}
	var emit, deliver []float64
	w.load.hookMu.Lock()
	hooked := w.load.hooked
	w.load.hookMu.Unlock()
	for _, h := range hooked {
		s := byID[h.session]
		if s == nil {
			continue
		}
		if d, ok := detectLatency(w.load.batches[s.log], s.sched, h.e.Time+o.horizon[h.e.Rule], h.at); ok {
			emit = append(emit, ms(d))
		}
		if at, ok := recv[key{h.session, h.e.Rule, h.e.Time}]; ok {
			deliver = append(deliver, ms(at.Sub(h.at)))
		}
	}
	lm.pct("fleet.emit_lag_ms_p50", "ms", emit, 0.5)

	d := open.after
	b := open.before
	ingestBatches := d.IngestBatches - b.IngestBatches
	lm.set("fleet.ingest_ms_per_batch", "ms", float64(d.IngestNanos-b.IngestNanos)/float64(max(ingestBatches, 1))/1e6)
	lm.set("fleet.frames_per_batch", "frames", float64(d.FramesIngested-b.FramesIngested)/float64(max(ingestBatches, 1)))
	first := open.before
	last := w.rig.srv.Stats()
	lm.set("fleet.batches_blocked", "count", float64(last.BatchesBlocked-first.BatchesBlocked))
	sb := last.ShadowBatches - first.ShadowBatches
	lm.set("fleet.shadow_batches", "count", float64(sb))
	lm.set("fleet.shadow_divergent_frac", "ratio", float64(last.ShadowDivergentBatches-first.ShadowDivergentBatches)/float64(max(sb, 1)))
	lm.pct("wire.deliver_ms_p50", "ms", deliver, 0.5)
	out.reg = w.rig.srv.Registry()
}
