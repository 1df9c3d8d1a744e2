package speclang

import (
	"fmt"
	"math"
	"time"
)

// StreamChecker evaluates a compiled rule set online: aligned steps are
// pushed one at a time and violation events come back with a delay
// bounded by each rule's temporal horizon. It produces exactly the
// violations the offline Eval produces over the same step sequence.
type StreamChecker struct {
	period time.Duration
	names  []string
	index  map[string]int
	rules  []*ruleStream
	steps  int
	done   bool

	// ctx and evbuf are reused across Step calls so a steady-state step
	// performs no allocation.
	ctx   stepCtx
	evbuf []Event

	// ruleNanos, while armed by TimeRules, accumulates the wall-clock
	// nanoseconds each rule spends inside Step, by rule index in
	// rule-set order. Nil (the default) means Step reads no clock.
	ruleNanos []int64
}

// TimeRules arms per-rule step timing: every subsequent Step adds each
// rule's evaluation nanoseconds to acc[i], i being the rule's index in
// rule-set order. acc must hold at least one slot per rule; the caller
// owns it and resets it as it sees fit. Pass nil to disarm — an
// unarmed Step performs no clock read, so timing costs nothing on the
// steps nobody samples.
func (sc *StreamChecker) TimeRules(acc []int64) {
	if acc == nil {
		sc.ruleNanos = nil
		return
	}
	sc.ruleNanos = acc[:len(sc.rules)]
}

// NumRules returns the number of rules Step evaluates; TimeRules needs
// an accumulator at least this long.
func (sc *StreamChecker) NumRules() int { return len(sc.rules) }

// NewStreamChecker builds an online checker over the given signal
// universe (names index the value slices passed to Step).
func (rs *RuleSet) NewStreamChecker(signals []string, period time.Duration, opts EvalOptions) (*StreamChecker, error) {
	if period <= 0 {
		return nil, fmt.Errorf("speclang: non-positive stream period %v", period)
	}
	sc := &StreamChecker{
		period: period,
		names:  append([]string(nil), signals...),
		index:  make(map[string]int, len(signals)),
	}
	for i, n := range signals {
		sc.index[n] = i
	}
	for _, r := range rs.rules {
		st, err := newRuleStream(r, sc.index, period, opts)
		if err != nil {
			return nil, err
		}
		sc.rules = append(sc.rules, st)
	}
	return sc, nil
}

// Signals returns the signal order expected by Step.
func (sc *StreamChecker) Signals() []string {
	out := make([]string, len(sc.names))
	copy(out, sc.names)
	return out
}

// Step pushes one aligned step: vals holds the held signal values in
// the checker's signal order, upd the per-signal freshness bits. It
// returns any events that became decidable. The returned slice is a
// scratch buffer owned by the checker: it is valid only until the next
// Step or Finish call, so callers that retain events across steps must
// copy them out.
func (sc *StreamChecker) Step(vals []float64, upd []bool) ([]Event, error) {
	if sc.done {
		return nil, fmt.Errorf("speclang: Step after Finish")
	}
	if len(vals) != len(sc.names) || len(upd) != len(sc.names) {
		return nil, fmt.Errorf("speclang: step carries %d/%d entries, want %d", len(vals), len(upd), len(sc.names))
	}
	sc.ctx.vals, sc.ctx.upd = vals, upd
	events := sc.evbuf[:0]
	if sc.ruleNanos == nil {
		for _, r := range sc.rules {
			events = r.step(&sc.ctx, events)
		}
	} else {
		for i, r := range sc.rules {
			t0 := time.Now()
			events = r.step(&sc.ctx, events)
			sc.ruleNanos[i] += int64(time.Since(t0))
		}
	}
	sc.ctx.vals, sc.ctx.upd = nil, nil
	sc.evbuf = events
	sc.steps++
	return events, nil
}

// Finish drains every rule's pipeline, closes open violations at the
// end of the trace, and returns the remaining events. The checker
// cannot be used afterwards.
func (sc *StreamChecker) Finish() ([]Event, error) {
	if sc.done {
		return nil, fmt.Errorf("speclang: Finish called twice")
	}
	sc.done = true
	var events []Event
	for _, r := range sc.rules {
		events = r.finish(sc.steps, events)
	}
	return events, nil
}

func newRuleStream(r *Rule, signals map[string]int, period time.Duration, opts EvalOptions) (*ruleStream, error) {
	rs := &ruleStream{rule: r, period: period}

	var lets []Let
	var warmups []Warmup
	var severity Expr
	if r.Kind == KindSpec {
		lets, warmups, severity = r.spec.Lets, r.spec.Warmups, r.spec.Severity
	} else {
		lets, warmups, severity = r.monitor.Lets, r.monitor.Warmups, r.monitor.Severity
	}
	b := &streamBuilder{
		signals: signals,
		consts:  r.consts,
		lets:    make(map[string]Expr, len(lets)),
		mode:    opts.DeltaMode,
		period:  period,
	}
	for _, l := range lets {
		b.lets[l.Name] = l.X
	}

	if r.Kind == KindSpec {
		for i, a := range r.spec.Asserts {
			s, err := b.build(a)
			if err != nil {
				return nil, err
			}
			line, _ := a.Pos()
			rs.asserts = append(rs.asserts, s)
			rs.msgs = append(rs.msgs, fmt.Sprintf("assert #%d (line %d) failed", i+1, line))
		}
		rs.assertQs = make([]ring[float64], len(rs.asserts))
	} else {
		ms, err := newMachineStream(b, r.monitor, r.initial, period)
		if err != nil {
			return nil, err
		}
		rs.machine = ms
	}

	if severity != nil {
		s, err := b.build(severity)
		if err != nil {
			return nil, err
		}
		rs.severity = s
	}
	for _, w := range warmups {
		ws := &warmupStream{window: int(w.Window / period)}
		if ws.window < 1 {
			ws.window = 1
		}
		if w.On != nil {
			s, err := b.build(w.On)
			if err != nil {
				return nil, err
			}
			ws.on = s
		}
		rs.warmups = append(rs.warmups, ws)
	}
	return rs, nil
}

// step pushes one input step through every constituent stream and
// assembles as many rule-output steps as became decidable, appending
// their events to events.
func (rs *ruleStream) step(ctx *stepCtx, events []Event) []Event {
	if rs.machine != nil {
		if mark, ok := rs.machine.push(ctx); ok {
			rs.markQ.push(mark)
		}
	} else {
		for i, a := range rs.asserts {
			if o, ok := a.step(ctx); ok {
				rs.assertQs[i].push(o.val)
			}
		}
		rs.assembleSpecMarks()
	}
	if rs.severity != nil {
		if o, ok := rs.severity.step(ctx); ok {
			rs.sevQ.push(o.val)
		}
	}
	for _, w := range rs.warmups {
		if w.on != nil {
			if o, ok := w.on.step(ctx); ok {
				w.onQ.push(o.val)
			}
		}
	}
	return rs.assemble(false, 0, events)
}

// assembleSpecMarks merges per-assert outputs into marks once every
// assert has one.
func (rs *ruleStream) assembleSpecMarks() {
	for {
		for i := range rs.assertQs {
			if rs.assertQs[i].len() == 0 {
				return
			}
		}
		mark := ""
		for i := range rs.assertQs {
			v := rs.assertQs[i].pop()
			if mark == "" && !truthy(v) {
				mark = rs.msgs[i]
			}
		}
		rs.markQ.push(mark)
	}
}

// assemble consumes aligned (mark, severity, warmup) tuples and
// maintains the open-violation state, appending decided events to
// events. When finishing, endAt closes any open interval at that step.
func (rs *ruleStream) assemble(finishing bool, endAt int, events []Event) []Event {
	for rs.markQ.len() > 0 {
		if rs.severity != nil && rs.sevQ.len() == 0 {
			break
		}
		ready := true
		for _, w := range rs.warmups {
			if !w.ready() {
				ready = false
				break
			}
		}
		if !ready {
			break
		}
		mark := rs.markQ.pop()
		sev := 0.0
		if rs.severity != nil {
			sev = rs.sevQ.pop()
		}
		suppressed := false
		for _, w := range rs.warmups {
			if w.maskNext() {
				suppressed = true
			}
		}
		t := rs.outStep
		rs.outStep++

		bad := mark != "" && !suppressed
		if !bad {
			if rs.open {
				events = append(events, rs.close(t))
			}
			continue
		}
		if !rs.open {
			rs.open = true
			rs.openStart = t
			rs.openMsg = mark
			rs.peak = 0
			events = append(events, Event{
				Rule: rs.rule.Name,
				Kind: ViolationBegin,
				Time: time.Duration(t) * rs.period,
			})
		}
		if rs.severity != nil {
			a := math.Abs(sev)
			if math.IsNaN(a) {
				a = math.Inf(1)
			}
			if a > rs.peak {
				rs.peak = a
			}
		}
	}
	if finishing && rs.open {
		events = append(events, rs.close(endAt))
	}
	return events
}

// close ends the open violation exclusively at step end.
func (rs *ruleStream) close(end int) Event {
	rs.open = false
	return Event{
		Rule: rs.rule.Name,
		Kind: ViolationEnd,
		Time: time.Duration(end) * rs.period,
		Violation: Violation{
			StartStep: rs.openStart,
			EndStep:   end,
			Start:     time.Duration(rs.openStart) * rs.period,
			End:       time.Duration(end) * rs.period,
			Peak:      rs.peak,
			Msg:       rs.openMsg,
		},
	}
}

// finish drains every stream and closes the rule at totalSteps,
// appending the remaining events to events.
func (rs *ruleStream) finish(totalSteps int, events []Event) []Event {
	if rs.machine != nil {
		for _, mark := range rs.machine.drainAll() {
			rs.markQ.push(mark)
		}
	} else {
		for i, a := range rs.asserts {
			for _, o := range a.drain() {
				rs.assertQs[i].push(o.val)
			}
		}
		rs.assembleSpecMarks()
	}
	if rs.severity != nil {
		for _, o := range rs.severity.drain() {
			rs.sevQ.push(o.val)
		}
	}
	for _, w := range rs.warmups {
		if w.on != nil {
			for _, o := range w.on.drain() {
				w.onQ.push(o.val)
			}
		}
	}
	return rs.assemble(true, totalSteps, events)
}
