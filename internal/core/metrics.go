package core

import (
	"cpsmon/internal/obs"
)

// stepLatencyBuckets spans 100ns to ~1.6s in powers of four: a single
// checker step is typically sub-microsecond, but a drain step over a
// long queue can stall behind the scheduler.
func stepLatencyBuckets() []float64 { return obs.ExpBuckets(100e-9, 4, 12) }

// RuleNames returns the monitor's rule names in rule-set order — the
// order the stream checker evaluates and the order NewMetrics expects.
func (m *Monitor) RuleNames() []string {
	var names []string
	for _, r := range m.rules.Rules() {
		names = append(names, r.Name)
	}
	return names
}

// Metrics instruments the streaming monitor on a shared obs registry:
// frame decode and staleness counters, event emission, whole-checker
// step latency, and per-rule step-latency histograms plus violation
// counters keyed by rule index (labelled with the rule name). One
// Metrics is built per (registry, spec) pair and shared by every
// OnlineMonitor evaluating that spec — the cells are atomic, so
// concurrent sessions aggregate safely.
//
// The counters are exact but published per push: each session counts
// in plain fields and flushes them once per PushFrame, PushFrames or
// Close return, so they equal ground truth whenever no push is in
// flight. The two latency histograms are sampled: they observe only
// the steps of batches bracketed by BeginStageTiming/EndStageTiming
// (the fleet times one batch in 64 by default), because timing every
// step would cost more than the steps themselves.
type Metrics struct {
	framesDecoded *obs.Counter
	framesStale   *obs.Counter
	events        *obs.Counter
	steps         *obs.Counter
	stepLatency   *obs.Histogram

	ruleStep       []*obs.Histogram
	ruleViolations []*obs.Counter
	ruleIndex      map[string]int
}

// NewMetrics registers the monitor metric families on reg. spec labels
// every series (the fleet server runs one compiled monitor per spec
// selection); ruleNames must be in rule-set order — the same order the
// stream checker evaluates, so rule index i of the per-rule timing
// accumulator and ruleNames[i] name the same rule. A nil registry
// returns nil, which Instrument treats as "not instrumented".
func NewMetrics(reg *obs.Registry, spec string, ruleNames []string) *Metrics {
	if reg == nil {
		return nil
	}
	specLabel := obs.Label{Name: "spec", Value: spec}
	m := &Metrics{
		framesDecoded: reg.Counter("cpsmon_monitor_frames_decoded_total",
			"Frames decoded into the latched signal vector.", specLabel),
		framesStale: reg.Counter("cpsmon_monitor_frames_stale_total",
			"Frames skipped by PushFrames for regressing in time.", specLabel),
		events: reg.Counter("cpsmon_monitor_events_total",
			"Oracle events emitted (violation begins and ends).", specLabel),
		steps: reg.Counter("cpsmon_monitor_steps_total",
			"Evaluation grid steps finalized.", specLabel),
		stepLatency: reg.Histogram("cpsmon_monitor_step_latency_seconds",
			"Whole-checker latency of one finalized grid step, observed on stage-timed (sampled) batches only.", stepLatencyBuckets(), specLabel),
		ruleIndex: make(map[string]int, len(ruleNames)),
	}
	for i, name := range ruleNames {
		ruleLabel := obs.Label{Name: "rule", Value: name}
		m.ruleStep = append(m.ruleStep, reg.Histogram("cpsmon_monitor_rule_step_latency_seconds",
			"Per-rule incremental evaluation latency per step, observed on stage-timed (sampled) batches only.", stepLatencyBuckets(), specLabel, ruleLabel))
		m.ruleViolations = append(m.ruleViolations, reg.Counter("cpsmon_monitor_rule_violations_total",
			"Closed violation intervals per rule.", specLabel, ruleLabel))
		m.ruleIndex[name] = i
	}
	return m
}

// Instrument attaches the metrics to this monitor session: frame,
// step, event and violation accounting, flushed once per push, plus
// step and per-rule latency observations on stage-timed batches. Pass
// nil to detach. Call it between pushes (counts pending from earlier
// pushes were already flushed or dropped); the updates it enables are
// allocation-free, preserving the hot path's zero-allocation contract.
func (o *OnlineMonitor) Instrument(m *Metrics) {
	o.met = m
	o.cnt.violations = nil
	if m != nil {
		o.cnt.violations = make([]uint64, len(m.ruleViolations))
	}
}

// flush publishes the session's pending counts to the shared metrics
// and zeroes them: one atomic add per nonzero count per push.
func (o *OnlineMonitor) flush() {
	c := &o.cnt
	if m := o.met; m != nil {
		addNonzero(m.framesDecoded, c.decoded)
		addNonzero(m.framesStale, c.stale)
		addNonzero(m.steps, c.steps)
		addNonzero(m.events, c.events)
		for i, n := range c.violations {
			if n != 0 {
				m.ruleViolations[i].Add(n)
				c.violations[i] = 0
			}
		}
	}
	c.decoded, c.stale, c.steps, c.events = 0, 0, 0, 0
}

func addNonzero(c *obs.Counter, n uint64) {
	if n != 0 {
		c.Add(n)
	}
}
