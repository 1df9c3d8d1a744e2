package core

import (
	"time"

	"cpsmon/internal/speclang"
)

// Stage timing: the one per-rule timing path. The fleet ingest path
// samples batches; for a sampled batch it brackets the PushFrames call
// with BeginStageTiming/EndStageTiming and reads back how the batch's
// wall time split between frame decode and rule evaluation, plus a
// per-rule evaluation breakdown. The same per-step timings feed the
// instrumented session's step and per-rule latency histograms, so
// those histograms hold observations from sampled batches only.
//
// The design keeps core free of any flight-recorder dependency (the
// engine stays a pure library; the caller owns where the numbers go)
// and keeps the unsampled hot path untouched: timing is a plain bool
// checked per frame and per step, an unsampled step reads no clock at
// all, and Begin/End allocate nothing, so the pinned zero-allocation
// PushFrame contract holds with timing both off and on.

// EnableStageTiming is kept so callers written against the earlier
// API still compile: BeginStageTiming sizes the per-rule accumulator
// itself, so there is nothing left to enable.
//
// Deprecated: BeginStageTiming works on any session.
func (o *OnlineMonitor) EnableStageTiming(nRules int) {}

// BeginStageTiming starts attribution for the next batch: subsequent
// pushes accumulate decode, evaluation and per-rule time until
// EndStageTiming, and an instrumented session observes each step's
// latency into its step and per-rule histograms. Allocation-free after
// the session's first call, which sizes the per-rule accumulators —
// sessions never stage-timed (offline replays, recheck) never pay for
// them.
func (o *OnlineMonitor) BeginStageTiming() {
	if o.ruleNanos == nil {
		n := o.sc.NumRules()
		buf := make([]int64, 2*n)
		o.ruleNanos, o.stepNanos = buf[:n:n], buf[n:]
	}
	o.timing = true
	o.decodeNanos = 0
	o.evalNanos = 0
	for i := range o.ruleNanos {
		o.ruleNanos[i] = 0
		o.stepNanos[i] = 0
	}
	o.sc.TimeRules(o.stepNanos)
}

// EndStageTiming stops attribution and returns the batch's accumulated
// decode and evaluation nanoseconds plus the per-rule evaluation
// breakdown in rule-set order (nil before the session's first
// BeginStageTiming). The returned slice is the session's
// internal accumulator, valid only until the next BeginStageTiming —
// copy out values that must survive.
func (o *OnlineMonitor) EndStageTiming() (decodeNanos, evalNanos int64, perRule []int64) {
	o.timing = false
	o.sc.TimeRules(nil)
	return o.decodeNanos, o.evalNanos, o.ruleNanos
}

// timedStep runs one checker step under stage timing: the whole step
// and each rule's share of it are added to the batch accumulators and,
// on an instrumented session, observed into the latency histograms.
func (o *OnlineMonitor) timedStep() ([]speclang.Event, error) {
	t0 := time.Now()
	evs, err := o.sc.Step(o.latched, o.updated)
	d := time.Since(t0)
	o.evalNanos += int64(d)
	m := o.met
	if m != nil {
		m.stepLatency.Observe(d.Seconds())
	}
	for i, n := range o.stepNanos {
		o.ruleNanos[i] += n
		o.stepNanos[i] = 0
		if m != nil && i < len(m.ruleStep) {
			m.ruleStep[i].Observe(float64(n) / 1e9)
		}
	}
	return evs, err
}
