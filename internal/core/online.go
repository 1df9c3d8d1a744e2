package core

import (
	"fmt"
	"math"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
)

// OnlineEvent is one incremental oracle notification: a violation
// opening or closing, delivered a bounded number of steps after the
// fact (the rule's temporal horizon).
type OnlineEvent struct {
	// Rule is the reporting rule.
	Rule string
	// Kind is speclang.ViolationBegin or speclang.ViolationEnd.
	Kind speclang.EventKind
	// Time is the violation start (Begin) or exclusive end (End).
	Time time.Duration
	// Violation is the completed record, set on ViolationEnd.
	Violation speclang.Violation
	// Class is the triage classification, set on ViolationEnd.
	Class Class
}

// OnlineMonitor is the runtime variant of the bolt-on oracle: CAN
// frames are pushed as they are captured and violation events come back
// incrementally with bounded memory and latency. The paper ran offline
// for flexibility but notes "there is no fundamental reason the
// monitoring could not be done at runtime"; this is that path, and it
// produces byte-for-byte the same violations as CheckLog.
//
// The steady-state frame→verdict path is allocation-free: frames
// decode through a compiled sigdb.DecodePlan straight into the latched
// value vector, and events are assembled in a scratch buffer reused
// across calls.
type OnlineMonitor struct {
	plan   *sigdb.DecodePlan
	period time.Duration
	triage map[string]Triage
	sc     *speclang.StreamChecker

	names []string

	latched []float64
	updated []bool

	// events is the scratch buffer returned by PushFrame, PushFrames
	// and Close; see the event-lifetime contract on PushFrame.
	events []OnlineEvent

	pending  int           // the step currently accumulating frames
	lastTime time.Duration // time of the newest accepted frame
	sawFrame bool
	closed   bool

	// met, when non-nil, receives frame/step/event accounting; see
	// Instrument. The session counts into cnt with plain increments and
	// flush publishes the counts once per push, so the shared atomics
	// see one update per push rather than one per frame, step and event.
	met *Metrics
	cnt counts

	// Stage-timing state (see stagetiming.go): timing is armed per
	// sampled batch by BeginStageTiming; the accumulators attribute the
	// batch's wall time to decode vs evaluation and, through the
	// checker's armed per-rule accumulator stepNanos, to each rule.
	timing      bool
	decodeNanos int64
	evalNanos   int64
	ruleNanos   []int64
	stepNanos   []int64
}

// counts is a session's not-yet-published metric accounting.
type counts struct {
	decoded, stale, steps, events uint64
	// violations is indexed like Metrics.ruleViolations; nil unless
	// the session is instrumented.
	violations []uint64
}

// Online creates a streaming session of this monitor over the given
// signal database.
func (m *Monitor) Online(db *sigdb.DB) (*OnlineMonitor, error) {
	names := db.SignalNames()
	sc, err := m.rules.NewStreamChecker(names, m.period, speclang.EvalOptions{DeltaMode: m.mode})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	plan, err := db.CompilePlan(names)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	o := &OnlineMonitor{
		plan:    plan,
		period:  m.period,
		triage:  m.triage,
		sc:      sc,
		names:   names,
		latched: make([]float64, len(names)),
		updated: make([]bool, len(names)),
	}
	for i := range o.latched {
		o.latched[i] = math.NaN() // not yet valid, as offline alignment
	}
	return o, nil
}

// PushFrame feeds one captured frame. Frames must arrive in
// non-decreasing time order: a frame whose timestamp equals the
// previous frame's is accepted (broadcast buses deliver many frames in
// the same capture instant), while a frame with a strictly earlier
// timestamp is rejected with an error. A rejection leaves the monitor's
// state untouched — no step is finalized and no signal latches — so the
// caller may drop the offending frame and keep pushing; the session
// remains valid. Frames with IDs outside the database are ignored, as a
// passive listener ignores foreign traffic.
//
// Event lifetime: the returned slice is a scratch buffer owned by the
// monitor and is valid only until the next PushFrame, PushFrames or
// Close call. Callers that retain events across pushes must copy the
// elements out (appending them to another slice suffices).
func (o *OnlineMonitor) PushFrame(f can.Frame) ([]OnlineEvent, error) {
	if o.closed {
		return nil, fmt.Errorf("core: PushFrame after Close")
	}
	if o.sawFrame && f.Time < o.lastTime {
		return nil, fmt.Errorf("core: out-of-order frame at %v after %v", f.Time, o.lastTime)
	}
	o.events = o.events[:0]
	err := o.push(f)
	o.flush()
	if err != nil {
		return nil, err
	}
	return o.events, nil
}

// PushFrames feeds a whole batch of captured frames in one call,
// amortizing per-call overhead — the fleet ingest path hands entire
// wire batches here. Unlike PushFrame, a frame whose timestamp
// regresses is skipped and counted in rejected rather than failing the
// batch, mirroring the drop-and-continue recovery the PushFrame
// contract allows; the monitor's state is untouched by skipped frames.
// The returned events cover the whole batch in stream order and obey
// the same scratch-buffer lifetime as PushFrame.
func (o *OnlineMonitor) PushFrames(frames []can.Frame) (events []OnlineEvent, rejected int, err error) {
	if o.closed {
		return nil, 0, fmt.Errorf("core: PushFrames after Close")
	}
	o.events = o.events[:0]
	defer o.flush()
	for _, f := range frames {
		if o.sawFrame && f.Time < o.lastTime {
			rejected++
			o.cnt.stale++
			continue
		}
		if err := o.push(f); err != nil {
			return nil, rejected, err
		}
	}
	return o.events, rejected, nil
}

// push feeds one in-order frame, appending decided events to the
// scratch buffer.
func (o *OnlineMonitor) push(f can.Frame) error {
	dst, ok := o.plan.Dst(f.ID)
	if !ok {
		return nil
	}
	o.cnt.decoded++
	o.sawFrame = true
	o.lastTime = f.Time

	// The frame belongs to the step whose window (stepTime-period,
	// stepTime] contains its timestamp.
	k := int((f.Time + o.period - 1) / o.period)

	// Finalize every step strictly before k.
	for o.pending < k {
		if err := o.finalizeStep(); err != nil {
			return err
		}
	}

	// Decode straight into the latched vector: no map, no hashing.
	if o.timing {
		t0 := time.Now()
		_, err := o.plan.UnpackInto(f.ID, f.Data, o.latched)
		o.decodeNanos += int64(time.Since(t0))
		if err != nil {
			return err
		}
	} else if _, err := o.plan.UnpackInto(f.ID, f.Data, o.latched); err != nil {
		return err
	}
	for _, di := range dst {
		o.updated[di] = true
	}
	return nil
}

// finalizeStep pushes the pending step into the checker and converts
// its events into the scratch buffer.
func (o *OnlineMonitor) finalizeStep() error {
	var evs []speclang.Event
	var err error
	if o.timing {
		evs, err = o.timedStep()
	} else {
		evs, err = o.sc.Step(o.latched, o.updated)
	}
	o.cnt.steps++
	if err != nil {
		return err
	}
	for i := range o.updated {
		o.updated[i] = false
	}
	o.pending++
	o.convert(evs)
	return nil
}

// Close finalizes the trace — steps up to the last frame's grid slot,
// exactly the steps the offline alignment evaluates — drains every
// rule, and returns the remaining events. The returned slice obeys the
// same scratch-buffer lifetime as PushFrame (no further calls can
// invalidate it, but it shares storage with previously returned
// slices).
func (o *OnlineMonitor) Close() ([]OnlineEvent, error) {
	if o.closed {
		return nil, fmt.Errorf("core: Close called twice")
	}
	o.events = o.events[:0]
	defer o.flush()
	last := int(o.lastTime / o.period) // floor: trailing partial-step frames fall outside the grid
	for o.pending <= last {
		if err := o.finalizeStep(); err != nil {
			return nil, err
		}
	}
	o.closed = true
	evs, err := o.sc.Finish()
	if err != nil {
		return nil, err
	}
	o.convert(evs)
	return o.events, nil
}

// convert appends checker events to the monitor's scratch buffer,
// attaching triage classes to closed violations.
func (o *OnlineMonitor) convert(evs []speclang.Event) {
	for _, e := range evs {
		oe := OnlineEvent{Rule: e.Rule, Kind: e.Kind, Time: e.Time, Violation: e.Violation}
		if e.Kind == speclang.ViolationEnd {
			oe.Class = o.triage[e.Rule].Classify(e.Violation)
		}
		o.cnt.events++
		if o.met != nil && e.Kind == speclang.ViolationEnd {
			if i, ok := o.met.ruleIndex[e.Rule]; ok {
				o.cnt.violations[i]++
			}
		}
		o.events = append(o.events, oe)
	}
}
