package core

import (
	"testing"

	"cpsmon/internal/can"
	"cpsmon/internal/obs"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
)

// TestOnlinePushFrameAllocFreeInstrumented pins that attaching metrics
// does not regress the hot path's zero-allocation contract: the
// session's plain counts and their per-push flush to the shared
// atomics touch no heap.
func TestOnlinePushFrameAllocFreeInstrumented(t *testing.T) {
	log := buildLog(t, 4000, func(tick int, bus *can.Bus) {
		_ = bus.Set(sigdb.SigVelocity, 24)
		_ = bus.Set(sigdb.SigACCSetSpeed, 25)
	})
	m := testMonitor(t)
	om, err := m.Online(sigdb.Vehicle())
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	reg := obs.NewRegistry()
	om.Instrument(NewMetrics(reg, "strict", m.RuleNames()))
	frames := log.Frames()
	warm := 1000
	if len(frames) < warm+1500 {
		t.Fatalf("fixture too short: %d frames", len(frames))
	}
	for _, f := range frames[:warm] {
		if _, err := om.PushFrame(f); err != nil {
			t.Fatalf("PushFrame: %v", err)
		}
	}
	next := warm
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := om.PushFrame(frames[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("instrumented PushFrame allocates %.2f times per frame, want 0", allocs)
	}
}

// TestOnlineMetricsCounts checks the instrumented session's counters
// against ground truth computed from the same trace — frames decoded,
// steps finalized, events emitted and per-rule violation counts — after
// every push returns, since sessions flush their counts once per push.
// The latency histograms are sampled: they must hold exactly the steps
// of the stage-timed batches, one observation per rule per such step.
func TestOnlineMetricsCounts(t *testing.T) {
	log := buildLog(t, 400, func(tick int, bus *can.Bus) {
		_ = bus.Set(sigdb.SigVelocity, 24)
		_ = bus.Set(sigdb.SigACCSetSpeed, 25)
		if tick >= 100 && tick < 160 {
			_ = bus.Set(sigdb.SigServiceACC, 1)
			_ = bus.Set(sigdb.SigACCEnabled, 1)
		} else {
			_ = bus.Set(sigdb.SigServiceACC, 0)
			_ = bus.Set(sigdb.SigACCEnabled, 0)
		}
	})
	m := testMonitor(t)
	om, err := m.Online(sigdb.Vehicle())
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	reg := obs.NewRegistry()
	met := NewMetrics(reg, "strict", m.RuleNames())
	om.Instrument(met)

	var events []OnlineEvent
	var sampledSteps uint64
	check := func(when string, decoded int) {
		t.Helper()
		if got := met.framesDecoded.Value(); got != uint64(decoded) {
			t.Fatalf("%s: frames decoded = %d, want %d", when, got, decoded)
		}
		if got := met.steps.Value(); got != uint64(om.pending) {
			t.Fatalf("%s: steps = %d, want %d", when, got, om.pending)
		}
		if got := met.events.Value(); got != uint64(len(events)) {
			t.Fatalf("%s: events = %d, want %d", when, got, len(events))
		}
		wantViol := map[string]uint64{}
		for _, e := range events {
			if e.Kind == speclang.ViolationEnd {
				wantViol[e.Rule]++
			}
		}
		for rule, i := range met.ruleIndex {
			if got := met.ruleViolations[i].Value(); got != wantViol[rule] {
				t.Fatalf("%s: violations[%s] = %d, want %d", when, rule, got, wantViol[rule])
			}
		}
		if got := met.stepLatency.Count(); got != sampledSteps {
			t.Fatalf("%s: step latency count = %d, want %d sampled steps", when, got, sampledSteps)
		}
		for i := range met.ruleStep {
			if got := met.ruleStep[i].Count(); got != sampledSteps {
				t.Fatalf("%s: rule %d step observations = %d, want %d sampled steps", when, i, got, sampledSteps)
			}
		}
	}

	// Alternate single-frame pushes and batches, stage-timing every
	// third batch as the fleet's sampler would.
	frames := log.Frames()
	const batch = 40
	for b, pos := 0, 0; pos < len(frames); b++ {
		if b%2 == 0 {
			evs, err := om.PushFrame(frames[pos])
			if err != nil {
				t.Fatalf("PushFrame: %v", err)
			}
			events = append(events, evs...)
			pos++
			check("PushFrame", pos)
			continue
		}
		end := min(pos+batch, len(frames))
		sampled := b%3 == 0
		before := om.pending
		if sampled {
			om.BeginStageTiming()
		}
		evs, _, err := om.PushFrames(frames[pos:end])
		if err != nil {
			t.Fatalf("PushFrames: %v", err)
		}
		if sampled {
			om.EndStageTiming()
			sampledSteps += uint64(om.pending - before)
		}
		events = append(events, evs...)
		pos = end
		check("PushFrames", pos)
	}
	evs, err := om.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	events = append(events, evs...)
	check("Close", len(frames))

	if len(events) == 0 || met.events.Value() == 0 {
		t.Fatal("fixture produced no events")
	}
	var violations uint64
	for i := range met.ruleViolations {
		violations += met.ruleViolations[i].Value()
	}
	if violations == 0 {
		t.Fatal("fixture produced no violations")
	}
	if sampledSteps == 0 || sampledSteps >= met.steps.Value() {
		t.Fatalf("sampled steps = %d of %d; fixture must time some steps but not all", sampledSteps, met.steps.Value())
	}
}

// TestUnsampledPushesObserveNothing pins the sampling contract: an
// instrumented session that is never stage-timed keeps its counters
// exact but adds zero observations to the step and per-rule latency
// histograms.
func TestUnsampledPushesObserveNothing(t *testing.T) {
	log := buildLog(t, 200, func(tick int, bus *can.Bus) {
		_ = bus.Set(sigdb.SigVelocity, 24)
		_ = bus.Set(sigdb.SigACCSetSpeed, 25)
	})
	m := testMonitor(t)
	om, err := m.Online(sigdb.Vehicle())
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	met := NewMetrics(obs.NewRegistry(), "strict", m.RuleNames())
	om.Instrument(met)
	frames := log.Frames()
	if _, _, err := om.PushFrames(frames[:len(frames)/2]); err != nil {
		t.Fatalf("PushFrames: %v", err)
	}
	for _, f := range frames[len(frames)/2:] {
		if _, err := om.PushFrame(f); err != nil {
			t.Fatalf("PushFrame: %v", err)
		}
	}
	if _, err := om.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if met.steps.Value() == 0 || met.framesDecoded.Value() != uint64(len(frames)) {
		t.Fatalf("counters steps=%d decoded=%d, want nonzero and %d",
			met.steps.Value(), met.framesDecoded.Value(), len(frames))
	}
	if n := met.stepLatency.Count(); n != 0 {
		t.Errorf("step latency histogram holds %d observations from unsampled pushes, want 0", n)
	}
	for i := range met.ruleStep {
		if n := met.ruleStep[i].Count(); n != 0 {
			t.Errorf("rule %d latency histogram holds %d observations from unsampled pushes, want 0", i, n)
		}
	}
}

// TestOnlineStaleFramesCounted checks the PushFrames skip path.
func TestOnlineStaleFramesCounted(t *testing.T) {
	m := testMonitor(t)
	om, err := m.Online(sigdb.Vehicle())
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	reg := obs.NewRegistry()
	met := NewMetrics(reg, "strict", m.RuleNames())
	om.Instrument(met)
	log := buildLog(t, 20, func(tick int, bus *can.Bus) {
		_ = bus.Set(sigdb.SigVelocity, 24)
	})
	frames := log.Frames()
	// Append two copies of an early frame: both regress in time.
	stale := append(append([]can.Frame(nil), frames...), frames[0], frames[1])
	_, rejected, err := om.PushFrames(stale)
	if err != nil {
		t.Fatalf("PushFrames: %v", err)
	}
	if rejected != 2 {
		t.Fatalf("rejected = %d, want 2", rejected)
	}
	if got := met.framesStale.Value(); got != 2 {
		t.Errorf("stale counter = %d, want 2", got)
	}
}
