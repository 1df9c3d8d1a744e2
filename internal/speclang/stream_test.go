package speclang

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// runStream pushes a memSource through a StreamChecker and collects the
// completed violations per rule.
func runStream(t *testing.T, rs *RuleSet, src *memSource, opts EvalOptions) map[string][]Violation {
	t.Helper()
	names := make([]string, 0, len(src.vals))
	for name := range src.vals {
		names = append(names, name)
	}
	// Deterministic order.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	sc, err := rs.NewStreamChecker(names, src.StepPeriod(), opts)
	if err != nil {
		t.Fatalf("NewStreamChecker: %v", err)
	}
	out := make(map[string][]Violation)
	collect := func(events []Event) {
		for _, e := range events {
			if e.Kind == ViolationEnd {
				out[e.Rule] = append(out[e.Rule], e.Violation)
			}
		}
	}
	vals := make([]float64, len(names))
	upd := make([]bool, len(names))
	for step := 0; step < src.NumSteps(); step++ {
		for i, name := range names {
			vals[i] = src.vals[name][step]
			upd[i] = src.upd[name][step]
		}
		events, err := sc.Step(vals, upd)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		collect(events)
	}
	events, err := sc.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	collect(events)
	return out
}

// requireEquivalent checks that the online checker reproduces the
// offline evaluator's violations exactly.
func requireEquivalent(t *testing.T, ruleSrc string, src *memSource, opts EvalOptions, signals ...string) {
	t.Helper()
	rs := compileOne(t, ruleSrc, signals...)
	offline, err := rs.Eval(src, opts)
	if err != nil {
		t.Fatalf("offline Eval: %v", err)
	}
	online := runStream(t, rs, src, opts)
	for _, res := range offline {
		got := online[res.Name]
		if len(got) != len(res.Violations) {
			t.Fatalf("rule %s: online %d violations, offline %d\nonline:  %+v\noffline: %+v",
				res.Name, len(got), len(res.Violations), got, res.Violations)
		}
		for i := range got {
			want := res.Violations[i]
			g := got[i]
			if g.StartStep != want.StartStep || g.EndStep != want.EndStep || g.Msg != want.Msg {
				t.Fatalf("rule %s violation %d: online %+v, offline %+v", res.Name, i, g, want)
			}
			if g.Peak != want.Peak && !(math.IsInf(g.Peak, 1) && math.IsInf(want.Peak, 1)) {
				t.Fatalf("rule %s violation %d peak: online %v, offline %v", res.Name, i, g.Peak, want.Peak)
			}
		}
	}
}

func TestStreamSimpleAssertEquivalence(t *testing.T) {
	src := newMemSource(10*time.Millisecond).add("x", 0, 0, 1, 2, 0, 0, 3, 0)
	requireEquivalent(t, `spec R { assert x <= 0 }`, src, EvalOptions{}, "x")
}

func TestStreamViolationEvents(t *testing.T) {
	rs := compileOne(t, `spec R { severity x assert x <= 0 }`, "x")
	src := newMemSource(10*time.Millisecond).add("x", 0, 2, 7, 0, 0)
	sc, err := rs.NewStreamChecker([]string{"x"}, src.StepPeriod(), EvalOptions{})
	if err != nil {
		t.Fatalf("NewStreamChecker: %v", err)
	}
	var kinds []EventKind
	var last Event
	for step := 0; step < src.NumSteps(); step++ {
		events, err := sc.Step([]float64{src.vals["x"][step]}, []bool{true})
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		for _, e := range events {
			kinds = append(kinds, e.Kind)
			last = e
		}
	}
	if _, err := sc.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if len(kinds) != 2 || kinds[0] != ViolationBegin || kinds[1] != ViolationEnd {
		t.Fatalf("event kinds = %v, want [begin end]", kinds)
	}
	if last.Violation.StartStep != 1 || last.Violation.EndStep != 3 || last.Violation.Peak != 7 {
		t.Errorf("violation = %+v", last.Violation)
	}
}

func TestStreamEventLatencyBounded(t *testing.T) {
	// A rule with a 400 ms horizon must report a violation no later
	// than horizon+1 steps after it starts.
	rs := compileOne(t, `spec R { assert eventually[0:40ms](x <= 0) }`, "x")
	sc, err := rs.NewStreamChecker([]string{"x"}, 10*time.Millisecond, EvalOptions{})
	if err != nil {
		t.Fatalf("NewStreamChecker: %v", err)
	}
	beginAt := -1
	for step := 0; step < 100; step++ {
		events, err := sc.Step([]float64{1}, []bool{true})
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		for _, e := range events {
			if e.Kind == ViolationBegin && beginAt < 0 {
				beginAt = step
			}
		}
	}
	// Step 0's window [0,4] is all-violating; decidable at step 4.
	if beginAt != 4 {
		t.Errorf("violation begin delivered at step %d, want 4", beginAt)
	}
}

func TestStreamFinishTwiceAndStepAfterFinish(t *testing.T) {
	rs := compileOne(t, `spec R { assert x }`, "x")
	sc, err := rs.NewStreamChecker([]string{"x"}, time.Millisecond, EvalOptions{})
	if err != nil {
		t.Fatalf("NewStreamChecker: %v", err)
	}
	if _, err := sc.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if _, err := sc.Finish(); err == nil {
		t.Error("second Finish succeeded")
	}
	if _, err := sc.Step([]float64{1}, []bool{true}); err == nil {
		t.Error("Step after Finish succeeded")
	}
}

func TestStreamChecksArgLengths(t *testing.T) {
	rs := compileOne(t, `spec R { assert x }`, "x")
	sc, err := rs.NewStreamChecker([]string{"x"}, time.Millisecond, EvalOptions{})
	if err != nil {
		t.Fatalf("NewStreamChecker: %v", err)
	}
	if _, err := sc.Step([]float64{1, 2}, []bool{true, false}); err == nil {
		t.Error("wrong-length step accepted")
	}
	if got := sc.Signals(); len(got) != 1 || got[0] != "x" {
		t.Errorf("Signals = %v", got)
	}
}

// TestStreamTimeRules checks the per-rule timing accumulator: armed,
// Steps add to each rule's slot; disarmed, Step leaves the
// accumulator alone and produces the same events as an armed step.
func TestStreamTimeRules(t *testing.T) {
	rs := compileOne(t, `spec A { assert x > 0 } spec B { assert eventually[0:20ms](x > 0) }`, "x")
	timed, err := rs.NewStreamChecker([]string{"x"}, 10*time.Millisecond, EvalOptions{})
	if err != nil {
		t.Fatalf("NewStreamChecker: %v", err)
	}
	plain, err := rs.NewStreamChecker([]string{"x"}, 10*time.Millisecond, EvalOptions{})
	if err != nil {
		t.Fatalf("NewStreamChecker: %v", err)
	}
	if timed.NumRules() != 2 {
		t.Fatalf("NumRules = %d, want 2", timed.NumRules())
	}
	acc := make([]int64, timed.NumRules())
	xs := []float64{1, 0, 0, 0, 1, 1, 0, 1}
	for step, x := range xs {
		armed := step < 4
		if armed {
			timed.TimeRules(acc)
		} else {
			timed.TimeRules(nil)
		}
		before := append([]int64(nil), acc...)
		got, err := timed.Step([]float64{x}, []bool{true})
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		got = append([]Event(nil), got...)
		want, err := plain.Step([]float64{x}, []bool{true})
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: timed checker emitted %v, untimed %v", step, got, want)
		}
		for i := range acc {
			if armed && acc[i] < before[i] {
				t.Errorf("step %d: armed rule %d accumulator shrank %d -> %d", step, i, before[i], acc[i])
			}
			if !armed && acc[i] != before[i] {
				t.Errorf("step %d: disarmed rule %d accumulator moved %d -> %d", step, i, before[i], acc[i])
			}
		}
		if step == 3 {
			for i, n := range acc {
				if n <= 0 {
					t.Errorf("rule %d accumulated %dns over the armed steps, want positive", i, n)
				}
			}
		}
	}
}

func TestStreamRejectsBadPeriod(t *testing.T) {
	rs := compileOne(t, `spec R { assert x }`, "x")
	if _, err := rs.NewStreamChecker([]string{"x"}, 0, EvalOptions{}); err == nil {
		t.Error("zero period accepted")
	}
}

func TestStreamUnknownSignal(t *testing.T) {
	rs := compileOne(t, `spec R { assert x }`, "x")
	if _, err := rs.NewStreamChecker([]string{"y"}, time.Millisecond, EvalOptions{}); err == nil {
		t.Error("stream without required signal accepted")
	}
}

// ---------- equivalence over handcrafted corner cases ----------

func TestStreamTemporalTruncationEquivalence(t *testing.T) {
	src := newMemSource(10*time.Millisecond).
		add("b", 1, 1, 1, 1, 1, 1, 1, 1, 1, 1).
		add("x", 1, 1, 1, 1, 1, 0, 1, 1, 1, 1)
	requireEquivalent(t, `spec R { assert b -> eventually[0:30ms](x <= 0) }`, src, EvalOptions{}, "b", "x")
}

func TestStreamTemporalLowBoundEquivalence(t *testing.T) {
	src := newMemSource(10*time.Millisecond).
		add("x", 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0)
	requireEquivalent(t, `spec R { assert eventually[20ms:50ms](x <= 0) }`, src, EvalOptions{}, "x")
	requireEquivalent(t, `spec R { assert always[10ms:40ms](x <= 0) }`, src, EvalOptions{}, "x")
}

func TestStreamShortTraceEquivalence(t *testing.T) {
	// Trace shorter than the temporal horizon: every window truncated.
	src := newMemSource(10*time.Millisecond).add("x", 1, 1)
	requireEquivalent(t, `spec R { assert eventually[0:200ms](x <= 0) }`, src, EvalOptions{}, "x")
	requireEquivalent(t, `spec R { assert always[0:200ms](x <= 0) }`, src, EvalOptions{}, "x")
}

func TestStreamMonitorEquivalence(t *testing.T) {
	vals := []float64{2, 2, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 2, 2, 0.5, 0.5}
	src := newMemSource(10*time.Millisecond).add("x", vals...)
	requireEquivalent(t, `
monitor M {
  initial state Normal {
    when x < 1.0 => Low
  }
  state Low {
    when x >= 1.0 => Normal
    after 50ms => violate "stuck low"
  }
}`, src, EvalOptions{}, "x")
}

func TestStreamMonitorTemporalGuardEquivalence(t *testing.T) {
	vals := []float64{0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0}
	src := newMemSource(10*time.Millisecond).add("x", vals...)
	requireEquivalent(t, `
monitor M {
  initial state A {
    when always[0:30ms](x > 0) => violate "sustained" then B
  }
  state B {
    when x <= 0 => A
  }
}`, src, EvalOptions{}, "x")
}

func TestStreamWarmupEquivalence(t *testing.T) {
	src := newMemSource(10*time.Millisecond).
		add("b", 0, 0, 1, 1, 1, 1, 0, 1, 1, 1).
		add("x", 9, 9, 9, 9, 9, 0, 9, 9, 9, 9)
	requireEquivalent(t, `spec R { warmup 20ms on rise(b) assert b -> x <= 0 }`, src, EvalOptions{}, "b", "x")
	requireEquivalent(t, `spec R { warmup 30ms assert x <= 0 }`, src, EvalOptions{}, "b", "x")
}

func TestStreamSeverityNaNEquivalence(t *testing.T) {
	nan := math.NaN()
	src := newMemSource(10*time.Millisecond).
		add("x", 0, nan, nan, 2, 0)
	requireEquivalent(t, `spec R { severity x assert x <= 0 }`, src, EvalOptions{}, "x")
}

func TestStreamMultiRateEquivalence(t *testing.T) {
	vals := []float64{10, 10, 10, 10, 20, 20, 20, 20, 30, 30, 30, 30}
	upd := []bool{true, false, false, false, true, false, false, false, true, false, false, false}
	src := newMemSource(10*time.Millisecond).addWithUpd("x", vals, upd)
	for _, mode := range []DeltaMode{DeltaNaive, DeltaUpdateAware} {
		requireEquivalent(t, `spec R { assert delta(x) <= 0 }`, src, EvalOptions{DeltaMode: mode}, "x")
		requireEquivalent(t, `spec R { assert rate(x) <= 100 }`, src, EvalOptions{DeltaMode: mode}, "x")
		requireEquivalent(t, `spec R { assert prev(x) == x || !valid(prev(x)) }`, src, EvalOptions{DeltaMode: mode}, "x")
	}
}

func TestStreamBuiltinsEquivalence(t *testing.T) {
	src := newMemSource(10*time.Millisecond).
		add("x", -3, 2, 7, 0, -1, 4).
		add("y", 1, -9, 7, 2, 2, -2).
		add("b", 1, 0, 1, 1, 0, 0)
	requireEquivalent(t, `spec R {
  assert min(x, y) <= max(x, y)
  assert cond(b, x, y) == cond(!b, y, x)
  assert abs(x) >= 0
  assert rise(b) -> !fall(b)
  assert changed(y) || !changed(y)
  assert updated(x)
}`, src, EvalOptions{}, "x", "y", "b")
}

func TestStreamNestedTemporalEquivalence(t *testing.T) {
	// Nested windows compose delays: the outer operator waits for the
	// inner one's delayed outputs. The offline evaluator is the
	// reference for the composed semantics.
	vals := []float64{0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 1}
	src := newMemSource(10*time.Millisecond).add("x", vals...)
	cases := []string{
		`spec N1 { assert always[0:40ms](eventually[0:20ms](x > 0)) }`,
		`spec N2 { assert eventually[0:30ms](always[0:20ms](x > 0)) }`,
		`spec N3 { assert eventually[10ms:50ms](x > 0) && always[0:20ms](x >= 0) }`,
		`spec N4 { assert once[0:30ms](eventually[0:20ms](x > 0)) }`,
		`spec N5 { assert always[0:20ms](historically[0:20ms](x >= 0)) }`,
		`spec N6 { assert delta(cond(eventually[0:20ms](x > 0), 1, 0)) <= 1 }`,
	}
	for _, ruleSrc := range cases {
		requireEquivalent(t, ruleSrc, src, EvalOptions{}, "x")
	}
}

func TestStreamMixedDelayBinaryEquivalence(t *testing.T) {
	// Children with different delays under one operator: the
	// alignment queues must keep them in lockstep.
	src := newMemSource(10*time.Millisecond).
		add("x", 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0).
		add("y", 0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 1)
	cases := []string{
		`spec M1 { assert eventually[0:40ms](x > 0) -> y >= 0 }`,
		`spec M2 { assert (eventually[0:40ms](x > 0)) == (eventually[0:20ms](y > 0)) || true }`,
		`spec M3 { assert min(cond(always[0:30ms](x >= 0), 1, 0), y + 1) >= 0 }`,
		`spec M4 { assert !eventually[0:50ms](x > 0) || once[0:20ms](y > 0) || y <= 1 }`,
	}
	for _, ruleSrc := range cases {
		requireEquivalent(t, ruleSrc, src, EvalOptions{}, "x", "y")
	}
}

// ---------- randomized equivalence ----------

// TestStreamRandomizedEquivalence drives both evaluators over random
// multi-rate traces with a grab-bag of rules covering every language
// feature, requiring identical violations.
func TestStreamRandomizedEquivalence(t *testing.T) {
	ruleSrcs := []string{
		`spec R1 { assert a -> x <= 0.5 }`,
		`spec R2 { severity delta(x) assert delta(x) <= 0.3 }`,
		`spec R3 { assert a -> eventually[0:50ms](x <= 0.2) }`,
		`spec R4 { assert always[20ms:60ms](x <= 0.9) }`,
		`spec R5 { warmup 40ms on rise(a) let d = delta(x) assert a -> d <= 0.4 }`,
		`spec R6 { assert eventually[30ms:30ms](x > 0.1) }`,
		`monitor M1 {
			initial state N { when a && x < 0.3 => L }
			state L { when !a || x >= 0.3 => N
			          after 70ms => violate "low" }
		}`,
		`monitor M2 {
			warmup 30ms
			initial state A { when eventually[0:20ms](x > 0.8) => violate "spike" }
		}`,
		`spec R7 { assert always[0:30ms](eventually[0:20ms](x > 0.2)) || once[0:40ms](x > 0.9) }`,
		`spec R8 { assert (eventually[0:30ms](x > 0.7)) -> historically[0:20ms](x > -1) }`,
	}
	for _, mode := range []DeltaMode{DeltaNaive, DeltaUpdateAware} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 5 + rng.Intn(120)
			src := newMemSource(10 * time.Millisecond)
			// x: a multi-rate float with occasional NaN.
			xv := make([]float64, n)
			xu := make([]bool, n)
			cur := rng.Float64()
			for i := 0; i < n; i++ {
				if i == 0 || rng.Float64() < 0.4 {
					cur = rng.Float64()*2 - 0.5
					if rng.Float64() < 0.05 {
						cur = math.NaN()
					}
					xu[i] = true
				}
				xv[i] = cur
			}
			src.addWithUpd("x", xv, xu)
			// a: a boolean updated every step.
			av := make([]float64, n)
			au := make([]bool, n)
			for i := 0; i < n; i++ {
				if rng.Float64() < 0.6 {
					av[i] = 1
				}
				au[i] = true
			}
			src.addWithUpd("a", av, au)

			for _, ruleSrc := range ruleSrcs {
				requireEquivalent(t, ruleSrc, src, EvalOptions{DeltaMode: mode}, "x", "a")
			}
		}
	}
}
