package main

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/core"
	"cpsmon/internal/rules"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
	"cpsmon/internal/wire"
)

// oracle is the offline reference every output of the benchmark is
// checked against: core.Monitor.CheckLog under the strict and relaxed
// rule sets, evaluated sequentially.
type oracle struct {
	db                  *sigdb.DB
	strictRS, relaxedRS *speclang.RuleSet
	strict, relaxed     *core.Monitor
	// horizon is each strict rule's decision horizon on the default
	// evaluation grid.
	horizon map[string]time.Duration
}

func newOracle() (*oracle, error) {
	o := &oracle{db: sigdb.Vehicle(), horizon: make(map[string]time.Duration)}
	var err error
	if o.strictRS, err = rules.Strict(); err != nil {
		return nil, err
	}
	if o.relaxedRS, err = rules.Relaxed(); err != nil {
		return nil, err
	}
	if o.strict, err = core.New(core.Config{Rules: o.strictRS, Triage: rules.DefaultTriage(), EvalParallelism: 1}); err != nil {
		return nil, err
	}
	if o.relaxed, err = core.New(core.Config{Rules: o.relaxedRS, Triage: rules.DefaultTriage(), EvalParallelism: 1}); err != nil {
		return nil, err
	}
	for _, r := range o.strictRS.Rules() {
		o.horizon[r.Name] = r.Horizon(sigdb.FastPeriod)
	}
	return o, nil
}

// beginKey identifies one violation onset.
type beginKey struct {
	rule string
	at   time.Duration
}

func sortBegins(b []beginKey) {
	sort.Slice(b, func(i, j int) bool {
		if b[i].at != b[j].at {
			return b[i].at < b[j].at
		}
		return b[i].rule < b[j].rule
	})
}

// expectation is what the oracle predicts for one capture.
type expectation struct {
	strict, relaxed           *core.Report
	strictRules, relaxedRules []wire.RuleVerdict
	// begins lists the strict violation onsets, sorted.
	begins []beginKey
	// batches is how many uplink batches the capture is cut into;
	// divergentBatches and divergences are what shadow-evaluating the
	// relaxed spec next to the strict one must count over them.
	batches, divergentBatches, divergences uint64
}

// expect runs the oracle over one capture. With shadow set it also
// predicts the canary divergence by replaying the capture's uplink
// batches through independent strict and relaxed streaming monitors
// and comparing their per-batch output.
func (o *oracle) expect(c capture, shadow bool) (expectation, error) {
	var e expectation
	var err error
	if e.strict, err = o.strict.CheckLog(c.log, o.db); err != nil {
		return e, fmt.Errorf("oracle %s: %w", c.name, err)
	}
	if e.relaxed, err = o.relaxed.CheckLog(c.log, o.db); err != nil {
		return e, fmt.Errorf("oracle %s: %w", c.name, err)
	}
	e.strictRules = ruleVerdicts(e.strict)
	e.relaxedRules = ruleVerdicts(e.relaxed)
	for _, rr := range e.strict.Rules {
		for _, v := range rr.Result.Violations {
			e.begins = append(e.begins, beginKey{rr.Name(), v.Start})
		}
	}
	sortBegins(e.begins)
	batches := splitBatches(c.frames)
	e.batches = uint64(len(batches))
	if shadow {
		if e.divergentBatches, e.divergences, err = o.predictDivergence(batches); err != nil {
			return e, fmt.Errorf("oracle %s: %w", c.name, err)
		}
	}
	return e, nil
}

// predictDivergence replays batches through a strict and a relaxed
// online monitor. A batch diverges when the two emit different
// (rule, kind, time) sequences; it then counts the per-rule event
// count differences, or one when only the timing differs.
func (o *oracle) predictDivergence(batches [][]can.Frame) (divBatches, div uint64, err error) {
	a, err := o.strict.Online(o.db)
	if err != nil {
		return 0, 0, err
	}
	b, err := o.relaxed.Online(o.db)
	if err != nil {
		return 0, 0, err
	}
	type ev struct {
		rule string
		kind speclang.EventKind
		at   time.Duration
	}
	var ea, eb []ev
	for _, batch := range batches {
		ea, eb = ea[:0], eb[:0]
		evs, _, err := a.PushFrames(batch)
		if err != nil {
			return 0, 0, err
		}
		for _, e := range evs {
			ea = append(ea, ev{e.Rule, e.Kind, e.Time})
		}
		evs, _, err = b.PushFrames(batch)
		if err != nil {
			return 0, 0, err
		}
		for _, e := range evs {
			eb = append(eb, ev{e.Rule, e.Kind, e.Time})
		}
		if slices.Equal(ea, eb) {
			continue
		}
		divBatches++
		counts := make(map[string]int)
		for _, e := range ea {
			counts[e.rule]++
		}
		for _, e := range eb {
			counts[e.rule]--
		}
		var d uint64
		for _, n := range counts {
			if n < 0 {
				n = -n
			}
			d += uint64(n)
		}
		if d == 0 {
			d = 1
		}
		div += d
	}
	a.Close()
	b.Close()
	return divBatches, div, nil
}

// ruleVerdicts renders a report as the per-rule verdict records a
// fleet session delivers.
func ruleVerdicts(rep *core.Report) []wire.RuleVerdict {
	out := make([]wire.RuleVerdict, len(rep.Rules))
	for i, rr := range rep.Rules {
		out[i] = wire.RuleVerdict{
			Rule:       rr.Name(),
			Violated:   rr.Verdict == core.Violated,
			Violations: uint32(len(rr.Result.Violations)),
			Real:       uint32(rr.Count(core.ClassReal)),
			Transient:  uint32(rr.Count(core.ClassTransient)),
			Negligible: uint32(rr.Count(core.ClassNegligible)),
		}
	}
	return out
}
