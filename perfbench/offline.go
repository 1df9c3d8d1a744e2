package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"time"

	"cpsmon/internal/archive"
	"cpsmon/internal/core"
	"cpsmon/internal/obs"
	"cpsmon/internal/recheck"
	"cpsmon/internal/rules"
	"cpsmon/internal/sigdb"
)

// opStat is what one timed-loop operation measured, timed around the
// system's calls only, so the correctness checks it makes are not
// charged to the system: the frames it checked and the wall and
// process CPU time the calls took.
type opStat struct {
	frames    uint64
	wall, cpu time.Duration
}

// timedLoop runs op back to back until the run's time is up, in
// windows equal slices. A slice's CPU cost per frame is its summed CPU
// time over its frames, and cpu_ns_per_frame is the median slice's, as
// peak_heap_mb is the median of the slices' peak live heaps, so one
// disturbed stretch moves them by at most a slice's worth. Traced
// runs use four slices instead, alternating untraced and traced ones,
// so the tracing overhead compares the same work at the same point in
// the run; in a traced slice op gets the tracer and records its spans
// inside the intervals it times. With fresh set, each op starts from a
// collected heap, as it would in a process of its own (see
// recheckWorkload.measure).
func timedLoop(seconds, windows int, tr *tracer, fresh bool, op func(i int, tr *tracer) (opStat, error)) (*outcome, error) {
	out := &outcome{}
	total := time.Duration(seconds) * time.Second
	nSlices := windows
	if tr != nil {
		nSlices = 4
	}
	heap := startHeapSampler()
	gc0 := readGC()
	var cpf [2][]float64 // untraced, traced CPU ns per frame per slice
	var fps []float64    // untraced frames per wall second per slice
	var heaps []float64  // untraced peak live heap per slice
	i := 0
	for s := 0; s < nSlices; s++ {
		traced := tr != nil && s%2 == 1
		var str *tracer
		if traced {
			str = tr
		}
		deadline := time.Now().Add(total / time.Duration(nSlices))
		var frames uint64
		var wall, cpu time.Duration
		for first := true; first || time.Now().Before(deadline); first = false {
			if fresh {
				runtime.GC()
			}
			st, err := op(i, str)
			i++
			out.attempted++
			if err != nil {
				out.fail(err)
				continue
			}
			frames += st.frames
			wall += st.wall
			cpu += st.cpu
		}
		idx := 0
		if traced {
			idx = 1
		} else {
			fps = append(fps, float64(frames)/wall.Seconds())
			heaps = append(heaps, heap.lap())
		}
		cpf[idx] = append(cpf[idx], float64(cpu)/float64(frames))
		out.frames += frames
	}
	heap.finish()
	out.gc = readGC().sub(gc0)
	out.cpuPerFrame = median(cpf[0])
	out.peakHeapMB = median(heaps)
	out.wallFPS = median(fps)
	if tr != nil {
		out.traceOverhead = 1 - median(cpf[0])/median(cpf[1])
	}
	return out, nil
}

// oracleLogs is the size of the offline oracle corpus.
const oracleLogs = 16

// loopSlices is how many slices the offline-oracle and archive-recheck
// loops are cut into: tens of recheck runs or hundreds of oracle logs
// a slice.
const loopSlices = 16

// offlineWorkload is the paper's own use: the monitor as a test oracle
// over stored logs, each checked under the strict and relaxed rules
// with triage, at the default (parallel) rule evaluation.
type offlineWorkload struct {
	seed              int64
	caps              []capture
	strict0, relaxed0 *core.Monitor
}

func (w *offlineWorkload) setup(string) error {
	caps, err := generateAll(oracleCorpus(w.seed, oracleLogs))
	if err != nil {
		return err
	}
	w.caps = caps
	if w.strict0, err = rules.NewStrictMonitor(); err != nil {
		return err
	}
	w.relaxed0, err = rules.NewRelaxedMonitor()
	return err
}

func (w *offlineWorkload) teardown() error { return nil }

func (w *offlineWorkload) measure(o *oracle, seconds int, tr *tracer) (*outcome, error) {
	exps, err := expectAll(o, w.caps, false)
	if err != nil {
		return nil, err
	}
	db := sigdb.Vehicle()
	// Each log's frames count once per spec.
	out, err := timedLoop(seconds, loopSlices, tr, false, func(i int, tr *tracer) (opStat, error) {
		c := w.caps[i%len(w.caps)]
		n := int64(len(c.frames))
		sw := startWatch()
		rs, err := w.strict0.CheckLog(c.log, db)
		if err != nil {
			return opStat{}, err
		}
		tr.record("core.checklog", 0, 0, 0, sw.wall, n)
		t1 := time.Now()
		rr, err := w.relaxed0.CheckLog(c.log, db)
		if err != nil {
			return opStat{}, err
		}
		tr.record("core.checklog", 0, 0, 0, t1, n)
		wall, cpu := sw.elapsed()
		// The timed monitors evaluate rules in parallel; the oracle's
		// are sequential. The reports must be identical.
		exp := exps[i%len(exps)]
		if !reflect.DeepEqual(rs, exp.strict) || !reflect.DeepEqual(rr, exp.relaxed) {
			return opStat{}, fmt.Errorf("%s: report at EvalParallelism 0 differs from EvalParallelism 1", c.name)
		}
		return opStat{frames: 2 * uint64(n), wall: wall, cpu: cpu}, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// expectAll runs the oracle over every capture.
func expectAll(o *oracle, caps []capture, shadow bool) ([]expectation, error) {
	exps := make([]expectation, len(caps))
	for i, c := range caps {
		e, err := o.expect(c, shadow)
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	return exps, nil
}

// recheckLogs is how many sessions the recheck archive holds.
const recheckLogs = 8

// recheckWorkload replays a fleet-written archive through the relaxed
// spec, as `monitorctl -recheck` does.
type recheckWorkload struct {
	seed    int64
	caps    []capture
	archDir string
	// ids maps each archived session to its capture.
	ids map[uint64]int
	cat *archive.Catalog
	reg *obs.Registry
}

// setup ingests the fleet session mix through a monitord-wired server
// with named-spec (strict) sessions, promoting a relaxed default spec
// before each round so the segments interleave sessions with epoch
// markers, as a long-running daemon's archive does.
func (w *recheckWorkload) setup(dir string) error {
	caps, err := generateAll(fleetMix(w.seed, recheckLogs))
	if err != nil {
		return err
	}
	w.caps = caps
	w.ids = make(map[uint64]int)
	rig, err := startRig(dir, nil)
	if err != nil {
		return err
	}
	fl := &fleetLoad{addr: rig.addr, spec: "strict", caps: caps, conns: fleetConns()}
	for _, c := range caps {
		fl.batches = append(fl.batches, splitBatches(c.frames))
	}
	next := make([]int, fl.conns)
	for round := 1; len(w.ids) < len(caps); round++ {
		hash := fmt.Sprintf("relaxed-%d", round)
		if err := rig.srv.BeginShadow(hash, rules.RelaxedSource); err != nil {
			return errors.Join(err, rig.close())
		}
		if err := rig.srv.PromoteShadow(hash, uint64(round)); err != nil {
			return errors.Join(err, rig.close())
		}
		for _, s := range fl.run(rig.srv, 0, 0, next).sessions {
			if s.err != nil {
				return errors.Join(s.err, rig.close())
			}
			w.ids[s.id] = s.log
		}
	}
	if err := rig.close(); err != nil {
		return err
	}
	w.archDir = filepath.Join(dir, "archive")
	w.cat, err = archive.OpenCatalog(w.archDir)
	return err
}

func (w *recheckWorkload) teardown() error { return nil }

func (w *recheckWorkload) measure(o *oracle, seconds int, tr *tracer) (*outcome, error) {
	exps, err := expectAll(o, w.caps, false)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Rules: o.relaxedRS, Triage: rules.DefaultTriage()}
	w.reg = obs.NewRegistry()
	recheck.Instrument(w.reg)
	db := sigdb.Vehicle()
	var failures []error
	// Every run starts from a collected heap: recheck.Run's parallel
	// scan builds per-call sync.Pools of decoded segments, which the
	// runtime keeps reachable until the next collections, so back-to-back
	// runs in one process pile them up (past a GiB here) where a
	// `monitorctl -recheck` process would hold one run's worth.
	out, err := timedLoop(seconds, loopSlices, tr, true, func(_ int, tr *tracer) (opStat, error) {
		sw := startWatch()
		rep, err := recheck.Run(w.cat, db, cfg, recheck.Options{Workers: 0})
		if err != nil {
			return opStat{}, err
		}
		tr.record("recheck.run", 0, 0, 0, sw.wall, int64(rep.FramesReplayed))
		wall, cpu := sw.elapsed()
		failures = append(failures, w.check(rep, exps)...)
		return opStat{frames: rep.FramesReplayed, wall: wall, cpu: cpu}, nil
	})
	if err != nil {
		return nil, err
	}
	// An operation is one rechecked session: every run checks them all.
	runs := out.attempted
	out.attempted = runs * len(w.caps)
	for _, f := range failures {
		out.fail(f)
	}
	out.archDir = w.archDir
	out.reg = w.reg
	return out, nil
}

// check compares a recheck report with the oracle: each archived
// verdict is the strict oracle's, each rechecked verdict the relaxed
// oracle's, and the diffs name exactly the rules where they differ.
func (w *recheckWorkload) check(rep *recheck.Report, exps []expectation) []error {
	var errs []error
	seen := 0
	for _, sr := range rep.Sessions {
		li, ok := w.ids[sr.Session]
		if !ok {
			errs = append(errs, fmt.Errorf("recheck: unknown session %d", sr.Session))
			continue
		}
		seen++
		exp := exps[li]
		var want []string
		for i := range exp.strictRules {
			if exp.strictRules[i] != exp.relaxedRules[i] {
				want = append(want, exp.strictRules[i].Rule)
			}
		}
		var got []string
		for _, d := range sr.Diffs {
			got = append(got, d.Rule)
		}
		switch {
		case sr.Archived == nil || !slices.Equal(sr.Archived.Rules, exp.strictRules):
			errs = append(errs, fmt.Errorf("recheck session %d: archived verdict differs from the strict oracle", sr.Session))
		case !slices.Equal(sr.Rechecked.Rules, exp.relaxedRules):
			errs = append(errs, fmt.Errorf("recheck session %d: rechecked verdict differs from the relaxed oracle", sr.Session))
		case sr.Frames != uint64(len(w.caps[li].frames)) || sr.Rejected != 0:
			errs = append(errs, fmt.Errorf("recheck session %d: replayed %d frames (%d rejected) of %d", sr.Session, sr.Frames, sr.Rejected, len(w.caps[li].frames)))
		case !slices.Equal(got, want):
			errs = append(errs, fmt.Errorf("recheck session %d: diffs %v, oracle %v", sr.Session, got, want))
		}
	}
	for ; seen < len(w.caps); seen++ {
		errs = append(errs, errors.New("recheck: an archived session is missing from the report"))
	}
	return errs
}
