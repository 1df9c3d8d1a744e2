package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"time"

	"cpsmon/internal/archive"
	"cpsmon/internal/core"
	"cpsmon/internal/durable"
	"cpsmon/internal/flight"
	"cpsmon/internal/obs"
	"cpsmon/internal/recheck"
	"cpsmon/internal/rules"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
	"cpsmon/internal/trace"
	"cpsmon/internal/wire"

	rtmetrics "runtime/metrics"
)

// ladderCaps is how many of the workload's captures the ladder re-drives
// (about 300k frames).
const ladderCaps = 8

// minRung is how long each rung repeats its pass, so a per-unit cost
// averages over enough work to repeat from run to run.
const minRung = 150 * time.Millisecond

// ladder re-drives each layer's public functions over one workload's
// captures, one rung per layer, each call wrapped in a span.
type ladder struct {
	tr   *tracer
	lm   *metrics
	o    *oracle
	db   *sigdb.DB
	caps []capture
	dir  string
	// archDir is the archive the iterator and recheck rungs read: the
	// workload's own when it has one, else the one the archive rung
	// writes.
	archDir string
	// scrape is the registry the scrape rung reads: the workload's own
	// (the fleet server's, the recheck metrics), else own.
	scrape *obs.Registry
	// own holds the ladder's instrumentation, apart from the workload's.
	own *obs.Registry

	grids []*trace.Grid
}

// rung repeats pass for at least minRung (and at least once), recording
// one span per pass with the work count the pass reports.
func (l *ladder) rung(name string, pass func() (int64, error)) error {
	root := l.tr.id()
	start := time.Now()
	deadline := start.Add(minRung)
	for first := true; first || time.Now().Before(deadline); first = false {
		t0 := time.Now()
		n, err := pass()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		l.tr.record(name, 0, root, root, t0, n)
	}
	l.tr.record("ladder."+name, root, 0, root, start, 0)
	return nil
}

// abRung alternates two rungs twice each, so drift during the ladder
// hits both sides of an A/B comparison alike.
func (l *ladder) abRung(a, b string, passA, passB func() (int64, error)) error {
	for i := 0; i < 2; i++ {
		if err := l.rung(a, passA); err != nil {
			return err
		}
		if err := l.rung(b, passB); err != nil {
			return err
		}
	}
	return nil
}

func (l *ladder) run() error {
	steps := []func() error{
		l.traceRungs, l.wireRungs, l.sigdbRung, l.speclangRungs, l.coreRungs,
		l.archiveRungs, l.durableRung, l.recheckRung, l.obsRungs,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

func (l *ladder) frames() int64 { return int64(frameCount(l.caps)) }

func (l *ladder) traceRungs() error {
	var trs []*trace.Trace
	err := l.rung("trace.fromcanlog", func() (int64, error) {
		trs = trs[:0]
		for _, c := range l.caps {
			tr, err := trace.FromCANLog(c.log, l.db)
			if err != nil {
				return 0, err
			}
			trs = append(trs, tr)
		}
		return l.frames(), nil
	})
	if err != nil {
		return err
	}
	err = l.rung("trace.align", func() (int64, error) {
		l.grids = l.grids[:0]
		var steps int64
		for _, tr := range trs {
			g, err := trace.Align(tr, sigdb.FastPeriod)
			if err != nil {
				return 0, err
			}
			l.grids = append(l.grids, g)
			steps += int64(g.NumSteps())
		}
		return steps, nil
	})
	if err != nil {
		return err
	}
	l.lm.set("trace.fromcanlog_ns_per_frame", "ns", l.tr.perUnit("trace.fromcanlog"))
	l.lm.set("trace.align_ns_per_step", "ns", l.tr.perUnit("trace.align"))
	return nil
}

func (l *ladder) wireRungs() error {
	var bufBytes []byte
	var frames int64
	batches := make([]wire.SeqBatch, 0)
	for _, c := range l.caps {
		for _, b := range splitBatches(c.frames) {
			batches = append(batches, wire.SeqBatch{Seq: uint64(len(batches) + 1), Frames: b})
			frames += int64(len(b))
		}
	}
	err := l.rung("wire.encode", func() (int64, error) {
		bufBytes = bufBytes[:0]
		for _, b := range batches {
			bufBytes = wire.Append(bufBytes, b)
		}
		return frames, nil
	})
	if err != nil {
		return err
	}
	err = l.rung("wire.decode", func() (int64, error) {
		r := bytes.NewReader(bufBytes)
		var n int64
		for {
			rec, err := wire.Read(r)
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
			sb, ok := rec.(wire.SeqBatch)
			if !ok {
				return 0, fmt.Errorf("decoded %T, want SeqBatch", rec)
			}
			n += int64(len(sb.Frames))
		}
		if n != frames {
			return 0, fmt.Errorf("decoded %d frames of %d", n, frames)
		}
		return n, nil
	})
	if err != nil {
		return err
	}
	l.lm.set("wire.encode_ns_per_frame", "ns", l.tr.perUnit("wire.encode"))
	l.lm.set("wire.decode_ns_per_frame", "ns", l.tr.perUnit("wire.decode"))
	l.lm.set("wire.bytes_per_frame", "bytes", float64(len(bufBytes))/float64(frames))
	return nil
}

func (l *ladder) sigdbRung() error {
	plan, err := l.db.CompilePlan(l.db.SignalNames())
	if err != nil {
		return err
	}
	dst := make([]float64, plan.Width())
	err = l.rung("sigdb.unpack", func() (int64, error) {
		for _, c := range l.caps {
			for _, f := range c.frames {
				if _, err := plan.UnpackInto(f.ID, f.Data, dst); err != nil {
					return 0, err
				}
			}
		}
		return l.frames(), nil
	})
	if err != nil {
		return err
	}
	l.lm.set("sigdb.unpack_ns_per_frame", "ns", l.tr.perUnit("sigdb.unpack"))
	return nil
}

func (l *ladder) speclangRungs() error {
	names := l.db.SignalNames()
	// Pre-cut each grid into per-step rows in the checker's signal
	// order, so the step rung times StreamChecker.Step alone.
	type rows struct {
		vals [][]float64
		upd  [][]bool
	}
	var grids []rows
	for _, g := range l.grids {
		r := rows{vals: make([][]float64, g.NumSteps()), upd: make([][]bool, g.NumSteps())}
		for i := range r.vals {
			r.vals[i] = make([]float64, len(names))
			r.upd[i] = make([]bool, len(names))
		}
		for k, n := range names {
			vs, ok := g.Values(n)
			us, _ := g.Updated(n)
			for i := range r.vals {
				if ok {
					r.vals[i][k], r.upd[i][k] = vs[i], us[i]
				} else {
					r.vals[i][k] = math.NaN() // no sample yet, as trace.Align holds it
				}
			}
		}
		grids = append(grids, r)
	}
	err := l.rung("speclang.step", func() (int64, error) {
		var steps int64
		for _, r := range grids {
			sc, err := l.o.strictRS.NewStreamChecker(names, sigdb.FastPeriod, speclang.EvalOptions{})
			if err != nil {
				return 0, err
			}
			for i := range r.vals {
				if _, err := sc.Step(r.vals[i], r.upd[i]); err != nil {
					return 0, err
				}
			}
			if _, err := sc.Finish(); err != nil {
				return 0, err
			}
			steps += int64(len(r.vals))
		}
		return steps, nil
	})
	if err != nil {
		return err
	}
	err = l.rung("speclang.eval", func() (int64, error) {
		var steps int64
		for _, g := range l.grids {
			if _, err := l.o.strictRS.Eval(g, speclang.EvalOptions{}); err != nil {
				return 0, err
			}
			steps += int64(g.NumSteps())
		}
		return steps, nil
	})
	if err != nil {
		return err
	}
	l.lm.set("speclang.step_ns_per_step", "ns", l.tr.perUnit("speclang.step"))
	l.lm.set("speclang.eval_ns_per_step", "ns", l.tr.perUnit("speclang.eval"))
	return nil
}

// pushPass feeds every capture's uplink batches through a fresh online
// monitor, with the instrumentation prepare installs.
func (l *ladder) pushPass(mon *core.Monitor, prepare func(*core.OnlineMonitor), timed bool) func() (int64, error) {
	return func() (int64, error) {
		for _, c := range l.caps {
			om, err := mon.Online(l.db)
			if err != nil {
				return 0, err
			}
			if prepare != nil {
				prepare(om)
			}
			for _, b := range splitBatches(c.frames) {
				if timed {
					om.BeginStageTiming()
				}
				if _, _, err := om.PushFrames(b); err != nil {
					return 0, err
				}
				if timed {
					om.EndStageTiming()
				}
			}
			if _, err := om.Close(); err != nil {
				return 0, err
			}
		}
		return l.frames(), nil
	}
}

func (l *ladder) coreRungs() error {
	strict := l.o.strict
	met := core.NewMetrics(l.own, "perfbench", strict.RuleNames())
	nRules := len(strict.RuleNames())
	bare := l.pushPass(strict, nil, false)
	withMetrics := l.pushPass(strict, func(om *core.OnlineMonitor) { om.Instrument(met) }, false)
	timed := l.pushPass(strict, func(om *core.OnlineMonitor) {
		om.Instrument(met)
		om.EnableStageTiming(nRules)
	}, true)
	for i := 0; i < 2; i++ {
		for _, r := range []struct {
			name string
			pass func() (int64, error)
		}{{"core.push", bare}, {"core.push_metrics", withMetrics}, {"core.push_timed", timed}} {
			if err := l.rung(r.name, r.pass); err != nil {
				return err
			}
		}
	}
	allocs := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(allocs)
	before := allocs[0].Value.Uint64()
	if _, err := bare(); err != nil {
		return err
	}
	rtmetrics.Read(allocs)
	allocsPerFrame := float64(allocs[0].Value.Uint64()-before) / float64(l.frames())

	err := l.rung("core.shadow_push", func() (int64, error) {
		for _, c := range l.caps {
			sm, err := l.o.relaxed.Shadow(l.db)
			if err != nil {
				return 0, err
			}
			for _, b := range splitBatches(c.frames) {
				if err := sm.Push(b); err != nil {
					return 0, err
				}
				sm.EndBatch()
			}
			sm.Close()
		}
		return l.frames(), nil
	})
	if err != nil {
		return err
	}

	par1, err := core.New(core.Config{Rules: l.o.strictRS, Triage: rules.DefaultTriage(), EvalParallelism: 1})
	if err != nil {
		return err
	}
	parMax, err := core.New(core.Config{Rules: l.o.strictRS, Triage: rules.DefaultTriage()})
	if err != nil {
		return err
	}
	check := func(m *core.Monitor) func() (int64, error) {
		return func() (int64, error) {
			for _, g := range l.grids {
				if _, err := m.CheckGrid(g); err != nil {
					return 0, err
				}
			}
			return int64(len(l.grids)), nil
		}
	}
	if err := l.abRung("core.checkgrid_par1", "core.checkgrid_parmax", check(par1), check(parMax)); err != nil {
		return err
	}

	push := l.tr.perUnit("core.push")
	pushMet := l.tr.perUnit("core.push_metrics")
	pushTimed := l.tr.perUnit("core.push_timed")
	l.lm.set("core.push_ns_per_frame", "ns", push)
	l.lm.set("core.push_metrics_ns_per_frame", "ns", pushMet)
	l.lm.set("core.push_timed_ns_per_frame", "ns", pushTimed)
	l.lm.set("core.metrics_tax_frac", "ratio", pushMet/push-1)
	l.lm.set("core.timing_tax_frac", "ratio", pushTimed/push-1)
	l.lm.set("core.push_allocs_per_frame", "allocs", allocsPerFrame)
	l.lm.set("core.shadow_push_ns_per_frame", "ns", l.tr.perUnit("core.shadow_push"))
	p1 := l.tr.perUnit("core.checkgrid_par1") / 1e6
	pm := l.tr.perUnit("core.checkgrid_parmax") / 1e6
	l.lm.set("core.checkgrid_ms_par1", "ms", p1)
	l.lm.set("core.checkgrid_ms_parmax", "ms", pm)
	l.lm.set("core.checkgrid_par_speedup", "ratio", p1/pm)
	return nil
}

// archiveRungs append the captures to a fresh archive as fleet
// sessions would, flushing every eight batches, then read an archive
// back with both iterators.
func (l *ladder) archiveRungs() error {
	dir := filepath.Join(l.dir, "ladder-archive")
	aw, err := archive.OpenWriter(dir, archive.Options{})
	if err != nil {
		return err
	}
	root := l.tr.id()
	start := time.Now()
	for i, c := range l.caps {
		for j, b := range splitBatches(c.frames) {
			t0 := time.Now()
			if err := aw.ArchiveFrames(uint64(i+1), "ladder", b); err != nil {
				aw.Close()
				return err
			}
			l.tr.record("archive.append", 0, root, root, t0, int64(len(b)))
			if j%8 == 7 {
				t0 = time.Now()
				if err := aw.Flush(); err != nil {
					aw.Close()
					return err
				}
				l.tr.record("archive.flush", 0, root, root, t0, 1)
			}
		}
	}
	if err := aw.Close(); err != nil {
		return err
	}
	l.tr.record("ladder.archive.append", root, 0, root, start, 0)
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	if l.archDir == "" {
		l.archDir = dir
	}
	cat, err := archive.OpenCatalog(l.archDir)
	if err != nil {
		return err
	}
	iter := func() (int64, error) {
		it := cat.Iter(archive.Query{})
		var n int64
		for it.Next() {
			n++
		}
		return n, closeIter(it.Err(), it.Close())
	}
	piter := func() (int64, error) {
		it := cat.ParallelIter(archive.Query{}, archive.ScanOptions{})
		var n int64
		for it.Next() {
			n++
		}
		return n, closeIter(it.Err(), it.Close())
	}
	if err := l.abRung("archive.iter", "archive.piter", iter, piter); err != nil {
		return err
	}
	l.lm.set("archive.append_ns_per_frame", "ns", l.tr.perUnit("archive.append"))
	l.lm.pct("archive.flush_ms_p50", "ms", durationsMS(l.tr.durations("archive.flush")), 0.5)
	l.lm.set("archive.bytes_per_frame", "bytes", float64(size)/float64(l.frames()))
	it := l.tr.perUnit("archive.iter")
	pit := l.tr.perUnit("archive.piter")
	l.lm.set("archive.iter_ns_per_record", "ns", it)
	l.lm.set("archive.piter_ns_per_record", "ns", pit)
	l.lm.set("archive.piter_speedup", "ratio", it/pit)
	return nil
}

func closeIter(iterErr, closeErr error) error {
	if iterErr != nil {
		return iterErr
	}
	return closeErr
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// durableRung ledgers the captures as fleet sessions: open, a watermark
// every four batches each followed by a forced sync, verdict, close.
func (l *ladder) durableRung() error {
	led, err := durable.Open(filepath.Join(l.dir, "ladder-ledger"))
	if err != nil {
		return err
	}
	root := l.tr.id()
	start := time.Now()
	for i, c := range l.caps {
		id := uint64(i + 1)
		if err := led.SessionOpened(id, id, wire.Version, "ladder", "strict"); err != nil {
			led.Close()
			return err
		}
		var frames uint64
		for j, b := range splitBatches(c.frames) {
			frames += uint64(len(b))
			if j%4 != 3 {
				continue
			}
			t0 := time.Now()
			if err := led.Watermark(id, uint64(j+1), frames, 0); err != nil {
				led.Close()
				return err
			}
			l.tr.record("durable.watermark", 0, root, root, t0, 1)
			t0 = time.Now()
			if err := led.Sync(); err != nil {
				led.Close()
				return err
			}
			l.tr.record("durable.sync", 0, root, root, t0, 1)
		}
		if err := led.VerdictReached(id, 0, wire.Verdict{FramesIngested: frames}); err != nil {
			led.Close()
			return err
		}
		if err := led.SessionClosed(id); err != nil {
			led.Close()
			return err
		}
	}
	if err := led.Close(); err != nil {
		return err
	}
	l.tr.record("ladder.durable", root, 0, root, start, 0)
	wm := durationsMS(l.tr.durations("durable.watermark"))
	for i := range wm {
		wm[i] *= 1000
	}
	sync := durationsMS(l.tr.durations("durable.sync"))
	l.lm.pct("durable.watermark_us_p50", "us", wm, 0.5)
	l.lm.pct("durable.sync_ms_p50", "ms", sync, 0.5)
	l.lm.pct("durable.sync_ms_p90", "ms", sync, 0.9)
	return nil
}

// recheckRung is the recheck A/B: one replay worker against GOMAXPROCS.
func (l *ladder) recheckRung() error {
	cat, err := archive.OpenCatalog(l.archDir)
	if err != nil {
		return err
	}
	cfg := core.Config{Rules: l.o.relaxedRS, Triage: rules.DefaultTriage()}
	run := func(workers int) func() (int64, error) {
		return func() (int64, error) {
			rep, err := recheck.Run(cat, l.db, cfg, recheck.Options{Workers: workers})
			if err != nil {
				return 0, err
			}
			return int64(rep.FramesReplayed), nil
		}
	}
	if err := l.abRung("recheck.w1", "recheck.wmax", run(1), run(0)); err != nil {
		return err
	}
	w1 := 1e9 / l.tr.perUnit("recheck.w1")
	wmax := 1e9 / l.tr.perUnit("recheck.wmax")
	l.lm.set("recheck.frames_per_s_w1", "frames/s", w1)
	l.lm.set("recheck.frames_per_s_wmax", "frames/s", wmax)
	l.lm.set("recheck.wmax_speedup", "ratio", wmax/w1)
	return nil
}

func (l *ladder) obsRungs() error {
	const calls = 100_000
	rec := flight.New(flight.Config{SampleEvery: 1})
	veh := rec.Intern("ladder")
	now := time.Now()
	err := l.rung("flight.record", func() (int64, error) {
		for i := 0; i < calls; i++ {
			rec.Record(1, veh, flight.StageEval, veh, uint64(i), now, time.Microsecond)
		}
		return calls, nil
	})
	if err != nil {
		return err
	}
	h := l.own.Histogram("perfbench_ladder_seconds", "Ladder observation target.", obs.DefaultLatencyBuckets())
	err = l.rung("obs.observe", func() (int64, error) {
		for i := 0; i < calls; i++ {
			h.Observe(float64(i%1000) * 1e-6)
		}
		return calls, nil
	})
	if err != nil {
		return err
	}
	err = l.rung("obs.scrape", func() (int64, error) {
		return 1, l.scrape.WritePrometheus(io.Discard)
	})
	if err != nil {
		return err
	}
	series := 0
	l.scrape.Each(func(obs.Metric) { series++ })
	l.lm.set("flight.record_ns", "ns", l.tr.perUnit("flight.record"))
	l.lm.set("obs.observe_ns", "ns", l.tr.perUnit("obs.observe"))
	l.lm.pct("obs.scrape_ms", "ms", durationsMS(l.tr.durations("obs.scrape")), 0.5)
	l.lm.set("obs.series", "count", float64(series))
	return nil
}
