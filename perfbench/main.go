// Command perfbench is the frame→verdict benchmark: it generates seeded
// CAN traffic with the repository's own HIL substrates, drives one
// workload through the system's public APIs, checks every verdict
// against the offline oracle, and prints every metric with its unit.
//
// Usage (from the repository root, through the build wrapper):
//
//	python3 perfbench/run.py --workload fleet-live --seed 1 --seconds 12 --trace 0
//
// Workloads: fleet-live, fleet-canary, archive-recheck, offline-oracle.
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off and timed on the process CPU clock; with --trace 1 a
// separate traced run re-drives every layer of the path and the result
// carries the per-layer metrics instead, the wall-clock latencies and
// throughput among them, with the spans written to .bench_build/traces/.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {value, unit}}}
//
// An operation is one fleet session, one rechecked archived session or
// one oracle log; it fails when it is refused, loses frames, or its
// verdict or events differ from the oracle's. failed/attempted is the
// failed fraction.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"

	"cpsmon/internal/obs"
	"cpsmon/internal/sigdb"
)

// setupReps is how many times a run sets its workload up, each from a
// collected heap; setup_s is the median CPU time of a set-up, and the
// last set-up is the one measured. A set-up of a few tenths of a second
// reads up to a third faster or slower from one to the next on a
// shared host, so it takes this many to steady the median.
const setupReps = 9

// outcome is what one workload's timed part produced.
type outcome struct {
	attempted, failed int
	firstErr          error

	// cpuPerFrame is the process CPU time per frame checked to a
	// verdict, in ns, and wallFPS the frames per wall second; each is
	// the median over the timed part's slices.
	cpuPerFrame, wallFPS float64
	peakHeapMB           float64
	// frames is everything checked in the timed part, and gc the
	// runtime's allocation and collection counts over it.
	frames uint64
	gc     gcCounters

	// Traced runs only.
	layers        *metrics
	traceOverhead float64
	reg           *obs.Registry
	archDir       string
}

func (o *outcome) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// failAll marks every attempted operation failed.
func (o *outcome) failAll(err error) {
	o.failed = o.attempted
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// workload is one benchmark input set.
type workload interface {
	// setup generates the inputs into memory and builds whatever the
	// timed part needs under dir (archive, ledger, running server).
	setup(dir string) error
	teardown() error
	// measure runs the timed part for seconds and checks its outputs.
	// A non-nil tracer makes it the traced run.
	measure(o *oracle, seconds int, tr *tracer) (*outcome, error)
	captures() []capture
}

func (w *fleetWorkload) captures() []capture   { return w.caps }
func (w *recheckWorkload) captures() []capture { return w.caps }
func (w *offlineWorkload) captures() []capture { return w.caps }

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "fleet-live":
		return &fleetWorkload{rate: 600_000, seed: seed}, nil
	case "fleet-canary":
		return &fleetWorkload{canary: true, rate: 400_000, seed: seed}, nil
	case "archive-recheck":
		return &recheckWorkload{seed: seed}, nil
	case "offline-oracle":
		return &offlineWorkload{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fleet-live, fleet-canary, archive-recheck or offline-oracle)", name)
}

// metricDef is a reported metric's name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports. Both times are
// read on the process CPU clock (see cpuTime): on a shared virtual
// machine, wall-clock throughput and latency move with the
// hypervisor's steal by more than any bound a regression could be held
// to. The wall-clock figures are printed as text beside them, and the
// traced run reports the fleet latencies as per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ns_per_frame", "ns"},
	{"peak_heap_mb", "MiB"},
}

// perLayer are the metrics a --trace 1 run reports, layer by layer
// along the frame→verdict path.
var perLayer = []metricDef{
	{"fleet.detect_p50_ms", "ms"},
	{"fleet.detect_p90_ms", "ms"},
	{"fleet.verdict_p50_ms", "ms"},
	{"gen.lag_p50_ms", "ms"},
	{"gen.lag_p90_ms", "ms"},
	{"gen.send_blocked_frac", "ratio"},
	{"fleet.hello_ms_p50", "ms"},
	{"fleet.emit_lag_ms_p50", "ms"},
	{"fleet.ingest_ms_per_batch", "ms"},
	{"fleet.frames_per_batch", "frames"},
	{"fleet.batches_blocked", "count"},
	{"fleet.shadow_batches", "count"},
	{"fleet.shadow_divergent_frac", "ratio"},
	{"wire.deliver_ms_p50", "ms"},
	{"wire.encode_ns_per_frame", "ns"},
	{"wire.decode_ns_per_frame", "ns"},
	{"wire.bytes_per_frame", "bytes"},
	{"sigdb.unpack_ns_per_frame", "ns"},
	{"speclang.step_ns_per_step", "ns"},
	{"speclang.eval_ns_per_step", "ns"},
	{"core.push_ns_per_frame", "ns"},
	{"core.push_metrics_ns_per_frame", "ns"},
	{"core.push_timed_ns_per_frame", "ns"},
	{"core.metrics_tax_frac", "ratio"},
	{"core.timing_tax_frac", "ratio"},
	{"core.push_allocs_per_frame", "allocs"},
	{"core.shadow_push_ns_per_frame", "ns"},
	{"core.checkgrid_ms_par1", "ms"},
	{"core.checkgrid_ms_parmax", "ms"},
	{"core.checkgrid_par_speedup", "ratio"},
	{"trace.fromcanlog_ns_per_frame", "ns"},
	{"trace.align_ns_per_step", "ns"},
	{"archive.append_ns_per_frame", "ns"},
	{"archive.flush_ms_p50", "ms"},
	{"archive.bytes_per_frame", "bytes"},
	{"archive.iter_ns_per_record", "ns"},
	{"archive.piter_ns_per_record", "ns"},
	{"archive.piter_speedup", "ratio"},
	{"durable.watermark_us_p50", "us"},
	{"durable.sync_ms_p50", "ms"},
	{"durable.sync_ms_p90", "ms"},
	{"recheck.frames_per_s_w1", "frames/s"},
	{"recheck.frames_per_s_wmax", "frames/s"},
	{"recheck.wmax_speedup", "ratio"},
	{"flight.record_ns", "ns"},
	{"obs.observe_ns", "ns"},
	{"obs.scrape_ms", "ms"},
	{"obs.series", "count"},
	{"go.alloc_bytes_per_frame", "bytes"},
	{"go.gc_cycles_per_mframe", "count"},
	{"bench.frames_per_s", "frames/s"},
	{"bench.trace_overhead_frac", "ratio"},
}

// fleetOnly is the leading run of perLayer that exists only on the
// fleet path (load generator, fleet server, wire delivery); workloads
// that bypass it report these as 0.
var fleetOnly = perLayer[:14]

// conform checks that ms holds exactly the metrics of want, with their
// units, and returns them in want's order.
func conform(ms *metrics, want []metricDef) error {
	if ms.err != nil {
		return ms.err
	}
	if len(ms.m) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(ms.m), len(want))
	}
	for _, d := range want {
		m, ok := ms.m[d.name]
		if !ok {
			return fmt.Errorf("metric %s not reported", d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("metric %s in %s, want %s", d.name, m.Unit, d.unit)
		}
	}
	ms.order = ms.order[:0]
	for _, d := range want {
		ms.order = append(ms.order, d.name)
	}
	return nil
}

func main() { os.Exit(run()) }

func run() int {
	var (
		root     = flag.String("root", ".", "repository root; scratch state goes under <root>/.bench_build")
		name     = flag.String("workload", "", "fleet-live, fleet-canary, archive-recheck or offline-oracle")
		seed     = flag.Int64("seed", 1, "input seed: the same seed generates byte-identical inputs")
		seconds  = flag.Int("seconds", 12, "how long the timed part runs")
		traceArg = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if err := bench(*root, *name, *seed, *seconds, *traceArg == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func bench(root, name string, seed int64, seconds int, traced bool) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	runDir := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	env := newEnvHeader(root, runDir, name, seed, seconds, traced)
	hdr, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	fmt.Println(string(hdr))

	o, err := newOracle()
	if err != nil {
		return err
	}
	var w workload
	var setups, setupWalls []float64
	for i := 0; i < setupReps; i++ {
		if w, err = newWorkload(name, seed); err != nil {
			return err
		}
		dir := filepath.Join(runDir, fmt.Sprintf("setup-%d", i))
		runtime.GC()
		sw := startWatch()
		if err := w.setup(dir); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		wall, cpu := sw.elapsed()
		setups = append(setups, cpu.Seconds())
		setupWalls = append(setupWalls, wall.Seconds())
		if i < setupReps-1 {
			if err := w.teardown(); err != nil {
				return fmt.Errorf("teardown: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	// Start the timed part from a collected heap and a quiet disk: the
	// previous run's archive writes may still be in writeback, and the
	// ledger's fsyncs would wait behind them.
	runtime.GC()
	syscall.Sync()

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	steal := startSteal()
	out, err := w.measure(o, seconds, tr)
	if err != nil {
		return errors.Join(err, w.teardown())
	}
	got := newMetrics()
	if traced {
		got, err = layerMetrics(o, w, out, tr, runDir)
	} else {
		got.set("setup_s", "s", median(setups))
		got.set("cpu_ns_per_frame", "ns", out.cpuPerFrame)
		got.set("peak_heap_mb", "MiB", out.peakHeapMB)
	}
	if terr := w.teardown(); err == nil {
		err = terr
	}
	if err == nil {
		want := endToEnd
		if traced {
			want = perLayer
		}
		err = conform(got, want)
	}
	if err != nil {
		return err
	}
	if traced {
		dir := filepath.Join(root, ".bench_build", "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := tr.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)), env); err != nil {
			return err
		}
	}

	if out.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", out.failed, out.attempted, out.firstErr)
	}
	for _, n := range got.order {
		fmt.Printf("%-34s %14.6g %s\n", n, got.m[n].Value, got.m[n].Unit)
	}
	fmt.Printf("%-34s %14.6g %s\n", "failed_frac", float64(out.failed)/float64(max(out.attempted, 1)), "ratio")
	if f, ok := steal.frac(); ok {
		fmt.Printf("host: %.1f%% of CPU time stolen by the hypervisor during the timed part\n", 100*f)
	}
	fmt.Printf("wall clock: %.6g frames/s, %.4g s set-up\n", out.wallFPS, median(setupWalls))
	line, err := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   got.m,
	}.line()
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// layerMetrics assembles a traced run's per-layer metrics: the
// workload's own (fleet path), the ladder rungs over its captures, the
// runtime deltas of its timed part and the tracing overhead.
func layerMetrics(o *oracle, w workload, out *outcome, tr *tracer, runDir string) (*metrics, error) {
	lm := out.layers
	if lm == nil {
		lm = newMetrics()
		for _, m := range fleetOnly {
			lm.set(m.name, m.unit, 0)
		}
	}
	caps := w.captures()
	if len(caps) > ladderCaps {
		caps = caps[:ladderCaps]
	}
	own := obs.NewRegistry()
	scrape := out.reg
	if scrape == nil {
		scrape = own
	}
	dir := filepath.Join(runDir, "ladder")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &ladder{tr: tr, lm: lm, o: o, db: sigdb.Vehicle(), caps: caps, dir: dir,
		archDir: out.archDir, scrape: scrape, own: own}
	if err := l.run(); err != nil {
		return nil, err
	}
	frames := float64(max(out.frames, 1))
	lm.set("go.alloc_bytes_per_frame", "bytes", float64(out.gc.allocBytes)/frames)
	lm.set("go.gc_cycles_per_mframe", "count", float64(out.gc.gcCycles)/frames*1e6)
	lm.set("bench.frames_per_s", "frames/s", out.wallFPS)
	lm.set("bench.trace_overhead_frac", "ratio", out.traceOverhead)
	return lm, lm.err
}
