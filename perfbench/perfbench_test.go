package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/wire"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // unsorted on purpose
	}
	return out
}

// The percentile rule: a reported percentile needs at least ten samples
// beyond it, and the run fails loudly otherwise.
func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // nearest rank 90, ten beyond
		{99, 0.9, 0, false},  // rank 90, nine beyond
		{20, 0.5, 10, true},  // rank 10, ten beyond
		{19, 0.5, 0, false},  // rank 10, nine beyond
		{1000, 0.9, 900, true},
		{5, 0.5, 0, false},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("percentile(n=%d, p=%v) error = %v, want ok=%v", c.n, c.p, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("percentile(n=%d, p=%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if _, err := percentile(seq(200), 1); err == nil {
		t.Error("p=1 accepted")
	}
}

func TestWindowPct(t *testing.T) {
	ms := newMetrics()
	ms.windowPct("lat", "ms", [][]float64{seq(100), seq(200), seq(1000)}, 0.9)
	if ms.err != nil {
		t.Fatal(ms.err)
	}
	if got := ms.m["lat"].Value; got != 180 { // median of 90, 180, 900
		t.Errorf("windowed p90 = %v, want 180", got)
	}
	thin := newMetrics()
	thin.windowPct("lat", "ms", [][]float64{seq(1000), seq(50)}, 0.9)
	if thin.err == nil {
		t.Error("a window too thin for p90 was accepted")
	}
	start := time.Unix(0, 0)
	for _, c := range []struct {
		at   time.Duration
		want int
	}{{0, 0}, {999 * time.Millisecond, 0}, {time.Second, 1}, {2500 * time.Millisecond, 2}, {10 * time.Second, 2}, {-time.Second, 0}} {
		if got := window(start, start.Add(c.at), 3*time.Second, 3); got != c.want {
			t.Errorf("window(%v) = %d, want %d", c.at, got, c.want)
		}
	}
}

// A slice's CPU cost counts only the frames of sessions that reached a
// verdict, and its wall rate the same frames over the slice's length.
func TestSliceCost(t *testing.T) {
	done := &session{verdict: &wire.Verdict{FramesIngested: 3000}}
	refused := &session{err: os.ErrClosed}
	p := &phase{sessions: []*session{done, refused, done}, wall: 2 * time.Millisecond, cpu: 3 * time.Millisecond}
	if got := sliceCPU([]*phase{p})[0]; got != 500 { // 3 ms over 6000 frames
		t.Errorf("sliceCPU = %v ns a frame, want 500", got)
	}
	if got := sliceRates([]*phase{p})[0]; got != 3e6 {
		t.Errorf("sliceRates = %v frames/s, want 3e6", got)
	}
}

// The heap sampler reports the peak live heap of each lap: a lap that
// ends after a large allocation is collected no longer reads it.
func TestHeapLap(t *testing.T) {
	const size = 64 << 20
	h := startHeapSampler()
	big := make([]byte, size)
	runtime.GC()
	if got := h.lap(); got < size>>20 {
		t.Errorf("lap holding %d MiB live read %.1f MiB", size>>20, got)
	}
	runtime.KeepAlive(big) // collectable from here on
	runtime.GC()
	h.lap() // started while the allocation was still counted live
	runtime.GC()
	if got := h.finish(); got >= size>>20 {
		t.Errorf("lap after the allocation was collected read %.1f MiB", got)
	}
}

// Open-loop lateness accounting: the schedule never moves, lateness is
// measured from it, and detection latency starts at the scheduled send
// of the batch that made the violation decidable.
func TestOpenLoopAccounting(t *testing.T) {
	start := time.Unix(100, 0)
	p := &pacer{start: start, rate: 1000} // 1000 frames/s on this connection
	var due []time.Time
	for i := 0; i < 4; i++ {
		due = append(due, p.next(100))
	}
	step := 100 * time.Millisecond
	for i, d := range due {
		if want := start.Add(time.Duration(i) * step); !d.Equal(want) {
			t.Errorf("batch %d due %v, want %v", i, d.Sub(start), want.Sub(start))
		}
	}
	if got := lateness(due[1], due[1].Add(-3*time.Millisecond)); got != 0 {
		t.Errorf("early send lateness = %v, want 0", got)
	}
	if got := lateness(due[1], due[1].Add(7*time.Millisecond)); got != 7*time.Millisecond {
		t.Errorf("late send lateness = %v, want 7ms", got)
	}
	// A stalled batch does not move its successors' schedule.
	if got := due[2].Sub(due[1]); got != step {
		t.Errorf("schedule moved: %v between batches", got)
	}
}

// Uplink batches are cut in capture-time windows as fleet.Client.Replay
// cuts them, and a begin's deciding batch is found by capture time.
func TestBatchesAndDetection(t *testing.T) {
	// A frame every 4ms for 0.31s: 25 frames per 100ms window.
	frames := make([]can.Frame, 78)
	for i := range frames {
		frames[i].Time = time.Duration(i) * 4 * time.Millisecond
	}
	b := splitBatches(frames)
	if len(b) != 4 || len(b[0]) != 25 || len(b[3]) != 3 {
		t.Fatalf("split into %d batches, first %d, last %d frames", len(b), len(b[0]), len(b[len(b)-1]))
	}
	if b[1][0].Time != batchWindow {
		t.Errorf("batch 1 starts at %v, want %v", b[1][0].Time, batchWindow)
	}
	// A dense burst is capped at batchMaxFrames per batch.
	dense := make([]can.Frame, batchMaxFrames+5)
	if b := splitBatches(dense); len(b) != 2 || len(b[0]) != batchMaxFrames {
		t.Errorf("dense capture split into %d batches", len(b))
	}

	start := time.Unix(100, 0)
	sched := []time.Time{start, start.Add(time.Millisecond), start.Add(2 * time.Millisecond), start.Add(3 * time.Millisecond)}
	// The first frame at or after 130ms is at 132ms, in batch 1.
	recv := sched[1].Add(2 * time.Millisecond)
	if got, ok := detectLatency(b, sched, 130*time.Millisecond, recv); !ok || got != 2*time.Millisecond {
		t.Errorf("detect latency = %v, %v; want 2ms", got, ok)
	}
	// A frame exactly on a batch boundary belongs to the later batch;
	// an instant just after a batch's last frame, to the next one.
	if j, ok := decidingBatch(b, batchWindow); !ok || j != 1 {
		t.Errorf("boundary frame in batch %d", j)
	}
	if j, ok := decidingBatch(b, 97*time.Millisecond); !ok || j != 1 {
		t.Errorf("instant between batches decided by batch %d", j)
	}
	// Decidable only after the last frame: a verdict-time begin.
	if _, ok := detectLatency(b, sched, time.Hour, recv); ok {
		t.Error("end-of-stream begin counted as a detection")
	}
}

// benchmarkSpec mirrors the parts of BENCHMARK.json the code must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	var e2e, layers []struct{ Name, Unit string }
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, struct{ Name, Unit string }{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, struct{ Name, Unit string }{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)
	seen := make(map[string]bool)
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if !metricName.MatchString(m.name) {
				t.Errorf("metric name %q does not match %s", m.name, metricName)
			}
			if seen[m.name] {
				t.Errorf("metric %s listed twice", m.name)
			}
			seen[m.name] = true
		}
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", w.Name, err)
		}
	}

	ms := newMetrics()
	ms.set("bad name", "ms", 1)
	if ms.err == nil {
		t.Error("a metric name with a space was accepted")
	}
	ms = newMetrics()
	ms.set("x", "ms", math.NaN())
	if ms.err == nil {
		t.Error("a NaN metric was accepted")
	}
	ms = newMetrics()
	ms.set("x", "ms", 1)
	ms.set("x", "ms", 2)
	if ms.err == nil {
		t.Error("a repeated metric was accepted")
	}
}

// Seed determinism: the same seed generates byte-identical captures, and
// another seed different ones.
func TestSeedDeterminism(t *testing.T) {
	dump := func(seed int64) []byte {
		t.Helper()
		caps, err := generateAll(append(fleetMix(seed, 2), oracleCorpus(seed, 4)[2:]...))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, c := range caps {
			buf.WriteString(c.name)
			if _, err := c.log.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	a, b := dump(7), dump(7)
	if !bytes.Equal(a, b) {
		t.Error("seed 7 generated different inputs on two calls")
	}
	if bytes.Equal(a, dump(8)) {
		t.Error("seeds 7 and 8 generated identical inputs")
	}
}
