package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
// A percentile with a thinner tail is one or two samples wide and does
// not repeat from run to run, so reporting it is an error, not a number.
const minTail = 10

// percentile returns the p-quantile (0 < p < 1) of samples by the
// nearest-rank rule. It fails when fewer than minTail samples lie
// beyond the rank, so a run too short for the percentile it reports
// stops loudly instead of printing noise.
func percentile(samples []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v out of (0,1)", p)
	}
	n := len(samples)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*p, n, n-rank, minTail)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value (mean of the middle two for even counts)
// of a small set of repeated measurements, such as the set-up times of
// one run. It applies no tail rule: it summarizes repetitions, not a
// latency distribution.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts durations to fractional milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// metricName is the shape every metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's reported numbers by name.
type metrics struct {
	m     map[string]metric
	order []string
	err   error
}

func newMetrics() *metrics { return &metrics{m: make(map[string]metric)} }

// set records one metric. A malformed or repeated name, or a value
// that is not a finite number, poisons the set: the run then fails
// instead of printing a result that would be misread.
func (mt *metrics) set(name, unit string, v float64) {
	switch {
	case mt.err != nil:
		return
	case !metricName.MatchString(name):
		mt.err = fmt.Errorf("metric name %q does not match %s", name, metricName)
	case math.IsNaN(v) || math.IsInf(v, 0):
		mt.err = fmt.Errorf("metric %s is %v", name, v)
	}
	if mt.err != nil {
		return
	}
	if _, dup := mt.m[name]; dup {
		mt.err = fmt.Errorf("metric %s reported twice", name)
		return
	}
	mt.m[name] = metric{Value: v, Unit: unit}
	mt.order = append(mt.order, name)
}

// pct records the p-quantile of samples, failing the set when the
// sample tail is too thin for p.
func (mt *metrics) pct(name, unit string, samples []float64, p float64) {
	v, err := percentile(samples, p)
	if err != nil {
		if mt.err == nil {
			mt.err = fmt.Errorf("%s: %w", name, err)
		}
		return
	}
	mt.set(name, unit, v)
}

// windowPct records the median over windows of each window's
// p-quantile. Splitting a run's latency samples into consecutive time
// windows keeps one disturbed stretch of the run from moving the
// metric by more than one window's worth; every window must hold
// enough samples for p on its own.
func (mt *metrics) windowPct(name, unit string, windows [][]float64, p float64) {
	var per []float64
	for i, w := range windows {
		v, err := percentile(w, p)
		if err != nil {
			if mt.err == nil {
				mt.err = fmt.Errorf("%s, window %d of %d: %w", name, i+1, len(windows), err)
			}
			return
		}
		per = append(per, v)
	}
	mt.set(name, unit, median(per))
}

// window returns which of n equal windows of span, starting at start,
// the instant at falls in; instants past the end count in the last.
func window(start, at time.Time, span time.Duration, n int) int {
	i := int(at.Sub(start) * time.Duration(n) / span)
	return max(0, min(n-1, i))
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r result) line() (string, error) {
	b, err := json.Marshal(r)
	return string(b), err
}
