package main

import (
	"fmt"
	"math/rand"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/hil"
	"cpsmon/internal/inject"
	"cpsmon/internal/scenario"
	"cpsmon/internal/sigdb"
)

// captureLen is the length of every generated capture: 60 s of bus
// traffic, about 37.5k frames at the paper's 10/40 ms periods.
const captureLen = 60 * time.Second

// scenarios are the HIL presets the captures are drawn from.
var scenarios = []struct {
	name string
	cfg  func(seed int64) hil.Config
}{
	{"follow", func(s int64) hil.Config { return scenario.Follow(s, captureLen) }},
	{"cutin", scenario.CutIn},
	{"approach", scenario.Approach},
	{"leadbrake", scenario.LeadBrake},
	{"drivecycle", scenario.DriveCycle},
}

// faultClass is one of the paper's Table I fault classes, or none.
type faultClass int

const (
	faultRandom faultClass = iota
	faultBallista
	faultBitflip
	faultNone
)

func (f faultClass) String() string {
	return [...]string{"random", "ballista", "bitflip", "clean"}[f]
}

// faultPlan is a periodic burst schedule: from warmup on, every period
// the multiplexors of signals randomly chosen FSRACC inputs are driven
// with faulty values for burst, then released.
type faultPlan struct {
	warmup, period, burst time.Duration
	signals               int
}

// fleetBursts are dense, short bursts on several inputs at once: the
// vehicle keeps recovering and faulting, so a 60 s capture yields
// several violations under the strict rules.
var fleetBursts = faultPlan{warmup: 2 * time.Second, period: 500 * time.Millisecond, burst: 200 * time.Millisecond, signals: 3}

// tableIHolds mirrors the Table I campaign: one input held at a faulty
// value for seconds at a time, with recovery in between.
var tableIHolds = faultPlan{warmup: 5 * time.Second, period: 15 * time.Second, burst: 8 * time.Second, signals: 1}

// logSpec identifies one generated capture.
type logSpec struct {
	scenario    int
	fault       faultClass
	plan        faultPlan
	typeChecked bool
	seed        int64
}

// capture is one generated bus log; frames is log.Frames().
type capture struct {
	name   string
	log    *can.Log
	frames []can.Frame
}

// mix derives a per-capture seed from the run seed, so neighbouring run
// seeds never share captures.
func mix(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z ^= z >> 31
	z *= 0x94d049bb133111eb
	z ^= z >> 29
	return int64(z >> 1)
}

// fleetMix is the fleet session mix: the five scenarios crossed with
// the four fault variants (three Table I classes and clean), so three
// of every four sessions carry fault bursts. Vehicles have no injection
// type checking.
func fleetMix(seed int64, n int) []logSpec {
	specs := make([]logSpec, n)
	for i := range specs {
		specs[i] = logSpec{
			scenario: i % len(scenarios),
			fault:    faultClass(i % 4),
			plan:     fleetBursts,
			seed:     mix(seed, i),
		}
	}
	return specs
}

// oracleCorpus is the offline test-oracle corpus: Table I-style
// injection tests on the type-checked HIL follow bench, one in four
// slots replaced by an uninjected drive-cycle recording.
func oracleCorpus(seed int64, n int) []logSpec {
	specs := make([]logSpec, n)
	for i := range specs {
		sp := logSpec{scenario: 0, fault: faultClass(i % 3), plan: tableIHolds, typeChecked: true, seed: mix(seed, 1000+i)}
		if i%4 == 3 {
			sp = logSpec{scenario: 4, fault: faultNone, seed: mix(seed, 1000+i)}
		}
		specs[i] = sp
	}
	return specs
}

// generate runs the HIL co-simulation for one capture.
func generate(sp logSpec) (capture, error) {
	sc := scenarios[sp.scenario]
	cfg := sc.cfg(sp.seed)
	cfg.TypeChecking = sp.typeChecked
	bench, err := hil.New(cfg)
	if err != nil {
		return capture{}, err
	}
	db := sigdb.Vehicle()
	inputs := sigdb.FSRACCInputs()
	rng := rand.New(rand.NewSource(sp.seed ^ 0x5ca1ab1e))
	on := false
	err = bench.Run(captureLen, func(now time.Duration, b *hil.Bench) error {
		if sp.fault == faultNone {
			return nil
		}
		inBurst := now >= sp.plan.warmup && (now-sp.plan.warmup)%sp.plan.period < sp.plan.burst
		switch {
		case inBurst && !on:
			on = true
			for k := 0; k < sp.plan.signals; k++ {
				sig, ok := db.Signal(inputs[rng.Intn(len(inputs))])
				if !ok {
					return fmt.Errorf("unknown FSRACC input")
				}
				var v float64
				switch sp.fault {
				case faultRandom:
					v = inject.RandomValue(rng, sig, sp.typeChecked)
				case faultBallista:
					v = inject.BallistaValue(rng, sig, sp.typeChecked)
				case faultBitflip:
					cur, err := b.BusValue(sig.Name)
					if err != nil {
						return err
					}
					v = inject.FlipBits(rng, sig, cur, 1+rng.Intn(4))
				}
				if err := b.SetInjection(sig.Name, v); err != nil && !sp.typeChecked {
					return err
				}
				// A type-checked bench refuses values outside the
				// signal's declared type, as the paper's HIL did; the
				// refused injection is simply skipped.
			}
		case !inBurst && on:
			on = false
			b.ClearAllInjections()
		}
		return nil
	})
	if err != nil {
		return capture{}, fmt.Errorf("generate %s/%s: %w", sc.name, sp.fault, err)
	}
	log := bench.Log()
	return capture{name: sc.name + "/" + sp.fault.String(), log: log, frames: log.Frames()}, nil
}

// generateAll generates the captures in order.
func generateAll(specs []logSpec) ([]capture, error) {
	out := make([]capture, len(specs))
	for i, sp := range specs {
		c, err := generate(sp)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// frameCount sums the frames of the captures.
func frameCount(caps []capture) int {
	n := 0
	for _, c := range caps {
		n += len(c.frames)
	}
	return n
}
