package core_test

import (
	"sync"
	"testing"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/core"
	"cpsmon/internal/flight"
	"cpsmon/internal/hil"
	"cpsmon/internal/obs"
	"cpsmon/internal/rules"
	"cpsmon/internal/scenario"
	"cpsmon/internal/sigdb"
)

// pushFixture is the repository's shared benchmark capture — ten
// minutes of the follow scenario at seed 12, as in the root
// bench_test.go — cut into 100 ms batches the way fleet.Client.Replay
// cuts an uplink, so the per-push costs are paid at real traffic's
// rate.
var pushFixture struct {
	once    sync.Once
	batches [][]can.Frame
	frames  int
	err     error
}

func pushBatches(b *testing.B) ([][]can.Frame, int) {
	b.Helper()
	f := &pushFixture
	f.once.Do(func() {
		bench, err := hil.New(scenario.Follow(12, 10*time.Minute))
		if err != nil {
			f.err = err
			return
		}
		if err := bench.Run(10*time.Minute, nil); err != nil {
			f.err = err
			return
		}
		frames := bench.Log().Frames()
		f.frames = len(frames)
		for i := 0; i < len(frames); {
			end := frames[i].Time.Truncate(100*time.Millisecond) + 100*time.Millisecond
			j := i
			for j < len(frames) && frames[j].Time < end {
				j++
			}
			f.batches = append(f.batches, frames[i:j])
			i = j
		}
	})
	if f.err != nil {
		b.Fatal(f.err)
	}
	return f.batches, f.frames
}

// BenchmarkOnlinePush is the instrumentation-budget pair: the same
// batched push of the shared capture through a bare session and
// through one instrumented exactly as a fleet session is — metrics
// attached, and one batch in flight.DefaultSampleEvery stage-timed.
// Both report ns/frame. The budget is instrumented ≤ 5% above bare on
// the same machine; compare the two lines of one run rather than
// asserting a wall-clock bound in go test.
func BenchmarkOnlinePush(b *testing.B) {
	batches, frames := pushBatches(b)
	mon, err := rules.NewStrictMonitor()
	if err != nil {
		b.Fatal(err)
	}
	met := core.NewMetrics(obs.NewRegistry(), "strict", mon.RuleNames())
	for _, bc := range []struct {
		name         string
		instrumented bool
	}{{"bare", false}, {"instrumented", true}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				om, err := mon.Online(sigdb.Vehicle())
				if err != nil {
					b.Fatal(err)
				}
				if bc.instrumented {
					om.Instrument(met)
				}
				for n, batch := range batches {
					timed := bc.instrumented && n%flight.DefaultSampleEvery == 0
					if timed {
						om.BeginStageTiming()
					}
					if _, _, err := om.PushFrames(batch); err != nil {
						b.Fatal(err)
					}
					if timed {
						om.EndStageTiming()
					}
				}
				if _, err := om.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
		})
	}
}
