package main

import (
	"sort"
	"time"

	"cpsmon/internal/can"
)

// Uplink batches are cut as fleet.Client.Replay cuts them, the path
// `monitorctl -stream` uplinks a capture on: each batch spans at most
// batchWindow of capture time and holds at most batchMaxFrames frames
// (the client's replayWindow and maxBatchFrames). At the paper's 10/40
// ms periods that is about 62 frames per batch.
const (
	batchWindow    = 100 * time.Millisecond
	batchMaxFrames = 4096
)

// splitBatches cuts a capture into consecutive uplink batches: a batch
// starts at the first frame not yet sent and takes every later frame
// less than batchWindow after it, up to batchMaxFrames.
func splitBatches(frames []can.Frame) [][]can.Frame {
	var out [][]can.Frame
	for i := 0; i < len(frames); {
		j := i + 1
		for j < len(frames) && frames[j].Time < frames[i].Time+batchWindow && j-i < batchMaxFrames {
			j++
		}
		out = append(out, frames[i:j])
		i = j
	}
	return out
}

// pacer is an open-loop schedule for one connection: the batch that
// follows n already-scheduled frames is due at start + n/rate, whatever
// happened to the batches before it. A stall therefore makes later
// batches late instead of moving the schedule.
type pacer struct {
	start time.Time
	rate  float64 // frames per second on this connection
	sent  int64   // frames scheduled so far
}

// next returns the due time of a batch of n frames and advances the
// schedule past it.
func (p *pacer) next(n int) time.Time {
	due := p.start.Add(time.Duration(float64(p.sent) / p.rate * float64(time.Second)))
	p.sent += int64(n)
	return due
}

// lateness is how far behind its due time a batch was handed to the
// client. A sender that is early waits for the due time, so lateness
// is never negative; timer overshoot counts, because the batch really
// was sent that late.
func lateness(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}

// decidingBatch returns the index of the batch that carries the first
// frame at or after t — for a violation beginning at Event.Time, t is
// Event.Time plus the rule's horizon, the earliest capture time at
// which the violation is decidable. That is the first batch whose last
// frame is at or after t. It reports false when no frame of the
// capture is that late: such a begin is decided by the end of the
// stream, and its latency belongs to the verdict, not to detection.
func decidingBatch(batches [][]can.Frame, t time.Duration) (int, bool) {
	j := sort.Search(len(batches), func(j int) bool {
		b := batches[j]
		return b[len(b)-1].Time >= t
	})
	return j, j < len(batches)
}

// detectLatency is the open-loop detection latency of one received
// begin event: receipt minus the scheduled send time of the batch that
// made the violation decidable. Because it starts from the schedule,
// not from the actual send, queueing behind a stalled batch and a late
// generator both count against the system, as a vehicle would see them.
func detectLatency(batches [][]can.Frame, sched []time.Time, decideAt time.Duration, recv time.Time) (time.Duration, bool) {
	j, ok := decidingBatch(batches, decideAt)
	if !ok || j >= len(sched) {
		return 0, false
	}
	return recv.Sub(sched[j]), true
}
