package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/core"
	"cpsmon/internal/flight"
	"cpsmon/internal/obs"
	"cpsmon/internal/speclang"
	"cpsmon/internal/wire"
)

// Session lifecycle states, advanced monotonically. The state is only
// read for introspection; the lifecycle itself is driven by the
// reader/worker handoff below.
const (
	stateStreaming int32 = iota + 1
	stateDraining
	stateClosed
)

// item is one queued unit of ingest work: a run of frames plus the
// moment it entered the queue, for latency accounting. A version-2
// item carries its batch sequence number; the finish marker carries
// the client's declared final sequence instead of frames.
type item struct {
	frames []can.Frame
	seq    uint64
	finish bool
	enq    time.Time
}

// gapInfo describes a run of shed frames: how many, over which capture
// interval. The worker folds these into gap events in sequence order.
type gapInfo struct {
	n        uint64
	from, to time.Duration
}

// ruleTally accumulates a session's closed violations per rule for the
// end-of-stream verdict.
type ruleTally struct {
	violations, real, transient, negligible uint32
}

// session is one monitored vehicle. For a version-1 peer its life is
// one TCP connection, exactly as before. For a version-2 peer the
// session outlives connections: each connection is an attachment (a
// reader goroutine decoding records into a bounded queue plus a worker
// goroutine feeding the monitor and writing acks/events back), and
// between attachments the session parks in the server's resume table,
// monitor state intact, until the grace window expires.
//
// The reader owns the connection's read half; the worker owns all
// writes after the handshake grant, so no write lock is needed.
type session struct {
	id      uint64
	srv     *Server
	proto   uint16
	token   uint64 // resume key, v2 only
	vehicle string

	om    *core.OnlineMonitor
	entry *specEntry

	// Spec identity for the verdict: the Hello's spec selection and
	// the epoch stamp resolved with it (advanced by a mid-stream
	// candidate adoption). Worker-owned after the handshake.
	specName  string
	specEpoch uint64

	// Rollout state (see rollout.go), all worker-owned: the worker's
	// view of the server rollout generation, the candidate being
	// dual-evaluated (nil shadow-off — the only word the hot path
	// checks), the candidate's running verdict tally for adoption at
	// promote, the primary's retained events for the current batch, and
	// the divergence scratch map.
	rolloutGen  uint64
	shadow      *core.ShadowMonitor
	shadowHash  string
	shadowEntry *specEntry
	shadowTally map[string]*ruleTally
	primShadow  []core.OnlineEvent
	divScratch  map[string]int

	// Attachment state, replaced on every resume. Written only by the
	// attaching goroutine before the reader/worker start.
	conn       net.Conn
	br         *bufio.Reader
	bw         *bufio.Writer
	queue      chan item
	workerDone chan struct{}

	// endMu guards the attachment outcome: abort is a terminal
	// protocol failure (the session dies with an Error record),
	// suspended means the connection was lost but the session should
	// park for resume. Both reader and worker may end an attachment.
	endMu     sync.Mutex
	abort     error
	suspended bool

	// v2 sequencing. lastEnq is reader-owned within an attachment;
	// lastApplied and events are worker-owned; resumeFrom is set by
	// the resume handshake before the worker starts. events retains
	// every emitted event so a resume can replay the unseen tail;
	// events[i] has sequence i+1.
	lastEnq     uint64
	lastApplied uint64
	resumeFrom  uint64
	// ledgeredSeq is the last batch sequence a ledger watermark covers
	// (worker-owned; seeded by restore). Acks and resume grants never
	// exceed it — the client prunes its replay buffer on both, so an
	// unledgered acknowledgement could strand frames a crash then
	// needs back.
	ledgeredSeq uint64
	events      []wire.Event
	finalized   bool
	// delivered records that the verdict write reached the transport;
	// a finalized-but-undelivered session stays resumable even through
	// a server drain, so the client can come back for its verdict.
	delivered  bool
	verdictRec *wire.VerdictSeq

	// shed records drop-mode load shedding by batch sequence, written
	// by the reader and folded into gap events by the worker.
	shedMu sync.Mutex
	shed   map[uint64]gapInfo

	// Worker-local accounting, reported in the verdict.
	tally    map[string]*ruleTally
	ingested uint64
	rejected uint64
	lastTime time.Duration
	sawFrame bool

	// evScratch is the wire-event buffer reused across apply calls;
	// events are copied out (retained or written) before the next batch.
	evScratch []wire.Event

	// Flight instrumentation (see flightglue.go): the interned vehicle
	// ref and the per-vehicle end-to-end latency histogram, both set by
	// setupFlight when the server carries a recorder, zero otherwise.
	fveh flight.Ref
	e2e  *obs.Histogram

	// quarantined counts malformed records skipped on the current
	// attachment (reader-owned, reset per attachment).
	quarantined int

	// dropped is written by the reader (load shedding) and read by
	// the worker (verdict), hence atomic.
	dropped atomic.Uint64

	// rebuilding marks a crash-recovery replay in progress: apply runs
	// normally, but archiving, exactly-once hooks and emission counters
	// are suppressed — the replay reproduces state, it must not
	// re-report anything. Set by NewRestorer, cleared by Finish, both
	// before the session is reachable by any other goroutine.
	rebuilding bool
	// The skip counters implement post-crash archive dedup: the
	// previous process archived this much output beyond the last
	// ledger watermark, and deterministic re-application regenerates it
	// byte-identically, so exactly this much of the session's next
	// output bypasses the archive and the exactly-once hooks.
	skipArchFrames  uint64
	skipArchEvents  uint64
	skipArchVerdict bool

	state atomic.Int32
}

// setSuspend marks the attachment lost-but-resumable.
func (sess *session) setSuspend() {
	sess.endMu.Lock()
	sess.suspended = true
	sess.endMu.Unlock()
}

// setAbort marks the session terminally failed; the first cause wins.
func (sess *session) setAbort(err error) {
	sess.endMu.Lock()
	if sess.abort == nil {
		sess.abort = err
	}
	sess.endMu.Unlock()
}

func (sess *session) outcome() (abort error, suspended bool) {
	sess.endMu.Lock()
	defer sess.endMu.Unlock()
	return sess.abort, sess.suspended
}

// run executes one attachment to completion: spawns the worker, reads
// until the stream ends, then joins the worker. It reports whether the
// session should park for resume rather than die.
func (sess *session) run() (park bool) {
	sess.state.Store(stateStreaming)
	if sess.srv.ctx.Err() != nil {
		// Shutdown raced the handshake: this session registered after
		// the deadline sweep, so apply the nudge it missed.
		sess.conn.SetReadDeadline(time.Now())
	}
	go sess.work()
	sess.read()
	close(sess.queue)
	<-sess.workerDone
	sess.conn.Close()

	abort, _ := sess.outcome()
	if sess.proto >= 2 && abort == nil {
		if !sess.srv.closed.Load() {
			// Park: a finalized session re-parks so a client that missed
			// the verdict can resume and re-fetch it; an unfinalized one
			// waits out the grace window for a resume.
			return true
		}
		if !sess.finalized || !sess.delivered {
			// Shutdown is draining but this session's verdict has not
			// reached its client (it may be mid-backoff): park so the
			// resume the drain is waiting for can finish the job. The
			// grace timer still bounds the wait if the client is gone.
			return true
		}
	}
	sess.state.Store(stateClosed)
	return false
}

// read decodes records until Finish, disconnect, protocol error or
// server shutdown. It never writes to the connection.
func (sess *session) read() {
	for {
		if d := sess.srv.cfg.IdleTimeout; d > 0 {
			sess.conn.SetReadDeadline(time.Now().Add(d))
		}
		rec, err := wire.Read(sess.br)
		if err != nil {
			var mal *wire.MalformedError
			if sess.srv.ctx.Err() == nil && errors.As(err, &mal) {
				// Framing held — the stream is still at a record
				// boundary — so skip the record and charge the budget.
				if sess.quarantine() {
					continue
				}
				return
			}
			sess.readFailed(err)
			return
		}
		switch rec := rec.(type) {
		case wire.FrameBatch:
			if sess.proto >= 2 {
				if !sess.unexpected(rec) {
					return
				}
				continue
			}
			if len(rec.Frames) > 0 {
				sess.enqueue(item{frames: rec.Frames, enq: time.Now()})
			}
		case wire.Finish:
			if sess.proto >= 2 {
				if !sess.unexpected(rec) {
					return
				}
				continue
			}
			sess.state.Store(stateDraining)
			return
		case wire.SeqBatch:
			if sess.proto < 2 {
				sess.setAbort(fmt.Errorf("version-2 %T record on a version-1 session", rec))
				return
			}
			if rec.Seq <= sess.lastEnq {
				// Replayed duplicate (the client could not see our ack);
				// already applied or queued, so discard.
				sess.srv.stats.dupBatchesDropped.Add(1)
				continue
			}
			if rec.Seq != sess.lastEnq+1 {
				// A batch went missing (quarantined or lost upstream).
				// Suspend: the resume handshake tells the client where
				// to replay from.
				sess.setSuspend()
				return
			}
			sess.lastEnq = rec.Seq
			sess.enqueue(item{frames: rec.Frames, seq: rec.Seq, enq: time.Now()})
		case wire.FinishSeq:
			sess.state.Store(stateDraining)
			// The finish marker must reach the worker even in drop
			// mode, so it bypasses the shedding enqueue path.
			select {
			case sess.queue <- item{finish: true, seq: rec.Seq}:
			case <-sess.srv.ctx.Done():
			}
			return
		default:
			if !sess.unexpected(rec) {
				return
			}
		}
	}
}

// readFailed classifies a wire.Read error and ends the attachment
// accordingly: malformed records are quarantined up to the error
// budget, transport failures suspend a v2 session for resume, and
// everything is terminal for a v1 session.
func (sess *session) readFailed(err error) {
	if sess.srv.ctx.Err() != nil {
		// Server shutdown: the deadline sweep unparked us. Drain what
		// is queued and verdict the session.
		sess.state.Store(stateDraining)
		return
	}
	if sess.proto >= 2 {
		// Disconnect, timeout, or a broken frame header: the byte
		// stream is unusable, but a resume restores framing.
		sess.setSuspend()
		return
	}
	if errors.Is(err, io.EOF) {
		// Disconnect without Finish: evaluate what arrived, but the
		// client is gone — no verdict owed.
		sess.setAbort(errors.New("client disconnected before finish"))
		return
	}
	sess.setAbort(err)
}

// quarantine accounts one skipped record against the attachment's
// error budget. It reports false when the budget is exhausted and the
// attachment must end.
func (sess *session) quarantine() bool {
	sess.quarantined++
	sess.srv.stats.recordsQuarantined.Add(1)
	budget := sess.srv.cfg.ErrorBudget
	if budget == 0 {
		budget = defaultErrorBudget
	}
	if sess.quarantined <= budget {
		return true
	}
	if sess.proto >= 2 {
		sess.setSuspend()
	} else {
		sess.setAbort(fmt.Errorf("%d malformed records exceed the session error budget", sess.quarantined))
	}
	return false
}

// unexpected handles a validly-decoded record that has no business
// mid-stream. On a v2 session it is quarantined — corruption can flip
// a type byte into another valid record — on v1 it is terminal. It
// reports whether reading should continue.
func (sess *session) unexpected(rec wire.Record) bool {
	if sess.proto >= 2 {
		return sess.quarantine()
	}
	sess.setAbort(fmt.Errorf("unexpected %T record mid-stream", rec))
	return false
}

// enqueue hands an item to the worker. A full queue either sheds the
// batch (drop mode) or blocks — explicit backpressure through TCP —
// until the worker catches up or the server shuts down. Both outcomes
// are accounted; a v2 shed additionally records a gap so the verdict
// stream admits the hole.
func (sess *session) enqueue(it item) {
	select {
	case sess.queue <- it:
		return
	default:
	}
	n := uint64(len(it.frames))
	if sess.srv.cfg.DropWhenFull {
		sess.shedItem(it, n)
		return
	}
	sess.srv.stats.batchesBlocked.Add(1)
	select {
	case sess.queue <- it:
	case <-sess.srv.ctx.Done():
		sess.shedItem(it, n)
	}
}

// shedItem accounts a dropped batch and, on v2, records the gap it
// leaves so the worker can fold it into the event stream.
func (sess *session) shedItem(it item, n uint64) {
	sess.dropped.Add(n)
	sess.srv.stats.framesDropped.Add(n)
	if sess.proto < 2 || it.seq == 0 || len(it.frames) == 0 {
		return
	}
	g := gapInfo{n: n, from: it.frames[0].Time, to: it.frames[len(it.frames)-1].Time}
	sess.shedMu.Lock()
	if sess.shed == nil {
		sess.shed = make(map[uint64]gapInfo)
	}
	sess.shed[it.seq] = g
	sess.shedMu.Unlock()
}

// work drains the queue into the monitor, emitting events as they
// become decidable, then settles the attachment: a verdict after
// Finish or shutdown drain, an error record after a protocol failure,
// or a silent park when the transport died and a resume is expected.
func (sess *session) work() {
	defer close(sess.workerDone)
	stats := &sess.srv.stats
	// draining reports a server shutdown: the client may already be
	// gone, so write failures must not abandon the session — keep
	// applying and let the verdict park for resume instead.
	draining := func() bool { return sess.srv.ctx.Err() != nil }

	if sess.proto >= 2 && !sess.replayEvents() && !draining() {
		sess.abandon()
		return
	}

	// With a ledger, durability is group-committed: batches apply and
	// their events stream immediately, but the archive barrier, the
	// watermark and the cumulative Ack happen per commit, not per
	// batch, so the per-batch hot path never waits on the pump or the
	// ledger. A commit fires when the queue runs dry with at least
	// commitBatches of progress pending — a client stalled on a full
	// replay buffer has far more than that outstanding, so its backlog
	// being applied is what releases it — and at WatermarkInterval as
	// a staleness bound otherwise. The client prunes its replay buffer
	// only on acks, so everything past the last watermark is still in
	// its hands if this process dies.
	ledgered := sess.proto >= 2 && sess.srv.cfg.Ledger != nil
	var commitC <-chan time.Time
	if ledgered {
		t := time.NewTicker(sess.srv.cfg.WatermarkInterval)
		defer t.Stop()
		commitC = t.C
	}
	// commitAck group-commits applied progress and sends the cumulative
	// Ack, reporting false when the worker must exit. A ledger failure
	// is terminal — an ack the ledger cannot back would strand the
	// client's pruned frames after a crash.
	commitAck := func() bool {
		if sess.lastApplied == sess.ledgeredSeq {
			return true
		}
		if !sess.syncLedger() {
			sess.fail(fmt.Errorf("session ledger: watermark for batch %d failed", sess.lastApplied))
			return false
		}
		if wire.Write(sess.bw, wire.Ack{Seq: sess.lastApplied}) != nil || sess.bw.Flush() != nil {
			if draining() {
				return true // dead client during drain; keep applying
			}
			sess.setSuspend()
			sess.abandon()
			return false
		}
		return true
	}

	doFinal := false
	for {
		var it item
		var open bool
		if commitC == nil {
			it, open = <-sess.queue
		} else {
			select {
			case it, open = <-sess.queue:
			default:
				if sess.lastApplied-sess.ledgeredSeq >= commitBatches {
					if !commitAck() {
						return
					}
				}
				select {
				case it, open = <-sess.queue:
				case <-commitC:
					if !commitAck() {
						return
					}
					continue
				}
			}
		}
		if !open {
			break
		}
		// Rollout reconciliation: one atomic load per batch; the
		// reconcile itself runs only when a BeginShadow / Promote /
		// Abort actually happened since this worker last looked, so
		// promotion lands exactly at a batch boundary.
		if g := sess.srv.rolloutGen.Load(); g != sess.rolloutGen {
			sess.syncRollout(g)
		}
		if it.finish {
			if !sess.foldShed(^uint64(0)) && !draining() {
				sess.abandon()
				return
			}
			if sess.proto >= 2 && it.seq != sess.lastApplied {
				// The client declared a final sequence we never saw:
				// the transport hid a loss. Force a resume instead of
				// issuing a short verdict.
				sess.setSuspend()
				sess.abandon()
				return
			}
			if ledgered && !sess.syncLedger() {
				// The verdict about to be built covers the whole
				// stream; recovery replays the archive only up to the
				// watermark, so the watermark must be current before
				// the verdict is ledgered. A ledger failure is
				// terminal — a verdict it cannot back would break the
				// rebuild.
				sess.fail(fmt.Errorf("session ledger: watermark for batch %d failed", sess.lastApplied))
				return
			}
			doFinal = true
			break
		}
		if sess.proto >= 2 && !sess.foldShed(it.seq) && !draining() {
			sess.abandon()
			return
		}
		// The sampling decision is one atomic increment; a sampled
		// batch additionally gets core's stage timing (decode/eval and
		// per-rule attribution, the monitor's latency histograms) and,
		// with a recorder, its spans recorded (see flightglue.go).
		sampled := sess.sample()
		var tApply time.Time
		if sampled {
			tApply = time.Now()
			sess.om.BeginStageTiming()
		}
		out, err := sess.apply(it.frames)
		if err != nil {
			sess.fail(fmt.Errorf("monitor: %w", err))
			return
		}
		if sess.shadow != nil {
			sess.shadowCompare(it.seq)
		}
		var tEmit time.Time
		if sampled {
			tEmit = time.Now()
		}
		if sess.proto >= 2 {
			// The batch is fully applied: advance before emitting so a
			// write failure (→ resume → replay) cannot re-apply it.
			sess.lastApplied = it.seq
		}
		ok := true
		for _, w := range out {
			if !sess.emitWire(w) {
				ok = false
				break
			}
		}
		stats.framesIngested.Add(uint64(len(it.frames)))
		e2e := time.Since(it.enq)
		stats.ingestLatency.Observe(e2e.Seconds())
		sess.observeE2E(e2e)
		if sampled {
			sess.recordFlight(it, tApply, tEmit, e2e)
		}
		if ok && sess.proto >= 2 && !ledgered {
			ok = wire.Write(sess.bw, wire.Ack{Seq: sess.lastApplied}) == nil
		}
		if !ok || sess.bw.Flush() != nil {
			if draining() {
				continue // dead client during drain; keep applying
			}
			if sess.proto >= 2 {
				sess.setSuspend()
				sess.abandon()
				return
			}
			sess.fail(errors.New("event write failed"))
			return
		}
	}
	stats.framesRejected.Add(sess.rejected)

	abort, suspended := sess.outcome()
	if abort != nil {
		// Reader-side failure: best-effort error record, no verdict.
		wire.Write(sess.bw, wire.Error{Msg: abort.Error()})
		sess.bw.Flush()
		return
	}
	if !doFinal && suspended && !draining() {
		// Park for resume. The grant a resume earns acknowledges
		// lastApplied, and an acknowledgement the ledger cannot back
		// would strand the client's pruned frames after a crash — so
		// the watermark must cover the park, or the session must die.
		if ledgered && !sess.syncLedger() {
			sess.setAbort(fmt.Errorf("session ledger: watermark for batch %d failed", sess.lastApplied))
		}
		return
	}
	if !doFinal && sess.proto >= 2 && sess.srv.cfg.Ledger != nil {
		// A shutdown drain reached a session whose client never said
		// Finish. Without a ledger this process is the session's only
		// life, so a partial verdict beats none — but with one the
		// session survives the restart, and a verdict covering half the
		// trace would be silently wrong. Park instead: the shutdown
		// preserves the session in the ledger and the next process
		// rebuilds it mid-stream. Bring the watermark current first, so
		// the restart resumes from here, not the last timer commit.
		if !sess.syncLedger() {
			sess.setAbort(fmt.Errorf("session ledger: watermark for batch %d failed", sess.lastApplied))
		}
		return
	}
	sess.finalize()
	if sess.proto >= 2 && sess.delivered && draining() {
		// The drain is about to count this session done for good, so a
		// successful write is not proof enough — wait for the client's
		// verdict ack (a dead peer fails the read instead and the
		// session parks for resume). The ack must not outrun the
		// session's archive records: barrier first.
		sess.srv.archBarrier()
		sess.confirmDelivery(sess.conn, sess.br)
	}
}

// syncLedger makes the session's applied progress durable: every
// archived record is flushed through the pump, then the watermark is
// appended to the ledger. After a true return, an Ack (or a resume
// grant) for lastApplied is safe to send — the batch is rebuildable
// from the archive. A false return counts the ledger error and leaves
// ledgeredSeq behind; callers must treat it as terminal, because any
// later acknowledgement would promise state the ledger cannot back.
// No-op when the session has no ledger or nothing new applied.
func (sess *session) syncLedger() bool {
	led := sess.srv.cfg.Ledger
	if led == nil || sess.proto < 2 || sess.lastApplied == sess.ledgeredSeq {
		return true
	}
	t0 := time.Now()
	sess.srv.archBarrier()
	if err := led.Watermark(sess.id, sess.lastApplied, sess.ingested, sess.rejected); err != nil {
		sess.srv.stats.ledgerErrors.Add(1)
		return false
	}
	sess.recordLedgerSpan(t0)
	sess.ledgeredSeq = sess.lastApplied
	return true
}

// apply feeds one batch of frames to the monitor, returning the wire
// events it produced (bus-silence gaps interleaved in stream order).
// The whole batch is applied before anything is emitted, so emission
// failures never leave a batch half-applied.
//
// Frames flow to the monitor in contiguous runs through PushFrames;
// a run ends where the session must act between frames — a stale frame
// to reject, or a silence gap whose event must interleave in stream
// order. The returned slice is the session's reusable scratch buffer,
// valid until the next apply or finalize.
func (sess *session) apply(frames []can.Frame) ([]wire.Event, error) {
	out := sess.evScratch[:0]
	silence := sess.srv.cfg.SilenceGap
	saw, last := sess.sawFrame, sess.lastTime

	start := 0
	flush := func(end int) error {
		run := frames[start:end]
		start = end
		if len(run) == 0 {
			return nil
		}
		evs, rejected, err := sess.om.PushFrames(run)
		if err != nil {
			return err
		}
		// The session's stale filter is at least as strict as the
		// monitor's (session time also advances over foreign-ID frames),
		// so runs reach the monitor in order; count defensively anyway.
		sess.rejected += uint64(rejected)
		sess.ingested += uint64(len(run) - rejected)
		// Archive exactly what the monitor applied, so replaying the
		// archive reproduces this session's verdict.
		sess.archiveRun(run)
		if sess.shadow != nil {
			// The candidate sees the identical post-filter run; the
			// primary's events are retained for the batch-boundary
			// comparison before convert reuses their scratch.
			sess.shadowFeed(run, evs)
		}
		out = sess.convert(out, evs)
		return nil
	}

	for i, f := range frames {
		// The monitor requires non-decreasing time; a stale frame is
		// rejected and the session continues, per the
		// OnlineMonitor.PushFrame contract.
		if saw && f.Time < last {
			if err := flush(i); err != nil {
				return nil, err
			}
			sess.rejected++
			start = i + 1
			continue
		}
		if silence > 0 && sess.proto >= 2 && saw && f.Time-last > silence {
			if err := flush(i); err != nil {
				return nil, err
			}
			out = append(out, wire.Event{
				Kind:  wire.EventGap,
				Time:  f.Time,
				Start: last,
				End:   f.Time,
				Msg:   "bus silence",
			})
			if !sess.rebuilding {
				sess.srv.stats.gapEvents.Add(1)
			}
		}
		saw = true
		last = f.Time
	}
	if err := flush(len(frames)); err != nil {
		return nil, err
	}
	sess.sawFrame, sess.lastTime = saw, last
	sess.evScratch = out
	return out, nil
}

// convert turns monitor events into wire events, updating the verdict
// tally. The tally advances at application time — exactly once per
// violation — never at (retryable) emission time.
func (sess *session) convert(out []wire.Event, evs []core.OnlineEvent) []wire.Event {
	for _, e := range evs {
		w := wire.Event{Rule: e.Rule, Time: e.Time}
		switch e.Kind {
		case speclang.ViolationBegin:
			w.Kind = wire.EventBegin
		case speclang.ViolationEnd:
			w.Kind = wire.EventEnd
			v := e.Violation
			w.StartStep = uint32(v.StartStep)
			w.EndStep = uint32(v.EndStep)
			w.Start = v.Start
			w.End = v.End
			w.Peak = v.Peak
			w.Msg = v.Msg
			w.Class = uint8(e.Class)

			tallyViolation(sess.tally, e)
			if !sess.rebuilding {
				sess.srv.stats.violationsEmitted.Add(1)
			}
		}
		out = append(out, w)
	}
	return out
}

// tallyViolation folds one closed violation into a verdict tally. Both
// the primary path (convert) and the shadow path use it, so an adopted
// candidate tally is classified exactly as a primary one would be.
func tallyViolation(m map[string]*ruleTally, e core.OnlineEvent) {
	t := m[e.Rule]
	if t == nil {
		t = &ruleTally{}
		m[e.Rule] = t
	}
	t.violations++
	switch e.Class {
	case core.ClassReal:
		t.real++
	case core.ClassTransient:
		t.transient++
	case core.ClassNegligible:
		t.negligible++
	}
}

// archiveRun archives one applied frame run. A crash-recovery rebuild
// never archives (it replays *from* the archive); afterwards, the
// post-crash skip window drops exactly the frames the previous process
// archived beyond its last watermark — the client retransmits them and
// deterministic re-application regenerates the same runs, so skipping
// that many keeps the archive duplicate-free.
func (sess *session) archiveRun(run []can.Frame) {
	if sess.rebuilding {
		return
	}
	if n := uint64(len(run)); sess.skipArchFrames > 0 {
		if n <= sess.skipArchFrames {
			sess.skipArchFrames -= n
			return
		}
		run = run[sess.skipArchFrames:]
		sess.skipArchFrames = 0
	}
	sess.srv.archiveFrames(sess.id, sess.vehicle, run)
}

// emitWire writes one event to the client. On a v2 session the event
// is first retained (and sequence-numbered) so a resume can replay it;
// a write failure therefore only suspends the attachment, never loses
// the event. It reports false when the write failed.
func (sess *session) emitWire(w wire.Event) bool {
	// emitWire runs exactly once per produced event — resume replays
	// and verdict re-deliveries bypass it — so it is the exactly-once
	// hook point for the event journal and the archive. Events inside
	// the post-crash skip window are the exception: the previous
	// process already journaled and archived them, this process merely
	// regenerates them for the client.
	if sess.skipArchEvents > 0 {
		sess.skipArchEvents--
	} else {
		if f := sess.srv.cfg.OnEvent; f != nil {
			f(sess.id, sess.vehicle, w)
		}
		sess.srv.archiveEvent(sess.id, sess.vehicle, w)
	}
	var err error
	if sess.proto >= 2 {
		sess.events = append(sess.events, w)
		err = wire.Write(sess.bw, wire.SeqEvent{Seq: uint64(len(sess.events)), Event: w})
	} else {
		err = wire.Write(sess.bw, w)
	}
	if err != nil {
		if sess.proto >= 2 {
			sess.setSuspend()
		}
		return false
	}
	sess.srv.stats.eventsEmitted.Add(1)
	return true
}

// replayEvents re-sends the event tail a resumed client reported not
// having seen, as the worker's first action on the new attachment.
func (sess *session) replayEvents() bool {
	from := sess.resumeFrom
	if from > uint64(len(sess.events)) {
		from = uint64(len(sess.events))
	}
	for i := from; i < uint64(len(sess.events)); i++ {
		if err := wire.Write(sess.bw, wire.SeqEvent{Seq: i + 1, Event: sess.events[i]}); err != nil {
			sess.setSuspend()
			return false
		}
	}
	if len(sess.events) > int(from) {
		if err := sess.bw.Flush(); err != nil {
			sess.setSuspend()
			return false
		}
	}
	return true
}

// foldShed advances lastApplied across contiguously shed batches below
// next (exclusive; ^0 folds everything pending), emitting one gap
// event per shed batch. It reports false when an emission failed.
func (sess *session) foldShed(next uint64) bool {
	for {
		sess.shedMu.Lock()
		g, ok := sess.shed[sess.lastApplied+1]
		if ok && sess.lastApplied+1 < next {
			delete(sess.shed, sess.lastApplied+1)
		} else {
			ok = false
		}
		sess.shedMu.Unlock()
		if !ok {
			return true
		}
		sess.lastApplied++
		w := wire.Event{
			Kind:  wire.EventGap,
			Time:  g.to,
			Start: g.from,
			End:   g.to,
			Msg:   fmt.Sprintf("shed %d frames under overload", g.n),
		}
		sess.srv.stats.gapEvents.Add(1)
		if !sess.emitWire(w) {
			return false
		}
	}
}

// finalize closes the monitor and issues the verdict. On v2 the
// verdict record is retained so a resume within the grace window can
// re-deliver it even if this write never reaches the client.
func (sess *session) finalize() {
	if sess.shadow != nil {
		// A session finishing mid-shadow resolves under its primary
		// alone; the candidate is discarded, its verdicts never
		// deliverable.
		sess.dropShadow()
	}
	evs, err := sess.om.Close()
	if err != nil {
		sess.fail(err)
		return
	}
	out := sess.convert(nil, evs)
	for _, w := range out {
		if !sess.emitWire(w) {
			break
		}
	}
	v := sess.verdict()
	if sess.skipArchVerdict {
		// The previous process archived (and journaled) this verdict
		// right before dying; re-finalization regenerates it
		// byte-identically, so only the client delivery remains.
		sess.skipArchVerdict = false
	} else {
		if f := sess.srv.cfg.OnVerdict; f != nil {
			f(sess.id, sess.vehicle, v)
		}
		sess.srv.archiveVerdict(sess.id, sess.vehicle, v)
	}
	if sess.proto >= 2 {
		sess.verdictRec = &wire.VerdictSeq{EventSeq: uint64(len(sess.events)), Verdict: v}
		if led := sess.srv.cfg.Ledger; led != nil {
			// The verdict is durable — archive flushed, ledger record
			// fsync'd — before the client can see it, so a crash can
			// never un-decide a verdict a client already holds.
			sess.srv.archBarrier()
			if err := led.VerdictReached(sess.id, sess.verdictRec.EventSeq, v); err != nil {
				sess.srv.stats.ledgerErrors.Add(1)
			}
		}
		sess.finalized = true
		sess.srv.stats.sessionsClosed.Add(1)
		if wire.Write(sess.bw, *sess.verdictRec) == nil && sess.bw.Flush() == nil {
			sess.delivered = true
			sess.srv.logDelivered(sess)
		}
		return
	}
	if err := wire.Write(sess.bw, v); err != nil {
		return
	}
	sess.bw.Flush()
}

// confirmDelivery downgrades delivered unless the client acks the
// verdict within the ack window. The stream may still carry in-flight
// uplink records (a mid-replay reconnect keeps sending until it sees
// the verdict); they are skipped.
func (sess *session) confirmDelivery(conn net.Conn, br *bufio.Reader) {
	end := time.Now().Add(verdictAckTimeout)
	conn.SetReadDeadline(end)
	for {
		rec, err := wire.Read(br)
		if err != nil {
			var mal *wire.MalformedError
			if errors.As(err, &mal) {
				continue
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && time.Now().Before(end) {
				// A stale shutdown nudge clobbered our deadline; restore
				// it and keep waiting for the ack.
				conn.SetReadDeadline(end)
				continue
			}
			sess.delivered = false
			return
		}
		if _, ok := rec.(wire.Ack); ok {
			return
		}
	}
}

// fail abandons the session terminally from the worker side: a
// best-effort error record goes out and the connection close unblocks
// the reader.
func (sess *session) fail(err error) {
	sess.setAbort(err)
	wire.Write(sess.bw, wire.Error{Msg: err.Error()})
	sess.bw.Flush()
	sess.abandon()
}

// abandon closes the connection and drains remaining queue items so
// the reader's enqueue never blocks against a worker that already gave
// up.
func (sess *session) abandon() {
	sess.conn.Close()
	for range sess.queue {
	}
}

// verdict assembles the end-of-stream record in rule-set order.
func (sess *session) verdict() wire.Verdict {
	v := wire.Verdict{
		FramesIngested: sess.ingested,
		FramesDropped:  sess.dropped.Load(),
		FramesRejected: sess.rejected,
		SpecEpoch:      sess.specEpoch,
	}
	for _, name := range sess.entry.rules {
		rv := wire.RuleVerdict{Rule: name}
		if t := sess.tally[name]; t != nil {
			rv.Violated = t.violations > 0
			rv.Violations = t.violations
			rv.Real = t.real
			rv.Transient = t.transient
			rv.Negligible = t.negligible
		}
		v.Rules = append(v.Rules, rv)
	}
	return v
}
