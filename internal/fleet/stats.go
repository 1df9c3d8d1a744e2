package fleet

import (
	"time"

	"cpsmon/internal/obs"
)

// counters is the server's hot-path accounting. Every cell lives on
// the server's obs registry, so Stats() snapshots and the Prometheus
// exposition read the very same atomics and can never disagree;
// sessions update them lock-free and allocation-free.
type counters struct {
	sessionsOpened  *obs.Counter
	sessionsClosed  *obs.Counter
	sessionsRefused *obs.Counter
	refusals        [numRefusals]*obs.Counter
	sessionsResumed *obs.Counter
	sessionsReaped  *obs.Counter

	framesIngested *obs.Counter
	framesDropped  *obs.Counter
	framesRejected *obs.Counter

	batchesBlocked *obs.Counter

	violationsEmitted *obs.Counter
	eventsEmitted     *obs.Counter
	gapEvents         *obs.Counter

	recordsQuarantined *obs.Counter
	dupBatchesDropped  *obs.Counter

	archiveRecords *obs.Counter
	archiveDropped *obs.Counter
	archiveErrors  *obs.Counter

	sessionsRestored *obs.Counter
	restoreFailed    *obs.Counter
	ledgerErrors     *obs.Counter

	shadowRounds           *obs.Counter
	shadowBatches          *obs.Counter
	shadowDivergentBatches *obs.Counter
	shadowDivergences      *obs.Counter
	shadowErrors           *obs.Counter
	shadowPromotes         *obs.Counter
	shadowAdoptions        *obs.Counter

	// ingestLatency observes seconds from a batch entering its session
	// queue to its last frame being fully evaluated; its count and sum
	// stand in for the old batch/nanosecond accumulators.
	ingestLatency *obs.Histogram
}

// newCounters registers the server metric families on reg.
func newCounters(reg *obs.Registry) counters {
	c := func(name, help string) *obs.Counter { return reg.Counter(name, help) }
	var refusals [numRefusals]*obs.Counter
	for why, name := range refusalNames {
		refusals[why] = reg.Counter("cpsmon_fleet_refusals_total",
			"Connections turned away before becoming a session, by reason.",
			obs.Label{Name: "reason", Value: name})
	}
	return counters{
		sessionsOpened:  c("cpsmon_fleet_sessions_opened_total", "Sessions accepted over the server's lifetime."),
		sessionsClosed:  c("cpsmon_fleet_sessions_closed_total", "Sessions resolved for good (verdict delivered or reaped)."),
		sessionsRefused: c("cpsmon_fleet_sessions_refused_total", "Connections turned away at the session cap or for a bad handshake."),
		refusals:        refusals,
		sessionsResumed: c("cpsmon_fleet_sessions_resumed_total", "Resume handshakes that reattached a parked session."),
		sessionsReaped:  c("cpsmon_fleet_sessions_reaped_total", "Parked sessions whose resume grace expired unclaimed."),

		framesIngested: c("cpsmon_fleet_frames_ingested_total", "Frames fed to a monitor."),
		framesDropped:  c("cpsmon_fleet_frames_dropped_total", "Frames shed because a session queue was full in drop mode."),
		framesRejected: c("cpsmon_fleet_frames_rejected_total", "Frames refused for arriving out of time order."),

		batchesBlocked: c("cpsmon_fleet_batches_blocked_total", "Frame batches that waited on a full queue in backpressure mode."),

		violationsEmitted: c("cpsmon_fleet_violations_emitted_total", "Closed violation intervals sent to clients."),
		eventsEmitted:     c("cpsmon_fleet_events_emitted_total", "Event records sent to clients (begin, end and gap)."),
		gapEvents:         c("cpsmon_fleet_gap_events_total", "Gap events: bus-silence stretches and shed-batch holes."),

		recordsQuarantined: c("cpsmon_fleet_records_quarantined_total", "Malformed records skipped under the per-session error budget."),
		dupBatchesDropped:  c("cpsmon_fleet_dup_batches_dropped_total", "Sequence-numbered batches discarded as already seen."),

		archiveRecords: c("cpsmon_fleet_archive_records_total", "Frame runs, events and verdicts enqueued for archiving."),
		archiveDropped: c("cpsmon_fleet_archive_dropped_total", "Frame runs and events shed because the archive queue was full."),
		archiveErrors:  c("cpsmon_fleet_archive_errors_total", "Archiver calls that returned an error."),

		sessionsRestored: c("cpsmon_fleet_sessions_restored_total", "Sessions rebuilt from ledger and archive after a restart."),
		restoreFailed:    c("cpsmon_fleet_sessions_restore_failed_total", "Ledgered sessions whose archive rebuild failed."),
		ledgerErrors:     c("cpsmon_fleet_ledger_errors_total", "Ledger appends that returned an error."),

		shadowRounds:           c("cpsmon_shadow_rounds_total", "Candidate specs that entered shadow mode."),
		shadowBatches:          c("cpsmon_shadow_batches_total", "Frame batches evaluated by both active and candidate spec."),
		shadowDivergentBatches: c("cpsmon_shadow_divergent_batches_total", "Shadow-compared batches where the two specs disagreed."),
		shadowDivergences:      c("cpsmon_shadow_divergences_total", "Per-rule event-count deltas summed over divergent batches."),
		shadowErrors:           c("cpsmon_shadow_errors_total", "Candidate evaluation failures; each costs that session its shadow."),
		shadowPromotes:         c("cpsmon_shadow_promotes_total", "Candidate specs promoted to active."),
		shadowAdoptions:        c("cpsmon_shadow_adoptions_total", "Sessions that swapped to the candidate monitor at a promote."),

		ingestLatency: reg.Histogram("cpsmon_fleet_ingest_batch_latency_seconds",
			"Queue-to-evaluated latency of one frame batch.", obs.DefaultLatencyBuckets()),
	}
}

// refusal is why a connection was turned away before it became a
// session: the reason label of cpsmon_fleet_refusals_total.
type refusal int

const (
	refuseLimit        refusal = iota // at the session cap
	refuseHandshake                   // unreadable or unexpected first record
	refuseVersion                     // protocol version outside the server's range
	refuseDraining                    // hello during a drain; resume of a session the drain handed on (hang-up)
	refuseSpec                        // spec selection failed to resolve or compile
	refuseSetup                       // monitor session could not be built
	refuseLedger                      // the session-opened ledger append failed
	refuseUnknownToken                // resume token neither attached nor parked
	refuseStaleEpoch                  // resume grant from a later ledger epoch
	numRefusals
)

var refusalNames = [numRefusals]string{
	refuseLimit:        "limit",
	refuseHandshake:    "handshake",
	refuseVersion:      "version",
	refuseDraining:     "draining",
	refuseSpec:         "spec",
	refuseSetup:        "setup",
	refuseLedger:       "ledger",
	refuseUnknownToken: "unknown_token",
	refuseStaleEpoch:   "stale_epoch",
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	// SessionsOpened and SessionsClosed count accepted sessions over
	// the server's lifetime; SessionsActive is their difference.
	SessionsOpened, SessionsClosed, SessionsActive uint64
	// SessionsRefused counts connections turned away at the session
	// cap or for a bad handshake.
	SessionsRefused uint64
	// SessionsResumed counts Resume handshakes that reattached (or
	// re-served the verdict of) a parked session. SessionsReaped
	// counts parked sessions whose resume grace expired before the
	// client returned; their monitors were closed without a verdict.
	SessionsResumed, SessionsReaped uint64

	// FramesIngested counts frames fed to a monitor. FramesDropped
	// counts frames shed because a session queue was full in drop
	// mode. FramesRejected counts frames refused by the monitor for
	// arriving out of time order.
	FramesIngested, FramesDropped, FramesRejected uint64

	// BatchesBlocked counts frame batches that found their session
	// queue full in backpressure mode and had to wait — each is a
	// moment the TCP stream stalled instead of shedding load.
	BatchesBlocked uint64

	// ViolationsEmitted counts closed violation intervals sent to
	// clients; EventsEmitted counts all event records (begin + end +
	// gap). GapEvents counts the gap subset: bus-silence stretches and
	// shed-batch holes made explicit in the event stream.
	ViolationsEmitted, EventsEmitted, GapEvents uint64

	// RecordsQuarantined counts malformed records skipped (rather than
	// killing their session) under the per-session error budget.
	// DupBatchesDropped counts sequence-numbered batches discarded as
	// already seen — replays after a resume, delivered exactly once.
	RecordsQuarantined, DupBatchesDropped uint64

	// ArchiveRecords counts items enqueued for the Archiver (frame
	// runs, events and verdicts). ArchiveDropped counts frame runs and
	// events shed at a full archive queue; verdicts are never shed.
	// ArchiveErrors counts Archiver calls that returned an error.
	ArchiveRecords, ArchiveDropped, ArchiveErrors uint64

	// SessionsRestored counts sessions rebuilt from the ledger and
	// archive after a restart; SessionsRestoreFailed counts ledgered
	// sessions whose rebuild could not be completed (archive and ledger
	// disagreed). LedgerErrors counts ledger appends that failed.
	SessionsRestored, SessionsRestoreFailed, LedgerErrors uint64

	// ShadowBatches counts batches dual-evaluated against a candidate
	// spec; ShadowDivergentBatches the subset where the specs disagreed;
	// ShadowDivergences the per-rule event-count deltas summed over
	// them. ShadowErrors counts candidate evaluation failures and
	// ShadowAdoptions sessions that swapped to the candidate at a
	// promote.
	ShadowBatches, ShadowDivergentBatches, ShadowDivergences uint64
	ShadowErrors, ShadowAdoptions                            uint64

	// IngestBatches and IngestNanos accumulate per-batch ingest
	// latency: the time from a batch entering its session queue to the
	// last of its frames being fully evaluated.
	IngestBatches, IngestNanos uint64
}

// AvgIngestLatency returns the mean queue-to-evaluated latency of a
// frame batch, or zero before any batch completed.
func (s Stats) AvgIngestLatency() time.Duration {
	if s.IngestBatches == 0 {
		return 0
	}
	return time.Duration(s.IngestNanos / s.IngestBatches)
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	opened := s.stats.sessionsOpened.Value()
	closed := s.stats.sessionsClosed.Value()
	st := Stats{
		SessionsOpened:         opened,
		SessionsClosed:         closed,
		SessionsRefused:        s.stats.sessionsRefused.Value(),
		SessionsResumed:        s.stats.sessionsResumed.Value(),
		SessionsReaped:         s.stats.sessionsReaped.Value(),
		FramesIngested:         s.stats.framesIngested.Value(),
		FramesDropped:          s.stats.framesDropped.Value(),
		FramesRejected:         s.stats.framesRejected.Value(),
		BatchesBlocked:         s.stats.batchesBlocked.Value(),
		ViolationsEmitted:      s.stats.violationsEmitted.Value(),
		EventsEmitted:          s.stats.eventsEmitted.Value(),
		GapEvents:              s.stats.gapEvents.Value(),
		RecordsQuarantined:     s.stats.recordsQuarantined.Value(),
		DupBatchesDropped:      s.stats.dupBatchesDropped.Value(),
		ArchiveRecords:         s.stats.archiveRecords.Value(),
		ArchiveDropped:         s.stats.archiveDropped.Value(),
		ArchiveErrors:          s.stats.archiveErrors.Value(),
		SessionsRestored:       s.stats.sessionsRestored.Value(),
		SessionsRestoreFailed:  s.stats.restoreFailed.Value(),
		LedgerErrors:           s.stats.ledgerErrors.Value(),
		ShadowBatches:          s.stats.shadowBatches.Value(),
		ShadowDivergentBatches: s.stats.shadowDivergentBatches.Value(),
		ShadowDivergences:      s.stats.shadowDivergences.Value(),
		ShadowErrors:           s.stats.shadowErrors.Value(),
		ShadowAdoptions:        s.stats.shadowAdoptions.Value(),
		IngestBatches:          s.stats.ingestLatency.Count(),
		IngestNanos:            uint64(s.stats.ingestLatency.Sum() * 1e9),
	}
	if opened > closed {
		st.SessionsActive = opened - closed
	}
	return st
}
