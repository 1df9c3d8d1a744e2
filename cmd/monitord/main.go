// Command monitord is the fleet ingest daemon: a long-running TCP
// service that bolts the passive monitor onto many vehicles at once.
// Each connected vehicle streams its live CAN capture over the binary
// wire protocol and gets incremental violation events and an
// end-of-stream verdict back — the runtime deployment the paper
// sketches ("there is no fundamental reason the monitoring could not
// be done at runtime"), scaled to a fleet.
//
// Usage:
//
//	monitord                                    # strict rules on :9320
//	monitord -addr :9000 -rules relaxed
//	monitord -rules specs/strict.spec -max-sessions 256
//	monitord -db plant.netdb -rules plant.spec  # a different CPS entirely
//	monitord -drop -queue 16                    # shed load instead of blocking
//	monitord -idle-timeout 30s -resume-grace 2m -silence-gap 500ms
//	                                            # field-network hardening knobs
//	monitord -admin 127.0.0.1:9321              # /metrics, /healthz, pprof,
//	                                            # /debug/flight span snapshot
//	monitord -flight-sample 16 -slo-target 50ms # denser tracing, tighter SLO
//	monitord -journal verdicts.jsonl            # append-only event/verdict log
//	monitord -state-dir /var/lib/monitord       # crash-safe: ledger + archive,
//	                                            # sessions survive kill -9
//	monitord -drain-timeout 30s                 # bound the shutdown drain
//	monitord -spec-dir /var/lib/monitord/specs  # durable spec registry: push,
//	                                            # shadow, promote or roll back
//	                                            # rule sets without a restart
//	monitord -spec-auto-promote -spec-max-divergence 0.01
//	                                            # hands-off canary rollout
//	monitord -version                           # print build version and exit
//
// With -spec-dir the admin endpoint grows a /spec/ surface
// (monitorctl spec push/status/promote/rollback drives it): a pushed
// candidate is parse-checked, re-checked offline against the archive
// (-spec-gate-window bounds how far back), then shadow-evaluated next
// to the active spec on live traffic — its verdicts are never
// delivered — until it is promoted under a new spec epoch or rolled
// back because divergence or SLO burn crossed the configured
// thresholds. SIGHUP re-reads -rules and pushes it through the same
// pipeline.
//
// Stream a recorded capture to it with:
//
//	monitorctl -trace capture.canlog -stream localhost:9320 -speed 1
//
// Clients select a rule set in their hello record: "strict", "relaxed"
// or empty for the daemon's -rules default. The daemon drains every
// session gracefully on SIGINT/SIGTERM: queued frames are evaluated,
// verdicts delivered, and the final ingest statistics printed.
//
// The -admin endpoint carries live profiling and operational detail
// with no authentication of its own: bind it to loopback (or an
// otherwise access-controlled address), never the vehicle-facing
// network. /healthz flips to 503 the moment a drain starts, so load
// balancers stop routing before the listener closes; its JSON body
// reports "degraded" (still 200) while the detection-latency SLO is
// burning error budget faster than the objective allows.
//
// The daemon always runs a sampled flight recorder (-flight-sample 0
// disables it): SIGQUIT dumps the span ring and the slowest end-to-end
// traces as JSON to stderr, and `monitorctl -top` renders the same
// data live from the admin endpoint.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"cpsmon/internal/archive"
	"cpsmon/internal/durable"
	"cpsmon/internal/fleet"
	"cpsmon/internal/flight"
	"cpsmon/internal/obs"
	"cpsmon/internal/rules"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
	"cpsmon/internal/specreg"
	"cpsmon/internal/wire"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "monitord:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("monitord", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":9320", "TCP listen address")
		ruleSpec    = fs.String("rules", "strict", "default rule set: strict, relaxed, or a path to a .spec file")
		dbPath      = fs.String("db", "", "custom network database file; default is the paper's vehicle network")
		maxSessions = fs.Int("max-sessions", 0, "refuse connections over this many concurrent sessions (0 = unlimited)")
		queueDepth  = fs.Int("queue", 0, "per-session ingest queue depth in batches (0 = default)")
		drop        = fs.Bool("drop", false, "shed frames when a session queue is full instead of applying backpressure")
		deltaMode   = fs.String("delta", "aware", "multi-rate difference semantics: aware or naive")
		statsEvery  = fs.Duration("stats-interval", 0, "print ingest statistics at this interval, from the same registry as /metrics (0 = only at shutdown)")
		stateDir    = fs.String("state-dir", "", "crash-safe operation: keep a durable session ledger here and rebuild unfinished sessions from it at startup; implies -archive-dir <state-dir>/archive unless set (empty = off)")
		adminAddr   = fs.String("admin", "", "serve /metrics, /healthz and /debug/pprof on this address — bind loopback, e.g. 127.0.0.1:9321 (empty = off)")
		journalPath = fs.String("journal", "", "append every event and verdict as one JSON line to this file (empty = off)")
		journalMax  = fs.Int64("journal-max-size", 64<<20, "rotate the journal to <path>.1 past this many bytes (0 = never)")
		idleTimeout = fs.Duration("idle-timeout", 0, "cut connections silent for this long; resumable sessions park for -resume-grace (0 = never)")
		resumeGrace = fs.Duration("resume-grace", 0, "how long a disconnected session's monitor state awaits a resume (0 = default 30s)")
		silenceGap  = fs.Duration("silence-gap", 0, "emit a gap event when consecutive frame timestamps are further apart than this (0 = off)")
		errorBudget = fs.Int("error-budget", 0, "malformed records tolerated per connection before it is cut (0 = default 16)")
		archiveDir  = fs.String("archive-dir", "", "archive every applied frame run, event and verdict into segment files in this directory (empty = off)")
		archiveSeg  = fs.Int64("archive-segment-size", 0, "archive segment rotation threshold in bytes (0 = default 8MiB)")
		archiveKeep = fs.Duration("archive-retention", 0, "remove sealed archive segments older than this, swept periodically (0 = keep forever)")
		version     = fs.Bool("version", false, "print the build version and exit")
		specDir     = fs.String("spec-dir", "", "spec rollout registry: keep a durable, content-addressed spec store here and serve /spec push/status/promote/rollback on the admin endpoint (empty = off)")
		specGateWin = fs.Duration("spec-gate-window", 0, "how much trailing archived capture time the offline gate re-checks a pushed spec against (0 = the whole archive)")
		specMaxRegr = fs.Int("spec-max-regressions", 0, "most per-rule regressions the offline gate tolerates before refusing a pushed spec")
		specMinBat  = fs.Uint64("spec-min-shadow-batches", 100, "shadow-compared batches required before divergence is judged (and, with -spec-auto-promote, before promotion)")
		specMaxDiv  = fs.Float64("spec-max-divergence", 0.01, "divergent-batch fraction above which a shadowing candidate is rolled back")
		specMaxBurn = fs.Float64("spec-max-slo-burn", 0, "SLO burn fraction above which a shadowing candidate is rolled back (0 = don't tie rollback to the SLO)")
		specAutoPro = fs.Bool("spec-auto-promote", false, "promote a candidate automatically once -spec-min-shadow-batches have compared clean")
		flightEvery = fs.Int("flight-sample", flight.DefaultSampleEvery, "record per-stage latency spans for every Nth batch into the flight recorder; dump with SIGQUIT or /debug/flight (0 = off)")
		sloTarget   = fs.Duration("slo-target", 100*time.Millisecond, "detection-latency SLO: batches at or under this end-to-end latency are good (0 = no SLO)")
		sloObj      = fs.Float64("slo-objective", 0.99, "fraction of batches that must meet -slo-target before /healthz reports degraded")
		sloWindow   = fs.Duration("slo-window", time.Minute, "rolling window the SLO burn rate is computed over")
	)
	var drainGrace time.Duration
	fs.DurationVar(&drainGrace, "drain-timeout", 10*time.Second, "how long shutdown waits for sessions to drain before force-closing them")
	fs.DurationVar(&drainGrace, "drain", 10*time.Second, "alias for -drain-timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, versionString("monitord"))
		return nil
	}

	db := sigdb.Vehicle()
	if *dbPath != "" {
		f, err := os.Open(*dbPath)
		if err != nil {
			return err
		}
		loaded, err := sigdb.ReadFormat(f)
		f.Close()
		if err != nil {
			return err
		}
		db = loaded
	}

	mode := speclang.DeltaUpdateAware
	switch *deltaMode {
	case "aware":
	case "naive":
		mode = speclang.DeltaNaive
	default:
		return fmt.Errorf("unknown -delta %q (want aware or naive)", *deltaMode)
	}

	resolve, err := newResolver(*ruleSpec, db)
	if err != nil {
		return err
	}
	var flt *flight.Recorder
	if *flightEvery > 0 {
		flt = flight.New(flight.Config{SampleEvery: *flightEvery})
	}
	var slo *flight.SLO
	if *sloTarget > 0 {
		slo = flight.NewSLO(*sloTarget, *sloObj, *sloWindow)
	}

	cfg := fleet.Config{
		DB:           db,
		Resolve:      resolve,
		DeltaMode:    mode,
		Triage:       rules.DefaultTriage(),
		MaxSessions:  *maxSessions,
		QueueDepth:   *queueDepth,
		DropWhenFull: *drop,
		IdleTimeout:  *idleTimeout,
		ResumeGrace:  *resumeGrace,
		SilenceGap:   *silenceGap,
		ErrorBudget:  *errorBudget,
		Flight:       flt,
		SLO:          slo,
	}

	var led *durable.Ledger
	if *stateDir != "" {
		if *drop {
			return fmt.Errorf("-drop cannot be combined with -state-dir: shed frames would punch holes in the archived prefix the recovery replay depends on")
		}
		led, err = durable.Open(*stateDir)
		if err != nil {
			return err
		}
		defer led.Close()
		cfg.Ledger = led
		cfg.Epoch = led.Epoch()
		cfg.SessionBase = led.State().MaxSession
		// Spec epochs must stay monotonic across restarts: start from
		// the last promote the ledger saw.
		cfg.SpecEpoch = led.State().SpecEpoch
		if *archiveDir == "" {
			*archiveDir = filepath.Join(*stateDir, "archive")
		}
	}

	var reg *specreg.Registry
	if *specDir != "" {
		reg, err = specreg.OpenRegistry(*specDir)
		if err != nil {
			return err
		}
		defer reg.Close()
		// First boot: store and promote the daemon's default rule set so
		// the active pointer always names a real spec.
		src, err := rulesSource(*ruleSpec)
		if err != nil {
			return err
		}
		if err := seedRegistry(reg, *ruleSpec, src, cfg.SpecEpoch); err != nil {
			return err
		}
		if e := reg.State().ActiveEpoch; e > cfg.SpecEpoch {
			cfg.SpecEpoch = e
		}
		// A previous run may have promoted past the -rules default. The
		// registry is the durable record of what the fleet runs: new
		// default-spec sessions must resume on its active spec, since
		// cfg.SpecEpoch already resumed at the promoted epoch and an
		// epoch must provably name one rule text — stamping it on
		// -rules verdicts would corrupt provenance.
		if st := reg.State(); st.ActiveHash != "" {
			if sp, ok := reg.Get(st.ActiveHash); ok && sp.Source != src {
				f, err := speclang.Parse(sp.Source)
				if err != nil {
					return fmt.Errorf("spec registry: active spec %.12s: %w", st.ActiveHash, err)
				}
				defSet, err := speclang.Compile(f, db.SignalNames())
				if err != nil {
					return fmt.Errorf("spec registry: active spec %.12s: %w", st.ActiveHash, err)
				}
				// Only the unnamed default rides the registry: sessions
				// that name a spec — including the -rules name — stay
				// pinned to what they asked for.
				orig := cfg.Resolve
				cfg.Resolve = func(name string) (*speclang.RuleSet, error) {
					if name == "" {
						return defSet, nil
					}
					return orig(name)
				}
				fmt.Fprintf(out, "monitord: default spec resumed from registry: %s (%.12s, epoch %d)\n",
					sp.Name, sp.Hash, st.ActiveEpoch)
			}
		}
	}

	var journal *obs.Journal
	if *journalPath != "" {
		journal, err = obs.OpenJournal(*journalPath, *journalMax)
		if err != nil {
			return err
		}
		defer journal.Close()
		if n := journal.Repaired(); n > 0 {
			fmt.Fprintf(out, "monitord: journal: cut %d torn bytes left by the previous run\n", n)
		}
		cfg.OnEvent, cfg.OnVerdict = journalHooks(journal, os.Stderr)
	}

	var archiver *archive.Writer
	if *archiveDir != "" {
		archiver, err = archive.OpenWriter(*archiveDir, archive.Options{SegmentBytes: *archiveSeg})
		if err != nil {
			return err
		}
		defer archiver.Close()
		cfg.Archiver = archiver
	}

	srv, err := fleet.NewServer(cfg)
	if err != nil {
		return err
	}
	wire.Instrument(srv.Registry())
	if archiver != nil {
		archive.Instrument(srv.Registry())
		fmt.Fprintf(out, "monitord: archiving to %s\n", archiver.Dir())
		if *archiveKeep > 0 {
			go sweepRetention(ctx, archiver, *archiveKeep, os.Stderr)
		}
	}

	if led != nil {
		durable.Instrument(srv.Registry())
		cat, err := archive.OpenCatalog(*archiveDir)
		if err != nil {
			return err
		}
		rs, err := durable.Recover(led, cat, srv)
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		fmt.Fprintf(out, "monitord: state dir %s (epoch %d)\n", *stateDir, led.Epoch())
		if rs.SessionsRecovered+rs.SessionsFailed > 0 {
			fmt.Fprintf(out, "monitord: recovery: %d sessions rebuilt (%d already verdicted, %d failed); %d frames replayed, %d orphaned\n",
				rs.SessionsRecovered, rs.SessionsFinalized, rs.SessionsFailed, rs.FramesReplayed, rs.OrphanFrames)
		}
	}

	var ctrl *specreg.Controller
	if reg != nil {
		scfg := specreg.Config{
			Registry:         reg,
			Fleet:            fleetAdapter{srv},
			Validate:         specValidator(db),
			MaxRegressions:   *specMaxRegr,
			MinShadowBatches: *specMinBat,
			MaxDivergence:    *specMaxDiv,
			MaxSLOBurn:       *specMaxBurn,
			AutoPromote:      *specAutoPro,
			Metrics:          srv.Registry(),
		}
		if slo != nil {
			scfg.SLOBurn = slo.Burn
		}
		if *archiveDir != "" {
			scfg.Gate = specGate(*archiveDir, archiver, db, mode, *specGateWin)
		}
		ctrl, err = specreg.NewController(scfg)
		if err != nil {
			return err
		}
		defer ctrl.Close()
		st := reg.State()
		fmt.Fprintf(out, "monitord: spec registry %s (active %.12s epoch %d)\n", *specDir, st.ActiveHash, st.ActiveEpoch)

		// SIGHUP re-reads the -rules selection and pushes it through the
		// rollout pipeline — the spec file equivalent of a config reload,
		// except it gates and shadows instead of swapping blindly.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				src, err := rulesSource(*ruleSpec)
				if err != nil {
					fmt.Fprintln(os.Stderr, "monitord: SIGHUP reload:", err)
					continue
				}
				if specreg.Hash(src) == reg.State().ActiveHash {
					fmt.Fprintf(os.Stderr, "monitord: SIGHUP: %s unchanged, nothing to roll out\n", *ruleSpec)
					continue
				}
				hash, err := ctrl.Push(*ruleSpec, src)
				if err != nil {
					fmt.Fprintln(os.Stderr, "monitord: SIGHUP push:", err)
					continue
				}
				fmt.Fprintf(os.Stderr, "monitord: SIGHUP: pushed %s as candidate %.12s\n", *ruleSpec, hash)
			}
		}()
	}

	// draining flips /healthz to 503 the moment shutdown begins, so
	// health checks stop routing before the listener actually closes.
	var draining atomic.Bool
	var repaired int64
	if journal != nil {
		repaired = journal.Repaired()
	}
	health := func() obs.Health {
		h := obs.Health{RepairedJournalBytes: repaired}
		if slo != nil {
			h.SLOBurn = slo.Burn()
			h.SLOTargetSeconds = slo.Target().Seconds()
			if slo.Degraded() {
				h.State = "degraded"
			}
		}
		if ctrl != nil {
			h.Rollout = ctrl.Status().Phase
			h.SpecEpoch = srv.ActiveEpoch()
		}
		return h
	}
	if *adminAddr != "" {
		ln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return fmt.Errorf("admin: %w", err)
		}
		acfg := obs.AdminConfig{
			Registry: srv.Registry(),
			Ready:    func() bool { return !draining.Load() },
			Health:   health,
		}
		if flt != nil {
			acfg.Flight = func() any { return flt.Snapshot() }
		}
		if ctrl != nil {
			acfg.Spec = specHandler(ctrl, reg)
		}
		admin := &http.Server{Handler: obs.NewAdmin(acfg)}
		go admin.Serve(ln)
		// The admin endpoint outlives the drain on purpose: /metrics
		// stays scrapeable while sessions settle. It dies with the
		// process.
		fmt.Fprintf(out, "monitord: admin on %s\n", ln.Addr())
	}

	if flt != nil {
		// SIGQUIT dumps the flight recorder instead of killing the
		// process — the in-field "what is the pipeline doing right now"
		// lever when the admin endpoint is off or unreachable.
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		defer signal.Stop(quit)
		go func() {
			for range quit {
				dumpFlight(os.Stderr, flt)
			}
		}()
	}

	if err := srv.Listen(*addr); err != nil {
		return err
	}
	fmt.Fprintf(out, "monitord: listening on %s (rules %s)\n", srv.Addr(), *ruleSpec)

	if *statsEvery > 0 {
		ticker := time.NewTicker(*statsEvery)
		defer ticker.Stop()
		for done := false; !done; {
			select {
			case <-ticker.C:
				printStats(out, srv.Stats())
			case <-ctx.Done():
				done = true
			}
		}
	} else {
		<-ctx.Done()
	}

	draining.Store(true)
	fmt.Fprintln(out, "monitord: draining sessions")
	sctx, cancel := context.WithTimeout(context.Background(), drainGrace)
	defer cancel()
	err = srv.Shutdown(sctx)
	if errors.Is(err, context.DeadlineExceeded) {
		if led != nil {
			// With a ledger the force-closed sessions are not lost: their
			// grants, watermarks and archived frames survive, and the next
			// start rebuilds them. A slow drain is a warning, not a failure.
			fmt.Fprintln(out, "monitord: drain deadline exceeded; unfinished sessions preserved in the state dir")
			err = nil
		} else {
			fmt.Fprintln(out, "monitord: drain deadline exceeded; remaining sessions force-closed")
		}
	}
	printStats(out, srv.Stats())
	return err
}

// dumpFlight writes the recorder's snapshot — ring contents plus the
// slowest end-to-end traces — as indented JSON, one SIGQUIT at a time.
func dumpFlight(w io.Writer, flt *flight.Recorder) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	fmt.Fprintln(w, "monitord: flight recorder dump:")
	if err := enc.Encode(flt.Snapshot()); err != nil {
		fmt.Fprintln(w, "monitord: flight dump:", err)
	}
}

// sweepRetention periodically removes sealed archive segments older
// than keep. The sweep interval tracks the retention window (a quarter
// of it) so segments overstay by at most ~25%, bounded to [15s, 10m].
func sweepRetention(ctx context.Context, w *archive.Writer, keep time.Duration, errOut io.Writer) {
	interval := keep / 4
	if interval < 15*time.Second {
		interval = 15 * time.Second
	}
	if interval > 10*time.Minute {
		interval = 10 * time.Minute
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			if _, err := w.SweepRetention(keep); err != nil {
				fmt.Fprintln(errOut, "monitord: archive retention:", err)
			}
		}
	}
}

// newResolver builds the session spec resolver: clients may select the
// built-in "strict" or "relaxed" sets, or the empty name for the
// daemon's default — which may be a custom .spec file compiled at
// startup. Arbitrary client-supplied paths are never opened.
func newResolver(def string, db *sigdb.DB) (fleet.SpecResolver, error) {
	defSet, err := loadRules(def, db)
	if err != nil {
		return nil, fmt.Errorf("rules %q: %w", def, err)
	}
	return resolverWithDefault(defSet, def), nil
}

// resolverWithDefault builds the resolver around an already-compiled
// default rule set — the -rules selection at startup, or the registry's
// active spec when a previous run promoted past it.
func resolverWithDefault(defSet *speclang.RuleSet, def string) fleet.SpecResolver {
	return func(name string) (*speclang.RuleSet, error) {
		switch name {
		case "", def:
			return defSet, nil
		case "strict":
			return rules.Strict()
		case "relaxed":
			return rules.Relaxed()
		default:
			return nil, fmt.Errorf("unknown spec (want \"\", %q, \"strict\" or \"relaxed\")", def)
		}
	}
}

func loadRules(spec string, db *sigdb.DB) (*speclang.RuleSet, error) {
	switch spec {
	case "strict":
		return rules.Strict()
	case "relaxed":
		return rules.Relaxed()
	}
	src, err := os.ReadFile(spec)
	if err != nil {
		return nil, err
	}
	f, err := speclang.Parse(string(src))
	if err != nil {
		return nil, err
	}
	return speclang.Compile(f, db.SignalNames())
}

func printStats(out io.Writer, st fleet.Stats) {
	fmt.Fprintf(out,
		"monitord: sessions %d active / %d opened / %d closed / %d refused; frames %d ingested / %d dropped / %d rejected; violations %d; avg ingest latency %v\n",
		st.SessionsActive, st.SessionsOpened, st.SessionsClosed, st.SessionsRefused,
		st.FramesIngested, st.FramesDropped, st.FramesRejected,
		st.ViolationsEmitted, st.AvgIngestLatency().Round(time.Microsecond))
	if st.SessionsResumed+st.SessionsReaped+st.RecordsQuarantined+st.DupBatchesDropped+st.GapEvents > 0 {
		fmt.Fprintf(out,
			"monitord: resilience: %d resumed / %d reaped sessions; %d records quarantined; %d duplicate batches dropped; %d gap events\n",
			st.SessionsResumed, st.SessionsReaped, st.RecordsQuarantined, st.DupBatchesDropped, st.GapEvents)
	}
	if st.ArchiveRecords+st.ArchiveDropped+st.ArchiveErrors > 0 {
		fmt.Fprintf(out, "monitord: archive: %d records / %d dropped / %d errors\n",
			st.ArchiveRecords, st.ArchiveDropped, st.ArchiveErrors)
	}
	if st.SessionsRestored+st.SessionsRestoreFailed+st.LedgerErrors > 0 {
		fmt.Fprintf(out, "monitord: durable: %d sessions restored / %d restore failures / %d ledger errors\n",
			st.SessionsRestored, st.SessionsRestoreFailed, st.LedgerErrors)
	}
}
