package fleet

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cpsmon/internal/obs"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/wire"
)

// scrape encodes the registry and parses every sample line back into a
// value keyed by "name{labels}", failing the test on any line that is
// not valid Prometheus text exposition.
func scrape(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return samples
}

// sumFamily totals every series of one family, across label sets.
func sumFamily(samples map[string]float64, name string) float64 {
	total := 0.0
	for k, v := range samples {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// TestMetricsMatchStatsAndJournal is the observability e2e: concurrent
// sessions stream HIL captures through a server publishing on a shared
// registry, with the event/verdict hooks feeding a JSONL journal. The
// scraped /metrics text must parse, its counters must equal the
// Server.Stats() snapshot and the monitor-level ground truth, and the
// journal must hold exactly one line per produced event and verdict.
func TestMetricsMatchStatsAndJournal(t *testing.T) {
	sessions := 8
	const dur = 60 * time.Second
	if testing.Short() {
		sessions = 4
	}
	logs := fleetScenarios(t, sessions, dur)

	// Offline ground truth: the violation counters on /metrics must
	// equal what CheckLog finds in the same captures.
	mon := offlineMonitor(t)
	var offlineViolations, totalFrames int
	for _, log := range logs {
		rep, err := mon.CheckLog(log, sigdb.Vehicle())
		if err != nil {
			t.Fatalf("CheckLog: %v", err)
		}
		for _, rr := range rep.Rules {
			offlineViolations += len(rr.Result.Violations)
		}
		totalFrames += len(log.Frames())
	}

	reg := obs.NewRegistry()
	journal, err := obs.OpenJournal(filepath.Join(t.TempDir(), "verdicts.jsonl"), 0)
	if err != nil {
		t.Fatal(err)
	}
	var hookEvents, hookVerdicts atomic.Uint64
	srv, addr := startServer(t, func(c *Config) {
		c.Metrics = reg
		c.OnEvent = func(session uint64, vehicle string, e wire.Event) {
			hookEvents.Add(1)
			if err := journal.Append(map[string]any{
				"kind": "event", "session": session, "vehicle": vehicle,
				"rule": e.Rule, "event": e.Kind.String(),
			}); err != nil {
				t.Errorf("journal event: %v", err)
			}
		}
		c.OnVerdict = func(session uint64, vehicle string, v wire.Verdict) {
			hookVerdicts.Add(1)
			if err := journal.Append(map[string]any{
				"kind": "verdict", "session": session, "vehicle": vehicle,
				"rules": len(v.Rules),
			}); err != nil {
				t.Errorf("journal verdict: %v", err)
			}
		}
	})

	var wg sync.WaitGroup
	var totalEvents atomic.Uint64
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialOptions(addr, Options{
				Vehicle: fmt.Sprintf("veh-%03d", i),
				Spec:    "strict",
				OnEvent: func(wire.Event) { totalEvents.Add(1) },
				Metrics: reg,
			})
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			defer c.Close()
			if _, err := c.Replay(logs[i], 0); err != nil {
				t.Errorf("session %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	st := srv.Stats()
	samples := scrape(t, reg)

	// Every server counter must read identically through Stats() and
	// the exposition — they are the same registry cells.
	for _, c := range []struct {
		metric string
		stat   uint64
	}{
		{"cpsmon_fleet_sessions_opened_total", st.SessionsOpened},
		{"cpsmon_fleet_sessions_closed_total", st.SessionsClosed},
		{"cpsmon_fleet_sessions_refused_total", st.SessionsRefused},
		{"cpsmon_fleet_sessions_resumed_total", st.SessionsResumed},
		{"cpsmon_fleet_sessions_reaped_total", st.SessionsReaped},
		{"cpsmon_fleet_frames_ingested_total", st.FramesIngested},
		{"cpsmon_fleet_frames_dropped_total", st.FramesDropped},
		{"cpsmon_fleet_frames_rejected_total", st.FramesRejected},
		{"cpsmon_fleet_batches_blocked_total", st.BatchesBlocked},
		{"cpsmon_fleet_violations_emitted_total", st.ViolationsEmitted},
		{"cpsmon_fleet_events_emitted_total", st.EventsEmitted},
		{"cpsmon_fleet_gap_events_total", st.GapEvents},
		{"cpsmon_fleet_records_quarantined_total", st.RecordsQuarantined},
		{"cpsmon_fleet_dup_batches_dropped_total", st.DupBatchesDropped},
		{"cpsmon_fleet_ingest_batch_latency_seconds_count", st.IngestBatches},
	} {
		got, ok := samples[c.metric]
		if !ok {
			t.Errorf("metric %s missing from exposition", c.metric)
			continue
		}
		if got != float64(c.stat) {
			t.Errorf("%s = %v, Stats() says %d", c.metric, got, c.stat)
		}
	}
	if st.SessionsOpened != uint64(sessions) || st.EventsEmitted == 0 || st.ViolationsEmitted == 0 {
		t.Errorf("fixture too quiet for the assertions to bite: %+v", st)
	}
	if got := samples["cpsmon_fleet_sessions_active"]; got != 0 {
		t.Errorf("sessions_active gauge = %v after all sessions settled, want 0", got)
	}

	// Monitor-level metrics against ground truth: every HIL frame has a
	// database ID, so the per-spec decode counter must equal the
	// server's ingest counter — which in turn must be every frame the
	// scenarios produced — and per-rule violation counters must sum to
	// the violations emitted, which must be what the offline CheckLog
	// finds in the same captures.
	if st.FramesIngested != uint64(totalFrames) {
		t.Errorf("server ingested %d frames, captures hold %d", st.FramesIngested, totalFrames)
	}
	if got := sumFamily(samples, "cpsmon_monitor_frames_decoded_total"); got != float64(st.FramesIngested) {
		t.Errorf("monitor frames decoded = %v, want %d", got, st.FramesIngested)
	}
	if got := sumFamily(samples, "cpsmon_monitor_rule_violations_total"); got != float64(offlineViolations) {
		t.Errorf("per-rule violation counters sum to %v, offline CheckLog finds %d", got, offlineViolations)
	}
	if got := sumFamily(samples, "cpsmon_monitor_rule_violations_total"); got != float64(st.ViolationsEmitted) {
		t.Errorf("per-rule violation counters sum to %v, want %d", got, st.ViolationsEmitted)
	}
	if got := sumFamily(samples, "cpsmon_monitor_steps_total"); got == 0 {
		t.Error("monitor step counter never advanced")
	}

	// Client metrics surfaced on the same registry, per vehicle.
	if got := sumFamily(samples, "cpsmon_fleet_client_dial_attempts_total"); got != float64(sessions) {
		t.Errorf("client dial attempts = %v, want %d", got, sessions)
	}
	if got := sumFamily(samples, "cpsmon_fleet_client_replay_depth"); got != 0 {
		t.Errorf("replay depth = %v after settlement, want 0", got)
	}

	// Journal: one line per produced event plus one per verdict, and
	// the clients saw every produced event exactly once.
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	if hookVerdicts.Load() != uint64(sessions) {
		t.Errorf("verdict hook fired %d times, want %d", hookVerdicts.Load(), sessions)
	}
	if hookEvents.Load() != st.EventsEmitted {
		t.Errorf("event hook fired %d times, server emitted %d", hookEvents.Load(), st.EventsEmitted)
	}
	if totalEvents.Load() != st.EventsEmitted {
		t.Errorf("clients received %d events, server emitted %d", totalEvents.Load(), st.EventsEmitted)
	}
	data, err := os.ReadFile(journal.Path())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if want := int(hookEvents.Load() + hookVerdicts.Load()); lines != want {
		t.Errorf("journal holds %d lines, want %d (events + verdicts)", lines, want)
	}
}

// TestWireMetricsOnSharedRegistry checks the codec counters surface
// alongside the fleet counters when the codec is instrumented on the
// server's registry.
func TestWireMetricsOnSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	wire.Instrument(reg)
	defer wire.Instrument(nil)
	_, addr := startServer(t, func(c *Config) { c.Metrics = reg })
	log := hilLog(t, 7, 2*time.Second, nil)
	c, err := DialOptions(addr, Options{Vehicle: "veh-wire", Spec: "strict", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Replay(log, 0); err != nil {
		t.Fatal(err)
	}
	samples := scrape(t, reg)
	if got := samples[`cpsmon_wire_records_total{dir="rx",type="seq_batch"}`]; got == 0 {
		t.Error("no seq_batch records counted on rx")
	}
	if got := samples[`cpsmon_wire_records_total{dir="tx",type="seq_batch"}`]; got == 0 {
		t.Error("no seq_batch records counted on tx")
	}
	if got := sumFamily(samples, "cpsmon_wire_bytes_total"); got == 0 {
		t.Error("no wire bytes counted")
	}
}

// TestRefusalReasonsCounted forces refusals through the handshake and
// checks each lands on its own cpsmon_fleet_refusals_total{reason}
// series, so a refused resume is diagnosable from /metrics alone.
func TestRefusalReasonsCounted(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startServer(t, func(c *Config) { c.Metrics = reg })
	refuse := func(rec wire.Record) string {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if err := wire.Write(conn, rec); err != nil {
			t.Fatal(err)
		}
		got, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("%T: %v", rec, err)
		}
		e, ok := got.(wire.Error)
		if !ok {
			t.Fatalf("%T answered with %T, want a refusal", rec, got)
		}
		return e.Msg
	}
	if msg := refuse(wire.Resume{Version: wire.Version, Token: 42}); msg != "unknown or expired session token" {
		t.Errorf("unknown token refused with %q", msg)
	}
	refuse(wire.Resume{Version: wire.Version, Token: 42, Epoch: 7})
	refuse(wire.Hello{Version: 99, Vehicle: "v"})
	refuse(wire.Hello{Version: wire.Version, Vehicle: "v", Spec: "no-such-spec"})

	samples := scrape(t, reg)
	want := map[string]float64{
		"unknown_token": 1, "stale_epoch": 1, "version": 1, "spec": 1,
		"limit": 0, "handshake": 0, "draining": 0, "setup": 0, "ledger": 0,
	}
	for reason, n := range want {
		key := `cpsmon_fleet_refusals_total{reason="` + reason + `"}`
		got, ok := samples[key]
		if !ok {
			t.Errorf("%s missing from exposition", key)
			continue
		}
		if got != n {
			t.Errorf("%s = %v, want %v", key, got, n)
		}
	}
	if got, st := sumFamily(samples, "cpsmon_fleet_refusals_total"), srv.Stats(); got != float64(st.SessionsRefused) || got != 4 {
		t.Errorf("refusals by reason sum to %v, sessions refused = %d; want both 4", got, st.SessionsRefused)
	}
}

// TestRuleLatencySampledWithoutRecorder checks that a server with no
// flight recorder still stage-times sampled batches: the step and
// per-rule latency histograms are populated, every rule holds exactly
// the step histogram's observations, and they cover only a sample of
// the steps the monitor finalized.
func TestRuleLatencySampledWithoutRecorder(t *testing.T) {
	reg := obs.NewRegistry()
	_, addr := startServer(t, func(c *Config) {
		c.Metrics = reg
		c.Flight = nil
	})
	for i, log := range fleetScenarios(t, 2, 20*time.Second) {
		c, err := DialOptions(addr, Options{Vehicle: fmt.Sprintf("veh-%d", i), Spec: "strict"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Replay(log, 0); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	samples := scrape(t, reg)
	steps := samples[`cpsmon_monitor_steps_total{spec="strict"}`]
	sampled := samples[`cpsmon_monitor_step_latency_seconds_count{spec="strict"}`]
	if sampled == 0 || sampled >= steps {
		t.Fatalf("step latency observations = %v of %v steps; want a nonzero sample", sampled, steps)
	}
	rules := 0
	for k, v := range samples {
		if !strings.HasPrefix(k, "cpsmon_monitor_rule_step_latency_seconds_count{") {
			continue
		}
		rules++
		if v != sampled {
			t.Errorf("%s = %v, want %v (one per rule per sampled step)", k, v, sampled)
		}
	}
	if rules == 0 {
		t.Fatal("no per-rule step latency series exposed")
	}
}
