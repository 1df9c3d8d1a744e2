package fleet

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/obs"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/wire"
)

// holdServer starts a loopback server whose grant hook parks the first
// attachment on the selected path (hello or resume) right after its
// grant is written: held fires once the attachment is inside that
// window, and closing the returned release channel lets it go on.
func holdServer(t *testing.T, holdResume bool) (srv *Server, addr string, held <-chan struct{}, release chan struct{}) {
	t.Helper()
	s, err := NewServer(Config{
		DB:          sigdb.Vehicle(),
		Resolve:     testResolver,
		ResumeGrace: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	heldCh := make(chan struct{})
	release = make(chan struct{})
	var once atomic.Bool
	s.grantHook = func(resumed bool) {
		if resumed == holdResume && once.CompareAndSwap(false, true) {
			close(heldCh)
			<-release
		}
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s, s.Addr().String(), heldCh, release
}

// dialResume opens a connection and sends a Resume for token.
func dialResume(t *testing.T, addr string, token uint64) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if err := wire.Write(conn, wire.Resume{Version: wire.Version, Token: token}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	return conn
}

// raceResume resumes token while another attachment of the session is
// held inside its grant window. The resume must find the session and
// force-close the held attachment — seen as EOF on stale, the client
// side of that attachment — rather than be answered (refused) while
// the hold lasts. After release the resume must be granted the same
// session, and the session must still reach a clean verdict.
func raceResume(t *testing.T, srv *Server, addr string, stale net.Conn, release chan struct{}, grant wire.SessionGrant) {
	t.Helper()
	conn := dialResume(t, addr, grant.Token)
	answer := make(chan any, 1)
	go func() {
		rec, err := wire.Read(conn)
		if err != nil {
			answer <- err
			return
		}
		answer <- rec
	}()
	closed := make(chan error, 1)
	go func() {
		stale.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, err := wire.Read(stale)
		closed <- err
	}()
	select {
	case ans := <-answer:
		close(release)
		t.Fatalf("resume answered while the granted attachment was held: %v", ans)
	case err := <-closed:
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			close(release)
			t.Fatal("held attachment was never force-closed by the resume")
		}
	}
	close(release)

	ans := <-answer
	g, ok := ans.(wire.SessionGrant)
	if !ok {
		t.Fatalf("resume: got %v, want a session grant", ans)
	}
	if g.Session != grant.Session || g.Token != grant.Token {
		t.Fatalf("resume granted session %d token %x, want %d token %x", g.Session, g.Token, grant.Session, grant.Token)
	}
	batch := wire.SeqBatch{Seq: 1, Frames: []can.Frame{{Time: 10 * time.Millisecond, ID: sigdb.FrameVehicleDyn}}}
	if err := wire.Write(conn, batch); err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(conn, wire.FinishSeq{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if v := awaitVerdict(t, conn); v.FramesIngested != 1 {
		t.Errorf("verdict ingested %d frames, want 1", v.FramesIngested)
	}
	// Ack the verdict as a client does, so a teardown drain that
	// reaches the session after the verdict sees delivery confirmed
	// rather than waiting out the resume grace.
	if err := wire.Write(conn, wire.Ack{}); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.SessionsRefused != 0 {
		t.Errorf("SessionsRefused = %d, want 0", st.SessionsRefused)
	}
}

// TestResumeInsideHelloGrantWindow pins the hello path's order: the
// session is published before its grant is written, so a client that
// gets the grant, loses the connection and resumes at once finds its
// token even though the hello goroutine has not started serving.
func TestResumeInsideHelloGrantWindow(t *testing.T) {
	srv, addr, held, release := holdServer(t, false)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	grant := rawGrant(t, conn, "veh-hello-window")
	<-held
	raceResume(t, srv, addr, conn, release, grant)
	if st := srv.Stats(); st.SessionsResumed != 1 {
		t.Errorf("SessionsResumed = %d, want 1", st.SessionsResumed)
	}
}

// TestResumeInsideResumeGrantWindow pins the same order on the resume
// path: a claimed session stays resolvable between its claim and its
// attachment, so a second resume racing the first one wins the session
// instead of being refused.
func TestResumeInsideResumeGrantWindow(t *testing.T) {
	srv, addr, held, release := holdServer(t, true)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	grant := rawGrant(t, conn, "veh-resume-window")
	conn.Close()

	first := dialResume(t, addr, grant.Token)
	rec, err := wire.Read(first)
	if err != nil {
		t.Fatalf("first resume: %v", err)
	}
	if _, ok := rec.(wire.SessionGrant); !ok {
		t.Fatalf("first resume: got %v, want a session grant", rec)
	}
	<-held
	raceResume(t, srv, addr, first, release, grant)
	if st := srv.Stats(); st.SessionsResumed != 2 {
		t.Errorf("SessionsResumed = %d, want 2", st.SessionsResumed)
	}
}

// TestDrainingLedgeredServerHangsUpOnResume pins what a ledgered server
// that is shutting down does with a resume it cannot serve. A session
// the drain left open in the ledger resolves in the next process, so
// its resume is hung up (the client retries) instead of refused; a
// token the server never handed on still gets the terminal "unknown or
// expired session token" refusal.
func TestDrainingLedgeredServerHangsUpOnResume(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := NewServer(Config{
		DB:       sigdb.Vehicle(),
		Resolve:  testResolver,
		Ledger:   newMemLedger(),
		Archiver: nullArchiver{},
		Metrics:  reg,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	// pipeConn serves one connection in process and returns its client
	// end and a channel closed when the server side is done.
	pipeConn := func() (net.Conn, chan struct{}) {
		client, server := net.Pipe()
		t.Cleanup(func() { client.Close() })
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handleConn(server)
		}()
		client.SetDeadline(time.Now().Add(10 * time.Second))
		return client, done
	}

	// A session owed its verdict: the client drops after the grant, and
	// Shutdown hands the session on to the next process.
	first, firstDone := pipeConn()
	grant := rawGrant(t, first, "veh-handed-on")
	first.Close()
	<-firstDone
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	conn, done := pipeConn()
	if err := wire.Write(conn, wire.Resume{Version: wire.Version, Token: grant.Token}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rec, err := wire.Read(conn); err == nil {
		t.Fatalf("draining server answered the resume with %v, want a hang-up", rec)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("draining server neither answered nor hung up")
	}
	<-done

	conn, done = pipeConn()
	if err := wire.Write(conn, wire.Resume{Version: wire.Version, Token: grant.Token + 1}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rec, err := wire.Read(conn); err == nil {
		if _, ok := rec.(wire.Error); !ok {
			t.Fatalf("unknown token: got %v, want a refusal", rec)
		}
	} else {
		t.Fatalf("unknown token: %v, want a refusal", err)
	}
	<-done

	m := scrape(t, reg)
	if got := m[`cpsmon_fleet_refusals_total{reason="draining"}`]; got != 1 {
		t.Errorf(`refusals{reason="draining"} = %v, want 1`, got)
	}
	if got := m[`cpsmon_fleet_refusals_total{reason="unknown_token"}`]; got != 1 {
		t.Errorf(`refusals{reason="unknown_token"} = %v, want 1`, got)
	}
}
