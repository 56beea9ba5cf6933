package server

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/clock"
	"dmps/internal/metrics"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
	"dmps/internal/transport"
)

// rawDial opens a raw transport connection to the lab server, bypassing
// the client library, for protocol-abuse tests.
func rawDial(t *testing.T, l *lab) transport.Conn {
	t.Helper()
	conn, err := l.net.DialFrom("attacker", "server:1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// sendMsg sends a handshake message (JSON); sendFrame one of the binary
// frames everything after the handshake must be.
func sendMsg(t *testing.T, conn transport.Conn, msg protocol.Message) {
	t.Helper()
	wire, err := protocol.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(wire); err != nil {
		t.Fatal(err)
	}
}

func sendFrame(t *testing.T, conn transport.Conn, msg protocol.Message) {
	t.Helper()
	wire, err := protocol.EncodeBinary(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(wire); err != nil {
		t.Fatal(err)
	}
}

func TestServerDropsGarbageHandshake(t *testing.T) {
	l := newLab(t)
	conn := rawDial(t, l)
	if err := conn.Send([]byte("{{{{ not json")); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection without crashing.
	if _, err := conn.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("recv = %v, want closed", err)
	}
	// And keep serving legitimate clients.
	c := l.dial("Legit", "participant", 2)
	if err := c.Join("class"); err != nil {
		t.Errorf("server unusable after garbage: %v", err)
	}
}

func TestServerRejectsNonHelloFirstMessage(t *testing.T) {
	l := newLab(t)
	conn := rawDial(t, l)
	msg := protocol.MustNew(protocol.TChat, protocol.ChatBody{Text: "premature"})
	sendMsg(t, conn, msg)
	if _, err := conn.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("recv = %v, want closed", err)
	}
}

func TestServerSurvivesMalformedBodies(t *testing.T) {
	l := newLab(t)
	conn := rawDial(t, l)
	hello := protocol.MustNew(protocol.THello, protocol.HelloBody{Name: "abuser", Priority: 2, WireVersion: protocol.WireVersion})
	hello.Seq = 1
	sendMsg(t, conn, hello)
	if _, err := conn.Recv(); err != nil { // welcome
		t.Fatal(err)
	}
	// Now a barrage of malformed requests: wrong body shapes, unknown
	// type codes, missing groups, a JSON frame where only binary is
	// spoken. Every one must be answered or ignored, never crash the
	// session.
	for _, raw := range [][]byte{
		{0xDF, 0, 0xF0, 0, 0, 0, 0, 0, 0, 0},
		[]byte(`{"type":"join","seq":5,"body":{"group":"class"}}`),
	} {
		if err := conn.Send(raw); err != nil {
			t.Fatal(err)
		}
	}
	abuses := []protocol.Message{
		{Type: protocol.TJoin, Seq: 2, Body: []byte(`{"group": 42}`)},
		{Type: protocol.TFloorRequest, Seq: 3, Group: "ghost", Body: []byte(`{"mode":"imaginary"}`)},
		{Type: protocol.TFloorRequest, Seq: 4, Group: "ghost", Body: []byte(`{"mode":"free-access"}`)},
		{Type: protocol.TTokenPass, Seq: 6, Group: "ghost", Body: []byte(`{"to":""}`)},
		{Type: protocol.TInviteReply, Seq: 7, Body: []byte(`{"invite_id":"NaN"}`)},
		{Type: protocol.TAnnotate, Seq: 8, Group: "ghost", Body: []byte(`{"kind":"explode"}`)},
		{Type: protocol.TClockSync, Seq: 9, Body: []byte(`[]`)},
	}
	for _, msg := range abuses {
		sendFrame(t, conn, msg)
	}
	// Collect replies: the two undecodable frames and each abuse with a
	// Seq get an err.
	errCount := 0
	deadline := time.After(2 * time.Second)
	for errCount < 8 {
		select {
		case <-deadline:
			t.Fatalf("only %d error replies", errCount)
		default:
		}
		wire, err := conn.Recv()
		if err != nil {
			t.Fatalf("session died: %v", err)
		}
		msg, err := protocol.DecodeBinary(wire)
		if err != nil {
			continue
		}
		if msg.Type == protocol.TErr {
			errCount++
		}
	}
	// The session is still usable afterwards.
	join := protocol.MustNew(protocol.TJoin, protocol.GroupBody{Group: "recovery"})
	join.Seq = 100
	sendFrame(t, conn, join)
	for {
		wire, err := conn.Recv()
		if err != nil {
			t.Fatalf("post-abuse recv: %v", err)
		}
		msg, err := protocol.DecodeBinary(wire)
		if err != nil {
			continue
		}
		if msg.Seq == 100 {
			if msg.Type != protocol.TAck {
				t.Errorf("post-abuse join: %v", msg.Type)
			}
			break
		}
	}
}

func TestServerPartitionTurnsLightRedThenHeals(t *testing.T) {
	l := newLab(t)
	teacher := l.dial("Teacher", "chair", 5)
	student := l.dial("Student", "participant", 2)
	_ = teacher.Join("class")
	_ = student.Join("class")
	waitFor(t, "initial green", func() bool {
		return l.srv.Lights()[student.MemberID()] == Green
	})
	// Partition the student from the server: probes stop flowing.
	l.net.Partition("client", netsim.Host("server:1"), true)
	waitFor(t, "red during partition", func() bool {
		return l.srv.Lights()[student.MemberID()] == Red
	})
	// Heal: status reports resume and the light recovers.
	l.net.Partition("client", netsim.Host("server:1"), false)
	waitFor(t, "green after heal", func() bool {
		return l.srv.Lights()[student.MemberID()] == Green
	})
}

func TestServerManyClientsJoinLeaveChurn(t *testing.T) {
	l := newLab(t)
	const n = 12
	clients := make([]*client.Client, 0, n)
	for i := 0; i < n; i++ {
		clients = append(clients, l.dial("churn", "participant", 2))
	}
	for round := 0; round < 3; round++ {
		for _, c := range clients {
			if err := c.Join("class"); err != nil {
				t.Fatal(err)
			}
		}
		for i, c := range clients {
			if i%2 == round%2 {
				if err := c.Leave("class"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// The registry stays consistent: every remaining member is real.
	members, err := l.srv.Registry().GroupMembers("class")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) == 0 || len(members) > n {
		t.Errorf("members = %d", len(members))
	}
}

// TestReplayRequiresMembership: boards are group-private; a non-member
// cannot siphon another group's history via TReplay.
func TestReplayRequiresMembership(t *testing.T) {
	l := newLab(t)
	alice := l.dial("Alice", "participant", 2)
	eve := l.dial("Eve", "participant", 2)
	_ = alice.Join("secret")
	if err := alice.Chat("secret", "the exam answers"); err != nil {
		t.Fatal(err)
	}
	if err := eve.Replay("secret", 0); !errors.Is(err, client.ErrDenied) {
		t.Errorf("non-member replay: %v", err)
	}
	if eve.Board("secret").Seq() != 0 {
		t.Error("board history leaked to a non-member")
	}
	// A member replays fine.
	if err := alice.Replay("secret", 0); err != nil {
		t.Errorf("member replay: %v", err)
	}
}

// TestCheckpointFailureCounted: a periodic checkpoint the journal
// refuses — here, because the WAL underneath was closed — is counted
// under dmps_errors_total{site="wal_checkpoint"} rather than discarded.
func TestCheckpointFailureCounted(t *testing.T) {
	sim := clock.NewSim(time.Unix(5000, 0))
	srv, err := New(Config{
		Network: netsim.New(23), Addr: "srv:1", Clock: sim, WALDir: t.TempDir(),
		ProbeInterval: time.Second, WALCheckpointInterval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	waitFor(t, "the probe loop to park on the clock", func() bool { return sim.Waiters() == 1 })
	if err := srv.wal.Close(); err != nil {
		t.Fatal(err)
	}
	sim.Advance(time.Second)
	waitFor(t, "the failed checkpoint to be counted", func() bool { return srv.ckptErrs.Load() == 1 })

	reg := metrics.NewRegistry()
	srv.RegisterMetrics(reg)
	var page strings.Builder
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	if want := `dmps_errors_total{site="wal_checkpoint"} 1`; !strings.Contains(page.String(), want) {
		t.Errorf("/metrics lacks %q", want)
	}
}
