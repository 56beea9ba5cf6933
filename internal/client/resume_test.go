package client_test

import (
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
	"dmps/internal/transport"
)

// resumeServer is a fake server that admits a session, acks its joins
// and then serves resumes with the handshake's order turned round: it
// writes nothing on a resume connection until it has read the hello AND
// the backfill asks behind it (one per joined group plus the member
// log), and answers the group's ask with one floor event naming holder.
// A client that waits for the welcome before it asks never gets one.
func resumeServer(t *testing.T, n *netsim.Net, asks int, holder string) {
	t.Helper()
	l, err := n.Listen("fake:1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	send := func(conn transport.Conn, msg protocol.Message, binary bool) {
		wire, err := protocol.EncodeBinary(msg)
		if binary {
			wire, err = protocol.EncodeBinary(msg)
		}
		if err == nil {
			_ = conn.Send(wire)
		}
	}
	welcome := func(conn transport.Conn, seq int64) {
		msg := protocol.MustNew(protocol.TWelcome, protocol.WelcomeBody{MemberID: "m#1", Token: "tok", WireVersion: protocol.WireVersion})
		msg.Seq = seq
		send(conn, msg, false)
	}
	// The first connection is the Dial: welcome at once, ack every join.
	// Every later connection is a resume.
	go func() {
		for first := true; ; first = false {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if first {
				go func() {
					wire, err := conn.Recv()
					if err != nil {
						return
					}
					hello, err := protocol.DecodeBinary(wire)
					if err != nil {
						return
					}
					welcome(conn, hello.Seq)
					for {
						wire, err := conn.Recv()
						if err != nil {
							return
						}
						if msg, err := protocol.DecodeBinary(wire); err == nil && msg.Type == protocol.TJoin {
							ack := protocol.MustNew(protocol.TAck, nil)
							ack.Seq = msg.Seq
							send(conn, ack, true)
						}
					}
				}()
				continue
			}
			go func() {
				defer conn.Close()
				wire, err := conn.Recv()
				if err != nil {
					return
				}
				hello, err := protocol.DecodeBinary(wire)
				if err != nil || hello.Type != protocol.THello {
					return
				}
				var group string
				var after int64
				for i := 0; i < asks; i++ {
					wire, err := conn.Recv()
					if err != nil {
						return
					}
					msg, err := protocol.DecodeBinary(wire)
					if err != nil || msg.Type != protocol.TBackfill {
						t.Errorf("frame %d behind the hello is %v (%v), want a backfill", i, msg.Type, err)
						return
					}
					var body protocol.BackfillBody
					if err := msg.Into(&body); err != nil {
						t.Error(err)
						return
					}
					if body.Group != "" {
						group, after = body.Group, body.Afters[protocol.ClassFloor]
					}
				}
				welcome(conn, hello.Seq)
				ev := protocol.MustNew(protocol.TFloorEvent, protocol.FloorEventBody{Mode: "equal", Holder: holder, Event: "granted"})
				ev.Group, ev.Class, ev.CSeq, ev.State = group, protocol.ClassFloor, after+1, true
				send(conn, ev, true)
				for {
					if _, err := conn.Recv(); err != nil {
						return
					}
				}
			}()
		}
	}()
}

// dialJoined dials the fake server and joins one group.
func dialJoined(t *testing.T, n *netsim.Net, group string) *client.Client {
	t.Helper()
	c, err := client.Dial(client.Config{Network: n, Addr: "fake:1", Name: "m", Timeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Join(group); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestReconnectAsksRideTheHello pins the resume's order: the backfill
// asks leave in the hello's write, so a server that answers only once
// it has read them still resumes the session, and the session converges
// on what the asks bring back. A client that waited for the welcome
// before asking would time out here.
func TestReconnectAsksRideTheHello(t *testing.T) {
	n := netsim.New(31)
	resumeServer(t, n, 2, "teacher#2")
	c := dialJoined(t, n, "class")
	c.Drop()
	if err := c.Reconnect(); err != nil {
		t.Fatalf("Reconnect = %v, want the resume to land", err)
	}
	waitFor(t, func() bool { return c.Holder("class") == "teacher#2" })
}
