package client_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/floor"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
	"dmps/internal/server"
	"dmps/internal/transport"
)

func TestDialRequiresNetwork(t *testing.T) {
	if _, err := client.Dial(client.Config{}); err == nil {
		t.Error("nil network should fail")
	}
}

func TestDialUnknownAddress(t *testing.T) {
	n := netsim.New(1)
	_, err := client.Dial(client.Config{Network: n, Addr: "nowhere:1", Name: "x"})
	if !errors.Is(err, transport.ErrUnknownAddress) {
		t.Errorf("err = %v", err)
	}
}

// fakeServer accepts one connection and drives it with fn.
func fakeServer(t *testing.T, n *netsim.Net, fn func(transport.Conn)) {
	t.Helper()
	l, err := n.Listen("fake:1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		fn(conn)
	}()
}

func TestDialRejectsGarbageHandshake(t *testing.T) {
	n := netsim.New(2)
	fakeServer(t, n, func(conn transport.Conn) {
		_, _ = conn.Recv()                  // swallow hello
		_ = conn.Send([]byte("not json {")) // garbage welcome
	})
	if _, err := client.Dial(client.Config{Network: n, Addr: "fake:1", Name: "x"}); err == nil {
		t.Error("garbage handshake should fail")
	}
}

func TestDialRejectsWrongWelcomeType(t *testing.T) {
	n := netsim.New(3)
	fakeServer(t, n, func(conn transport.Conn) {
		_, _ = conn.Recv()
		msg := protocol.MustNew(protocol.TChat, protocol.ChatBody{Text: "hi"})
		wire, _ := protocol.Encode(msg)
		_ = conn.Send(wire)
	})
	if _, err := client.Dial(client.Config{Network: n, Addr: "fake:1", Name: "x"}); err == nil {
		t.Error("non-welcome reply should fail")
	}
}

func TestDialServerClosesEarly(t *testing.T) {
	n := netsim.New(4)
	fakeServer(t, n, func(conn transport.Conn) {
		conn.Close()
	})
	if _, err := client.Dial(client.Config{Network: n, Addr: "fake:1", Name: "x"}); err == nil {
		t.Error("closed-before-welcome should fail")
	}
}

// silentServer completes the handshake then ignores every request.
func silentServer(t *testing.T, n *netsim.Net) {
	fakeServer(t, n, func(conn transport.Conn) {
		wire, err := conn.Recv()
		if err != nil {
			return
		}
		msg, err := protocol.Decode(wire)
		if err != nil {
			return
		}
		welcome := protocol.MustNew(protocol.TWelcome, protocol.WelcomeBody{MemberID: "m#1", WireVersion: protocol.WireVersion})
		welcome.Seq = msg.Seq
		out, _ := protocol.Encode(welcome)
		_ = conn.Send(out)
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	})
}

func TestRequestTimesOutAgainstSilentServer(t *testing.T) {
	n := netsim.New(5)
	silentServer(t, n)
	c, err := client.Dial(client.Config{
		Network: n, Addr: "fake:1", Name: "x",
		Timeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Join("class"); !errors.Is(err, client.ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestRequestAfterCloseFails(t *testing.T) {
	n := netsim.New(6)
	silentServer(t, n)
	c, err := client.Dial(client.Config{Network: n, Addr: "fake:1", Name: "x", Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
	if err := c.Join("class"); !errors.Is(err, client.ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestRequestUnblocksWhenServerDies(t *testing.T) {
	n := netsim.New(7)
	srv, err := server.New(server.Config{Network: n, Addr: "real:1", ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	c, err := client.Dial(client.Config{Network: n, Addr: "real:1", Name: "x", Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Kill the server mid-session: in-flight requests must not hang.
	done := make(chan error, 1)
	go func() {
		time.Sleep(10 * time.Millisecond)
		srv.Close()
	}()
	go func() {
		for i := 0; i < 100; i++ {
			if err := c.Join("class"); err != nil {
				done <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Log("server closed after the join loop finished (acceptable)")
		} else if !errors.Is(err, client.ErrClosed) && !errors.Is(err, client.ErrTimeout) && !errors.Is(err, client.ErrDenied) {
			t.Errorf("unexpected error shape: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("request hung after server death")
	}
}

func TestOnEventObservesBroadcasts(t *testing.T) {
	n := netsim.New(8)
	srv, err := server.New(server.Config{Network: n, Addr: "real:1", ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()

	var mu sync.Mutex
	seen := make(map[protocol.Type]int)
	c, err := client.Dial(client.Config{
		Network: n, Addr: "real:1", Name: "observer",
		OnEvent: func(msg protocol.Message) {
			mu.Lock()
			seen[msg.Type]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Join("class"); err != nil {
		t.Fatal(err)
	}
	if err := c.Chat("class", "hello"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		chats, lights := seen[protocol.TChatEvent], seen[protocol.TLights]
		mu.Unlock()
		if chats >= 1 && lights >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("events not observed: %v", seen)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestFloorRequestDecisionFields(t *testing.T) {
	n := netsim.New(9)
	srv, err := server.New(server.Config{Network: n, Addr: "real:1", ProbeInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	a, err := client.Dial(client.Config{Network: n, Addr: "real:1", Name: "a", Priority: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := client.Dial(client.Config{Network: n, Addr: "real:1", Name: "b", Priority: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	_ = a.Join("g")
	_ = b.Join("g")
	dec, err := a.RequestFloor("g", floor.EqualControl, "")
	if err != nil || !dec.Granted {
		t.Fatalf("grant: %+v %v", dec, err)
	}
	dec2, err := b.RequestFloor("g", floor.EqualControl, "")
	if err != nil {
		t.Fatalf("queued request should ack: %v", err)
	}
	if dec2.Granted || dec2.QueuePosition != 1 || dec2.Holder != a.MemberID() {
		t.Errorf("dec2 = %+v", dec2)
	}
	if dec2.Reason == "" {
		t.Error("queued decision should carry the busy reason")
	}
}
