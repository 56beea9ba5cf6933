package server

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dmps/internal/netsim"
	"dmps/internal/protocol"
	"dmps/internal/transport"
)

// newWriteThroughServer starts a server on network with no probe
// traffic, so every frame a session reads is one the test caused.
func newWriteThroughServer(t *testing.T, network transport.Network, addr string, queueCap int, policy SlowConsumerPolicy) *Server {
	t.Helper()
	srv, err := New(Config{
		Network:       network,
		Addr:          addr,
		ProbeInterval: time.Hour,
		SendQueueCap:  queueCap,
		SlowPolicy:    policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv
}

// rawHello sends a hello (token "" for a fresh member) over conn and
// returns the first message the server answers with.
func rawHello(t *testing.T, conn transport.Conn, name, token string) protocol.Message {
	t.Helper()
	hello := protocol.MustNew(protocol.THello, protocol.HelloBody{Name: name, Priority: 2, Token: token, WireVersion: protocol.WireVersion})
	hello.Seq = 1
	sendFrame(t, conn, hello)
	wire, err := conn.Recv()
	if err != nil {
		t.Fatalf("%s: first frame: %v", name, err)
	}
	first, err := protocol.DecodeBinary(wire)
	if err != nil {
		t.Fatalf("%s: first frame: %v", name, err)
	}
	return first
}

// rawMember admits a fresh member over conn and joins it to groupID,
// reading up to the join's ack. It returns the member's resume token.
func rawMember(t *testing.T, conn transport.Conn, name, groupID string) string {
	t.Helper()
	welcome := rawHello(t, conn, name, "")
	var wb protocol.WelcomeBody
	if welcome.Type != protocol.TWelcome || welcome.Into(&wb) != nil {
		t.Fatalf("%s: got %v, want welcome", name, welcome.Type)
	}
	join := protocol.MustNew(protocol.TJoin, protocol.GroupBody{Group: groupID})
	join.Seq = 2
	sendFrame(t, conn, join)
	for {
		wire, err := conn.Recv()
		if err != nil {
			t.Fatalf("%s: join: %v", name, err)
		}
		if msg, err := protocol.DecodeBinary(wire); err == nil && msg.Seq == 2 && msg.Type == protocol.TAck {
			return wb.Token
		}
	}
}

// chatEvent is the i-th event of a storm published to groupID.
func chatEvent(groupID string, i int, text string) protocol.Message {
	ev := protocol.MustNew(protocol.TChatEvent, protocol.SequencedBody{Seq: int64(i), Author: "storm", Kind: "text", Data: text})
	ev.Group = groupID
	return ev
}

// readChat reads chat events off conn until want of them arrived or the
// connection fails, and sends their CSeqs, in arrival order, on out.
func readChat(conn transport.Conn, want int, out chan<- []int64) {
	var cseqs []int64
	for len(cseqs) < want {
		wire, err := conn.Recv()
		if err != nil {
			break
		}
		if msg, err := protocol.DecodeBinary(wire); err == nil && msg.Type == protocol.TChatEvent {
			cseqs = append(cseqs, msg.CSeq)
		}
	}
	out <- cseqs
}

// checkConsecutive fails unless cseqs is exactly 1..want.
func checkConsecutive(t *testing.T, cseqs []int64, want int) {
	t.Helper()
	if len(cseqs) != want {
		t.Fatalf("read %d events, want %d", len(cseqs), want)
	}
	for i, c := range cseqs {
		if c != int64(i+1) {
			t.Fatalf("event %d has CSeq %d: order or completeness broken (…%v…)", i+1, c, cseqs[max(0, i-3):min(len(cseqs), i+4)])
		}
	}
}

// TestWriteThroughKeepsOrderAcrossStalls storms a member whose link
// stalls and releases over and over, so its frames keep switching
// between the inline path and the writer's queue: every event must
// still arrive in CSeq order with no hole, on a connection that never
// asks for backfill.
func TestWriteThroughKeepsOrderAcrossStalls(t *testing.T) {
	n := netsim.New(11)
	srv := newWriteThroughServer(t, n, "server:1", 1<<14, DropNewest)
	conn, err := n.DialFrom("mhost", "server:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rawMember(t, conn, "m", "g")

	const events = 6000
	got := make(chan []int64, 1)
	go readChat(conn, events, got)
	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 1; i <= events; i++ {
			srv.Broadcast("g", chatEvent("g", i, "x"))
		}
	}()
	for stall := true; ; stall = !stall {
		select {
		case <-published:
		default:
			n.Stall("server", "mhost", stall)
			time.Sleep(100 * time.Microsecond)
			continue
		}
		break
	}
	n.Stall("server", "mhost", false)
	select {
	case cseqs := <-got:
		checkConsecutive(t, cseqs, events)
	case <-time.After(10 * time.Second):
		t.Fatal("storm never arrived")
	}
	if st := srv.SessionStats(); st["m#1"].Drops != 0 {
		t.Errorf("drops = %d with a queue deep enough for the storm", st["m#1"].Drops)
	}
}

// TestWelcomeLeadsEveryResume resumes a member again and again while a
// storm targets its group, so broadcasts keep racing the handshake
// window, when the resumed session is in the table but its welcome is
// not yet written: the welcome must always be the first frame read.
func TestWelcomeLeadsEveryResume(t *testing.T) {
	n := netsim.New(12)
	srv := newWriteThroughServer(t, n, "server:1", 1<<14, DropNewest)
	first, err := n.DialFrom("mhost", "server:1")
	if err != nil {
		t.Fatal(err)
	}
	token := rawMember(t, first, "m", "g")
	first.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
				srv.Broadcast("g", chatEvent("g", i, "x"))
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()
	for i := 0; i < 300; i++ {
		conn, err := n.DialFrom("mhost", "server:1")
		if err != nil {
			t.Fatal(err)
		}
		msg := rawHello(t, conn, "m", token)
		conn.Close()
		if msg.Type != protocol.TWelcome {
			t.Fatalf("resume %d: first frame is %v, want the welcome", i, msg.Type)
		}
	}
}

// TestWriteThroughShortWriteOverTCP publishes frames larger than a
// loopback socket can buffer to a member that is not reading: the first
// goes inline and the server's socket takes only part of it, so its
// writer must finish it while later frames queue behind. No publishing call may
// block on the socket, and once the member reads, every frame arrives
// whole and in order.
func TestWriteThroughShortWriteOverTCP(t *testing.T) {
	srv := newWriteThroughServer(t, transport.TCP{}, "127.0.0.1:0", 64, DropNewest)
	conn, err := transport.TCP{}.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rawMember(t, conn, "m", "g")

	const events = 3
	const size = 6 << 20 // past the largest send buffer loopback grows to (4 MiB)
	texts := make([]string, events)
	for i := range texts {
		texts[i] = strings.Repeat(string(rune('a'+i)), size)
	}
	published := make(chan struct{})
	go func() {
		defer close(published)
		for i, text := range texts {
			srv.Broadcast("g", chatEvent("g", i+1, text))
		}
	}()
	select {
	case <-published:
	case <-time.After(5 * time.Second):
		t.Fatal("publishing blocked on a member that is not reading")
	}
	if srv.wireInline.Load() == 0 {
		t.Fatal("no frame went inline: the short write was never exercised")
	}
	for i, text := range texts {
		wire, err := conn.Recv()
		if err != nil {
			t.Fatalf("event %d: %v", i+1, err)
		}
		msg, err := protocol.DecodeBinary(wire)
		if err != nil {
			t.Fatalf("event %d arrived torn: %v", i+1, err)
		}
		var body protocol.SequencedBody
		if err := msg.Into(&body); err != nil || msg.CSeq != int64(i+1) || body.Data != text {
			t.Fatalf("event %d: CSeq %d with %d bytes of data: want CSeq %d whole", i+1, msg.CSeq, len(body.Data), i+1)
		}
	}
}

// TestSlowConsumerPolicyUnderWriteThrough pins the slow-consumer policy
// across the write-through path: while a member's link flows, a burst
// within its queue's capacity reaches it with nothing dropped and
// nothing left queued; while the link stalls, the socket pushes back,
// inline writes stop, and the queue fills and overflows exactly as
// before — counted and dropped (DropNewest) or disconnected
// (Disconnect), with SessionStats showing it.
func TestSlowConsumerPolicyUnderWriteThrough(t *testing.T) {
	const queueCap = 8
	for _, tc := range []struct {
		name   string
		policy SlowConsumerPolicy
		stall  bool
	}{
		{"drop/flowing", DropNewest, false},
		{"disconnect/flowing", Disconnect, false},
		{"drop/stalled", DropNewest, true},
		{"disconnect/stalled", Disconnect, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := netsim.New(13)
			srv := newWriteThroughServer(t, n, "server:1", queueCap, tc.policy)
			conn, err := n.DialFrom("mhost", "server:1")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			rawMember(t, conn, "m", "g")
			sess, _ := srv.session("m#1")
			events, first := queueCap, 1
			if tc.stall {
				n.Stall("server", "mhost", true)
				defer n.Stall("server", "mhost", false)
				events = 3 * queueCap
				// The first event queues behind the stalled link; wait
				// until the writer has taken it and blocks flushing it,
				// so the rest fill the queue rather than race the
				// writer's drain.
				srv.Broadcast("g", chatEvent("g", 1, "x"))
				waitWriterBlocked(t, sess)
				first = 2
			}
			for i := first; i <= events; i++ {
				srv.Broadcast("g", chatEvent("g", i, "x"))
			}
			st := srv.SessionStats()["m#1"]
			if st.QueueCap != queueCap {
				t.Fatalf("QueueCap = %d, want %d", st.QueueCap, queueCap)
			}
			if !tc.stall {
				if st.Drops != 0 || st.QueueDepth != 0 {
					t.Fatalf("flowing link: drops %d, depth %d, want 0 and 0", st.Drops, st.QueueDepth)
				}
				got := make(chan []int64, 1)
				go readChat(conn, events, got)
				checkConsecutive(t, <-got, events)
				if !sess.up() {
					t.Fatal("a member that keeps up was disconnected")
				}
				return
			}
			switch tc.policy {
			case DropNewest:
				// The writer holds the first event, the queue is full
				// behind it, and the rest overflowed: once the link
				// flows again, every event not counted as dropped
				// arrives, in order.
				if st.Drops <= 0 || st.Drops > int64(events-queueCap) {
					t.Fatalf("drops = %d, want 1..%d", st.Drops, events-queueCap)
				}
				if st.QueueDepth != queueCap || !sess.up() {
					t.Fatalf("depth %d, up %v: want a full queue on a live session", st.QueueDepth, sess.up())
				}
				kept := events - int(st.Drops)
				got := make(chan []int64, 1)
				go readChat(conn, kept, got)
				n.Stall("server", "mhost", false)
				cseqs := <-got
				if len(cseqs) != kept {
					t.Fatalf("read %d events after the stall, want the %d not dropped", len(cseqs), kept)
				}
				for i := 1; i < kept; i++ {
					if cseqs[i] <= cseqs[i-1] {
						t.Fatalf("CSeq %d after %d: out of order", cseqs[i], cseqs[i-1])
					}
				}
			case Disconnect:
				// The first overflow disconnects; a session that is down
				// takes nothing more, so nothing more counts as dropped.
				if st.Drops != 1 || sess.up() {
					t.Fatalf("drops %d, up %v: want one drop and the session down", st.Drops, sess.up())
				}
			}
		})
	}
}

// waitWriterBlocked waits until sess's writer has emptied the queue and
// holds wmu, which it does only across a flush: on a stalled link, that
// flush blocks until the stall is lifted. Nothing else writes to the
// session while this waits, so a held wmu is the writer's.
func waitWriterBlocked(t *testing.T, sess *session) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(sess.queue) == 0 {
			if !sess.wmu.TryLock() {
				return
			}
			sess.wmu.Unlock()
		}
		if time.Now().After(deadline) {
			t.Fatal("the writer never blocked flushing on the stalled link")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// flakyListener fails its first Accept with a transient error, as a
// listener out of file descriptors does, then accepts as usual.
type flakyListener struct {
	transport.Listener
	once sync.Once
}

func (l *flakyListener) Accept() (transport.Conn, error) {
	var fail bool
	l.once.Do(func() { fail = true })
	if fail {
		return nil, errors.Join(errors.New("accept: too many open files"), transport.ErrTransient)
	}
	return l.Listener.Accept()
}

// flakyNetwork hands out flakyListeners.
type flakyNetwork struct{ *netsim.Net }

func (f flakyNetwork) Listen(addr string) (transport.Listener, error) {
	l, err := f.Net.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &flakyListener{Listener: l}, nil
}

// TestTransientAcceptErrorKeepsServing fails the listener's first
// Accept transiently: the server must count it, back off, and go on
// accepting, so the next client still gets its welcome.
func TestTransientAcceptErrorKeepsServing(t *testing.T) {
	n := netsim.New(14)
	srv := newWriteThroughServer(t, flakyNetwork{n}, "server:1", 16, DropNewest)
	conn, err := n.DialFrom("mhost", "server:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := protocol.MustNew(protocol.THello, protocol.HelloBody{Name: "m", Priority: 2, WireVersion: protocol.WireVersion})
	sendFrame(t, conn, hello)
	got := make(chan []byte, 1)
	go func() {
		wire, _ := conn.Recv() // nil once the deferred Close runs
		got <- wire
	}()
	select {
	case wire := <-got:
		if msg, err := protocol.DecodeBinary(wire); err != nil || msg.Type != protocol.TWelcome {
			t.Fatalf("first frame %v (%v), want the welcome", msg.Type, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no welcome: the listener stopped at a transient error")
	}
	if got := srv.acceptErrs.Load(); got != 1 {
		t.Errorf("accept errors counted = %d, want 1", got)
	}
}

// TestInlineWriteAllocatesNothing pins the cost of the write-through
// path on the in-memory network: an inline write allocates nothing.
func TestInlineWriteAllocatesNothing(t *testing.T) {
	n := netsim.New(15)
	srv := newWriteThroughServer(t, n, "server:1", 16, DropNewest)
	conn, err := n.DialFrom("mhost", "server:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rawMember(t, conn, "m", "g")
	sess, ok := srv.session("m#1")
	if !ok {
		t.Fatal("no session")
	}
	wire := bytes.Repeat([]byte{0}, 64)
	waitFor(t, "the writer to start", func() bool { return sess.owed.Load() == 0 })
	if allocs := testing.AllocsPerRun(100, func() {
		if !srv.writeInline(sess, wire) {
			t.Fatal("an idle session refused an inline write")
		}
	}); allocs != 0 {
		t.Errorf("inline write: %.1f allocs, want 0", allocs)
	}
}
