// Package client implements the DMPS client library: the programmatic
// counterpart of the paper's communication window (Figure 2). A Client
// connects to the DMPS server, joins groups, requests the floor, posts to
// the message window and whiteboard, maintains a clock-sync estimator
// against the server's global clock, and mirrors the connection lights
// the teacher's window shows (Figure 3).
//
// State events arrive on the sequenced event-log plane: every logged
// broadcast carries its log's per-class sequence (Message.Class/CSeq),
// and the read loop applies each class strictly in sequence — with
// state-bearing restatements (Message.State) admissible across holes,
// since they carry everything the missed events did to their class. A
// hole on a non-restating event — or a digest head in the lights
// broadcast beyond the client's cursor — means the server dropped
// something on this client's queue; the client asks TBackfill (paced
// by a jittered exponential backoff) and converges from the replayed
// compacted suffix, or from a compact snapshot when the log no longer
// connects. The same machinery powers Reconnect: a client that lost
// its connection dials again with its session token and resumes — same
// member identity, same subscriptions, no re-joining. Sessions may
// run with a server-side event-class mask (Config.EventClasses,
// SetEventClasses): unsubscribed classes are filtered before they ever
// reach this client's delivery queue.
package client

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"time"

	"dmps/internal/clock"
	"dmps/internal/floor"
	"dmps/internal/grouplog"
	"dmps/internal/media"
	"dmps/internal/protocol"
	"dmps/internal/transport"
	"dmps/internal/whiteboard"
)

// Client errors.
var (
	// ErrTimeout is returned when the server does not answer a request in
	// time.
	ErrTimeout = errors.New("client: request timed out")
	// ErrDenied wraps a TErr reply.
	ErrDenied = errors.New("client: request denied")
	// ErrClosed is returned after Close or connection loss.
	ErrClosed = errors.New("client: closed")
	// ErrSessionExpired is returned by Reconnect when the server no
	// longer recognizes the session token — the member was reaped after
	// being gone longer than the server's session TTL. The session
	// cannot be resumed; dial a fresh client instead.
	ErrSessionExpired = errors.New("client: session expired")
)

// Config configures a client.
type Config struct {
	// Network and Addr locate the server.
	Network transport.Network
	Addr    string
	// Name, Role ("chair"/"participant") and Priority describe the member.
	Name     string
	Role     string
	Priority int
	// Clock is the client's local clock (defaults to the real clock).
	// Tests inject drifting clocks here.
	Clock clock.Clock
	// Timeout bounds each request/response exchange (default 5s).
	Timeout time.Duration
	// EventClasses is the session's initial event-class mask: the logged
	// event classes (protocol.ClassFloor, ClassSuspend, ClassBoard,
	// ClassInvite) this client wants pushed. Filtering runs server-side
	// — an unsubscribed class costs this client zero bytes under churn —
	// at the price of the matching polling accessors going stale. Nil or
	// empty means every class; protocol.ClassNone alone means none.
	// SetEventClasses changes it later, and Subscribe widens it
	// automatically when a subscription needs a class the mask excludes.
	EventClasses []string
	// OnEvent, when set, observes every server-initiated event
	// synchronously from the read loop: keep it fast and non-blocking.
	OnEvent func(protocol.Message)
	// Trace stamps a sampled trace context (a fresh random trace ID plus
	// the sampled bit) onto every request this client sends, asking each
	// hop — router relay, owner dispatch, replication, fan-out — to
	// record named spans for the op.
	Trace bool
}

// cursorKey addresses one admission cursor: a log (group ID, or the
// member-log key) and an event class within it. Logged events are
// sequenced densely per (log, class), which is what lets the server
// filter whole classes per recipient without the survivors looking like
// holes.
type cursorKey struct {
	log   string
	class string
}

// Client is a connected DMPS client.
type Client struct {
	cfg Config
	est *clock.Estimator

	sendMu sync.Mutex

	mu       sync.Mutex
	conn     transport.Conn // replaced by Reconnect
	memberID string
	token    string // session-resume credential from the welcome
	seq      int64
	pending  map[int64]chan protocol.Message
	boards   map[string]*whiteboard.Board
	joined   map[string]bool // groups this client has joined
	// Lights arrive sharded by origin (one table per cluster node,
	// covering the members it homes; origin "" is a standalone server's
	// whole table): each push replaces its origin's table — pruning
	// members that left it — and the merged view is rebuilt for the
	// accessors.
	lightsByOrigin    map[string]map[string]string
	backpressByOrigin map[string]map[string]protocol.BackpressureBody
	lights            map[string]string
	backpress         map[string]protocol.BackpressureBody
	holders           map[string]string // group → token holder
	queuePos          map[string]int    // group → last pushed queue position
	invites           []protocol.InviteEventBody
	privates          []protocol.SequencedBody // received direct-contact lines
	suspends          []protocol.SuspendBody
	// suspendedNow tracks which members the client currently believes
	// suspended, per group. Snapshots re-state (and reconcile) the
	// suspension set, so redundant TSuspend/TResume deliveries must be
	// filtered or SuspendNotices and SuspendEvents would report
	// transitions that never happened.
	suspendedNow map[string]map[string]bool
	// lastSeq is the highest applied CSeq per (event log, class). Logged
	// events apply strictly in per-class sequence: a duplicate is
	// dropped, a hole triggers a TBackfill — unless the event is
	// state-bearing (a full restatement of its class), which may be
	// admitted across the hole, jumping the cursor.
	lastSeq map[cursorKey]int64
	// classes is the session's current event-class mask (nil = all),
	// mirrored at the server, which filters before enqueuing.
	classes map[string]bool
	// repairs paces backfill/replay re-asks per log: jittered
	// exponential backoff so a fleet of behind replicas cannot stampede
	// the server in lockstep.
	repairs      map[string]*repairAsk
	present      *protocol.PresentBody // last presentation start received
	mediaStats   map[string]map[string]MediaStat
	subs         []*subscriber // Subscribe event channels
	closed       bool          // user called Close: the session is over
	connDown     bool          // connection lost; Reconnect can resume
	reconnecting bool          // a Reconnect is in flight (at most one)
	readerDone   chan struct{} // replaced by Reconnect; read under mu
}

// redirectError carries a cluster node's node_moved redirect: the
// member is homed on (or the session belongs to) another node.
type redirectError struct{ addr string }

func (e *redirectError) Error() string { return "client: redirected to " + e.addr }

// maxRedirects bounds the node_moved redirect chain a Dial follows —
// one hop resolves any consistent partition map; the bound only guards
// against a misconfigured cluster bouncing a hello in a cycle.
const maxRedirects = 3

// Dial connects and performs the hello/welcome handshake. Against a
// cluster it follows node_moved redirects transparently: a node that
// does not home this member answers with the owning node's address, and
// the dial is retried there.
func Dial(cfg Config) (*Client, error) {
	if cfg.Network == nil {
		return nil, errors.New("client: Config.Network is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	conn, err := cfg.Network.Dial(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	c := &Client{
		cfg:               cfg,
		conn:              conn,
		est:               clock.NewEstimator(cfg.Clock, 8),
		pending:           make(map[int64]chan protocol.Message),
		boards:            make(map[string]*whiteboard.Board),
		joined:            make(map[string]bool),
		lights:            make(map[string]string),
		lightsByOrigin:    make(map[string]map[string]string),
		backpressByOrigin: make(map[string]map[string]protocol.BackpressureBody),
		holders:           make(map[string]string),
		queuePos:          make(map[string]int),
		lastSeq:           make(map[cursorKey]int64),
		classes:           protocol.ClassMask(cfg.EventClasses),
		readerDone:        make(chan struct{}),
	}
	c.mu.Lock()
	c.seq = 1
	c.mu.Unlock()
	hello := protocol.HelloBody{
		Name: cfg.Name, Role: cfg.Role, Priority: cfg.Priority,
		Classes:     cfg.EventClasses,
		WireVersion: protocol.WireVersion,
	}
	welcome, err := handshake(conn, cfg, hello, 1)
	for hops := 0; err != nil && hops < maxRedirects; hops++ {
		var redirect *redirectError
		if !errors.As(err, &redirect) {
			break
		}
		_ = conn.Close()
		if conn, err = cfg.Network.Dial(redirect.addr); err != nil {
			return nil, fmt.Errorf("client: redirect: %w", err)
		}
		// The redirect target is the session's real home: remember it so
		// a later Reconnect resumes there, not at the node that bounced
		// us (which would not recognize the token).
		cfg.Addr = redirect.addr
		c.cfg.Addr = redirect.addr
		c.mu.Lock()
		c.conn = conn
		c.mu.Unlock()
		welcome, err = handshake(conn, cfg, hello, 1)
	}
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	c.mu.Lock()
	c.memberID = welcome.MemberID
	c.token = welcome.Token
	c.mu.Unlock()
	go c.readLoop()
	return c, nil
}

// newTraceID draws a fresh nonzero trace ID for a sampled request.
func newTraceID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// wantsClassLocked reports whether the current mask admits a class.
// Requires c.mu.
func (c *Client) wantsClassLocked(class string) bool {
	return c.classes == nil || c.classes[class]
}

// groupClassesLocked lists the event classes this client tracks on a
// group log — the classes its mask admits. Requires c.mu.
func (c *Client) groupClassesLocked() []string {
	var out []string
	for _, class := range []string{protocol.ClassFloor, protocol.ClassSuspend, protocol.ClassBoard} {
		if c.wantsClassLocked(class) {
			out = append(out, class)
		}
	}
	return out
}

// handshake performs one hello/welcome exchange on a fresh connection.
// The frames in behind leave in the hello's own write: a server handles
// them only once it has admitted the session, and a refused hello
// discards them with the connection, so nothing waits for the welcome
// that does not need it.
func handshake(conn transport.Conn, cfg Config, hello protocol.HelloBody, seq int64, behind ...[]byte) (protocol.WelcomeBody, error) {
	msg := protocol.MustNew(protocol.THello, hello)
	msg.Seq = seq
	wire, err := protocol.EncodeBinary(msg)
	if err != nil {
		return protocol.WelcomeBody{}, err
	}
	// A server that refuses the hello may close before the frames behind
	// it are written: the refusal is still there to read.
	if err := transport.SendAll(conn, append([][]byte{wire}, behind...)); err != nil && !errors.Is(err, transport.ErrClosed) {
		return protocol.WelcomeBody{}, err
	}
	reply, err := recvDeadline(conn, cfg.Clock, cfg.Timeout)
	if err != nil {
		return protocol.WelcomeBody{}, fmt.Errorf("client: handshake recv: %w", err)
	}
	got, err := protocol.DecodeBinary(reply)
	if err == nil && got.Type == protocol.TErr {
		var body protocol.ErrBody
		_ = got.Into(&body)
		if body.Code == "session_expired" {
			return protocol.WelcomeBody{}, fmt.Errorf("%w: %s", ErrSessionExpired, body.Detail)
		}
		if body.Code == protocol.CodeNodeMoved && body.Detail != "" {
			// A cluster node that does not home this member redirects to
			// the one that does; Dial follows transparently.
			return protocol.WelcomeBody{}, &redirectError{addr: body.Detail}
		}
		return protocol.WelcomeBody{}, fmt.Errorf("%w: %s: %s", ErrDenied, body.Code, body.Detail)
	}
	if err != nil || got.Type != protocol.TWelcome {
		return protocol.WelcomeBody{}, fmt.Errorf("client: unexpected handshake reply %q (%v)", got.Type, err)
	}
	var welcome protocol.WelcomeBody
	if err := got.Into(&welcome); err != nil {
		return protocol.WelcomeBody{}, err
	}
	if welcome.WireVersion != protocol.WireVersion {
		return protocol.WelcomeBody{}, fmt.Errorf("client: server speaks wire version %d, not %d", welcome.WireVersion, protocol.WireVersion)
	}
	return welcome, nil
}

// recvDeadline bounds one Recv by the configured timeout, so a server
// that accepts the connection but never answers the handshake cannot
// block Dial forever. On timeout the connection is left to the caller to
// close (which also unblocks the pending Recv).
func recvDeadline(conn transport.Conn, clk clock.Clock, timeout time.Duration) ([]byte, error) {
	type result struct {
		wire []byte
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		wire, err := conn.Recv()
		ch <- result{wire, err}
	}()
	select {
	case r := <-ch:
		return r.wire, r.err
	case <-clk.After(timeout):
		return nil, fmt.Errorf("%w: handshake after %v", ErrTimeout, timeout)
	}
}

// MemberID returns the server-assigned member ID.
func (c *Client) MemberID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.memberID
}

// Estimator exposes the clock-sync estimator (for presentation playout).
func (c *Client) Estimator() *clock.Estimator { return c.est }

// Clock returns the client's local clock.
func (c *Client) Clock() clock.Clock { return c.cfg.Clock }

func (c *Client) send(msg protocol.Message) error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	wire, err := protocol.EncodeBinary(msg)
	if err != nil {
		return err
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if err = conn.Send(wire); errors.Is(err, transport.ErrClosed) {
		err = fmt.Errorf("%w: %w", ErrClosed, err) // connection loss, as the reader reports it
	}
	return err
}

// request sends a message and waits for the matching TAck/TErr/TClockSync
// reply.
func (c *Client) request(msg protocol.Message) (protocol.Message, error) {
	c.mu.Lock()
	if c.closed || c.connDown {
		c.mu.Unlock()
		return protocol.Message{}, ErrClosed
	}
	c.seq++
	msg.Seq = c.seq
	if c.cfg.Trace && msg.TraceID == 0 {
		msg.TraceID = newTraceID()
		msg.TraceFlags = protocol.TraceSampled
	}
	ch := make(chan protocol.Message, 1)
	c.pending[msg.Seq] = ch
	done := c.readerDone
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, msg.Seq)
		c.mu.Unlock()
	}()
	if err := c.send(msg); err != nil {
		return protocol.Message{}, err
	}
	select {
	case reply := <-ch:
		if reply.Type == protocol.TErr {
			var body protocol.ErrBody
			_ = reply.Into(&body)
			return reply, fmt.Errorf("%w: %s: %s", ErrDenied, body.Code, body.Detail)
		}
		return reply, nil
	case <-c.cfg.Clock.After(c.cfg.Timeout):
		return protocol.Message{}, fmt.Errorf("%w: %s", ErrTimeout, msg.Type)
	case <-done:
		return protocol.Message{}, ErrClosed
	}
}

// readLoop dispatches replies and server events until the connection
// drops. Losing the connection does not end the session: subscriptions
// stay attached (Reconnect resumes them) and are closed only when the
// client itself is Closed.
func (c *Client) readLoop() {
	c.mu.Lock()
	conn, done := c.conn, c.readerDone
	c.mu.Unlock()
	defer close(done)
	for {
		wire, err := conn.Recv()
		if err != nil {
			c.mu.Lock()
			c.connDown = true
			userClosed := c.closed
			c.mu.Unlock()
			if userClosed {
				c.closeSubscribers()
			}
			return
		}
		msg, err := protocol.DecodeBinary(wire)
		if err != nil {
			continue
		}
		c.handle(msg)
	}
}

// handle processes one server message: logged state events pass the
// in-order admission first (duplicates dropped, holes answered with a
// backfill ask), then apply; everything else applies directly. The
// OnEvent tap observes every received message either way.
func (c *Client) handle(msg protocol.Message) {
	if c.admit(msg) {
		c.apply(msg)
	}
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(msg)
	}
}

// admit enforces per-class sequence order for logged state events. An
// event at exactly lastSeq+1 for its (log, class) cursor advances it
// and applies; a duplicate (CSeq ≤ lastSeq) is discarded — backfills
// and live delivery may overlap, and every logged event is idempotent
// to re-deliver but cheaper to drop. A hole (CSeq > lastSeq+1) proves
// the server dropped — or compacted away — something in this class:
// when the event is state-bearing it is admitted ANYWAY and the cursor
// jumps to it, because a state-bearing event fully restates its class's
// state and the missing prefix has nothing left to say; otherwise the
// event is not applied and a paced TBackfill ask goes out. Unlogged
// messages (CSeq 0) always admit.
//
// Admission runs in the read loop against the wire stream, so a slow
// local subscriber dropping events off its own buffered channel can
// never be mistaken for a delivery gap.
func (c *Client) admit(msg protocol.Message) bool {
	if msg.CSeq == 0 {
		return true
	}
	log := msg.Group
	c.mu.Lock()
	if msg.Type == protocol.TInviteEvent {
		log = grouplog.MemberKey(c.memberID)
	}
	key := cursorKey{log: log, class: msg.Class}
	last := c.lastSeq[key]
	switch {
	case msg.CSeq <= last:
		c.mu.Unlock()
		return false
	case msg.CSeq == last+1 || msg.State:
		c.lastSeq[key] = msg.CSeq
		c.mu.Unlock()
		return true
	default:
		c.mu.Unlock()
		c.askBackfill(log)
		return false
	}
}

func (c *Client) apply(msg protocol.Message) {
	switch msg.Type {
	case protocol.TAck, protocol.TErr, protocol.TClockSync:
		c.mu.Lock()
		ch, ok := c.pending[msg.Seq]
		c.mu.Unlock()
		if ok {
			ch <- msg
		}
	case protocol.TStatusProbe:
		report := protocol.MustNew(protocol.TStatusReport, nil)
		_ = c.send(report)
	case protocol.TNodeMoved:
		// A partition handoff: the routing tier names the groups that
		// moved. Converge each exactly like a reconnect — one backfill
		// from the last applied sequence numbers; the new owner's restored
		// log replays with the same CSeqs, so nothing applies twice. A
		// named Origin is a dead node's lights shard: its members' lights
		// flip red (their home will push no more updates; the last pushed
		// value would otherwise read healthy forever).
		var body protocol.NodeMovedBody
		if msg.Into(&body) == nil {
			if body.Origin != "" {
				var changed bool
				c.mu.Lock()
				shard := c.lightsByOrigin[body.Origin]
				for id, light := range shard {
					if light != "red" {
						shard[id] = "red"
						c.lights[id] = "red"
						changed = true
					}
				}
				lights := make(map[string]string, len(c.lights))
				for k, v := range c.lights {
					lights[k] = v
				}
				c.mu.Unlock()
				if changed {
					c.publish(Event{Kind: LightEvents, Type: msg.Type, Lights: lights})
				}
			}
			for _, g := range body.Groups {
				c.askBackfill(g)
			}
		}
	case protocol.TLights:
		var body protocol.LightsBody
		if msg.Into(&body) == nil {
			c.mu.Lock()
			// Replace per origin shard, then rebuild the merged view: in
			// a cluster each node pushes the members it homes, so a member
			// absent from their own node's next push is pruned while other
			// nodes' entries stand; a standalone push (origin "") replaces
			// the whole table, exactly as before the cluster plane.
			c.lightsByOrigin[body.Origin] = body.Lights
			c.backpressByOrigin[body.Origin] = body.Backpressure
			merged := make(map[string]string)
			for _, shard := range c.lightsByOrigin {
				for id, light := range shard {
					merged[id] = light
				}
			}
			changed := !maps.Equal(c.lights, merged)
			c.lights = merged
			// Publish a private copy: c.lights keeps being mutated under
			// the lock (later pushes, dead-shard reddening) while
			// subscribers hold theirs.
			published := make(map[string]string, len(merged))
			for k, v := range merged {
				published[k] = v
			}
			mergedBP := make(map[string]protocol.BackpressureBody)
			for _, shard := range c.backpressByOrigin {
				for id, bp := range shard {
					mergedBP[id] = bp
				}
			}
			c.backpress = mergedBP
			behind := c.behindLogsLocked(body.Heads)
			c.mu.Unlock()
			// The heads digest is the quiet-tail repair trigger: any log
			// whose head is past our cursor dropped something for us that
			// no later event will expose. Ask for each (paced).
			for _, key := range behind {
				c.askBackfill(key)
			}
			// Only transitions reach subscribers; the steady-state
			// rebroadcast every probe tick would drown them. Publish the
			// MERGED view, not the pushing shard: subscribers read
			// Event.Lights as the whole member table, whichever node's
			// push moved it.
			if changed {
				c.publish(Event{Kind: LightEvents, Type: msg.Type, Lights: published})
			}
		}
	case protocol.TSnapshot:
		var body protocol.SnapshotBody
		if msg.Into(&body) == nil {
			c.applySnapshot(msg.Group, body)
		}
	case protocol.TChatEvent, protocol.TAnnotateEvent:
		var body protocol.SequencedBody
		if msg.Into(&body) == nil {
			if body.Kind == "private" {
				c.mu.Lock()
				c.privates = append(c.privates, body)
				c.mu.Unlock()
			} else {
				// A coalesced event carries a burst: the first operation
				// on the top-level fields, the rest in More, in board
				// order — apply them exactly as if they arrived singly.
				// The first op applies straight off the body so the
				// common single-op event allocates nothing here.
				board := c.boardLocked(msg.Group)
				op := &body
				for i := 0; ; i++ {
					kind := whiteboard.Text
					switch op.Kind {
					case "draw":
						kind = whiteboard.Draw
					case "clear":
						kind = whiteboard.Clear
					}
					err := board.Apply(whiteboard.Op{
						Seq: op.Seq, Author: op.Author, Kind: kind, Data: op.Data,
					})
					if errors.Is(err, whiteboard.ErrGap) {
						// Board ops ride the log in board order, so an
						// in-sequence event can only gap when the board's
						// prefix predates what the log ring still holds (a
						// lost join snapshot): ask for a fresh one.
						c.askBoardReplay(msg.Group, board.Seq())
						break
					}
					if i >= len(body.More) {
						break
					}
					op = &body.More[i]
				}
			}
		}
	case protocol.TFloorEvent:
		var body protocol.FloorEventBody
		if msg.Into(&body) == nil {
			c.mu.Lock()
			// Only events that report the group floor update the cached
			// holder. A Direct Contact grant runs concurrently with the
			// prevailing mode and carries no holder, and denied and
			// invite_* outcomes change nothing — taking their empty
			// Holder would clobber the real one.
			switch body.Event {
			case "granted", "released", "passed", "queued", "approved", "queue_position", "queue", "mode_switch":
				if !(body.Event == "granted" && body.Mode == floor.DirectContact.String()) {
					c.holders[msg.Group] = body.Holder
				}
			}
			// Track this member's own queue slot. Queue slots are private:
			// every state-bearing floor event carries the recipient's own
			// slot, 0 meaning "you are not queued", and so does the
			// unlogged queue_position nudge that follows a backfill.
			me := c.memberID
			moved := false // another member's event moved this member's slot
			if msg.State || (body.Event == "queue_position" && body.Member == me) {
				pos := body.QueuePosition
				moved = pos > 0 && pos != c.queuePos[msg.Group] && body.Member != me
				if pos > 0 {
					c.queuePos[msg.Group] = pos
				} else {
					delete(c.queuePos, msg.Group)
				}
			}
			c.mu.Unlock()
			// A "queue" event is a transport detail; subscribers get the
			// member-facing rendering — their own movement — exactly as a
			// directed push would have delivered it.
			if body.Event != "queue" {
				c.publish(Event{Kind: FloorEvents, Type: msg.Type, Group: msg.Group, Floor: body})
			}
			if moved {
				c.publish(Event{Kind: FloorEvents, Type: msg.Type, Group: msg.Group, Floor: protocol.FloorEventBody{
					Mode:          body.Mode,
					Holder:        body.Holder,
					Member:        me,
					Event:         "queue_position",
					QueuePosition: body.QueuePosition,
				}})
			}
		}
	case protocol.TInviteEvent:
		var body protocol.InviteEventBody
		if msg.Into(&body) == nil {
			// Backfill can re-deliver invitations at-least-once across
			// reconnects; an ID already seen is not a new invitation.
			c.mu.Lock()
			fresh := c.addInviteLocked(body)
			c.mu.Unlock()
			if fresh {
				c.publish(Event{Kind: InviteEvents, Type: msg.Type, Group: body.Group, Invite: body})
			}
		}
	case protocol.TSuspend, protocol.TResume:
		var body protocol.SuspendBody
		if msg.Into(&body) == nil {
			// Only genuine transitions count: snapshots and state-bearing
			// notices re-state current suspension status, so a TSuspend
			// for a member already believed suspended — or a TResume for
			// one never suspended — is a redundant re-delivery, not a
			// change. A state-bearing notice (msg.State) carries the whole
			// suspended set, so reconcile everyone, both directions — a
			// recipient that missed earlier transitions converges from
			// whichever notice it sees next.
			suspending := msg.Type == protocol.TSuspend
			var events []Event
			c.mu.Lock()
			if c.setSuspendedLocked(msg.Group, body, suspending) {
				events = append(events, Event{Kind: SuspendEvents, Type: msg.Type, Group: msg.Group, Suspend: body})
			}
			if msg.State {
				events = append(events, c.reconcileSuspendedLocked(msg.Group, body.Suspended, body.Level)...)
			}
			c.mu.Unlock()
			for _, ev := range events {
				c.publish(ev)
			}
		}
	case protocol.TPresent:
		var body protocol.PresentBody
		if msg.Into(&body) == nil {
			c.mu.Lock()
			c.present = &body
			c.mu.Unlock()
		}
	case protocol.TMediaUnit:
		var body protocol.MediaUnitBody
		if msg.Into(&body) == nil {
			c.mu.Lock()
			if c.mediaStats == nil {
				c.mediaStats = make(map[string]map[string]MediaStat)
			}
			perObj := c.mediaStats[msg.Group]
			if perObj == nil {
				perObj = make(map[string]MediaStat)
				c.mediaStats[msg.Group] = perObj
			}
			stat := perObj[body.Object]
			stat.Units++
			stat.Bytes += body.Bytes
			stat.LastSeq = body.Seq
			perObj[body.Object] = stat
			c.mu.Unlock()
		}
	}
}

// addInviteLocked records an invitation unless its ID is already known,
// reporting whether it was new. Requires c.mu.
func (c *Client) addInviteLocked(body protocol.InviteEventBody) bool {
	for _, inv := range c.invites {
		if inv.InviteID == body.InviteID {
			return false
		}
	}
	c.invites = append(c.invites, body)
	return true
}

// setSuspendedLocked updates the believed suspension state of one
// member, reporting whether it was a genuine transition. Requires c.mu.
func (c *Client) setSuspendedLocked(groupID string, body protocol.SuspendBody, suspending bool) bool {
	if c.suspendedNow == nil {
		c.suspendedNow = make(map[string]map[string]bool)
	}
	inGroup := c.suspendedNow[groupID]
	if suspending == inGroup[body.Member] {
		return false
	}
	if inGroup == nil {
		inGroup = make(map[string]bool)
		c.suspendedNow[groupID] = inGroup
	}
	inGroup[body.Member] = suspending
	c.suspends = append(c.suspends, body)
	return true
}

// reconcileSuspendedLocked converges the believed suspension set of one
// group on an authoritative restatement (from a snapshot or a
// state-bearing suspend notice): members the set lists transition in,
// members believed suspended but absent transition out. It returns the
// events for the genuine transitions. Requires c.mu.
func (c *Client) reconcileSuspendedLocked(groupID string, suspended []string, level string) []Event {
	var events []Event
	inSet := make(map[string]bool, len(suspended))
	for _, m := range suspended {
		inSet[m] = true
	}
	for m := range c.suspendedNow[groupID] {
		if c.suspendedNow[groupID][m] && !inSet[m] {
			note := protocol.SuspendBody{Member: m, Level: level}
			c.setSuspendedLocked(groupID, note, false)
			events = append(events, Event{Kind: SuspendEvents, Type: protocol.TResume, Group: groupID, Suspend: note})
		}
	}
	for _, m := range suspended {
		note := protocol.SuspendBody{Member: m, Level: level}
		if c.setSuspendedLocked(groupID, note, true) {
			events = append(events, Event{Kind: SuspendEvents, Type: protocol.TSuspend, Group: groupID, Suspend: note})
		}
	}
	return events
}

// behindLogsLocked compares the server's per-class heads digest against
// the client's applied cursors and returns the log keys this client is
// behind on: its joined groups and its own member log — other members'
// logs in the digest are not ours to fetch, and classes outside the
// mask are not ours to chase. Requires c.mu.
func (c *Client) behindLogsLocked(heads map[string]map[string]int64) []string {
	if len(heads) == 0 {
		return nil
	}
	behindOn := func(log string) bool {
		for class, head := range heads[log] {
			if c.wantsClassLocked(class) && head > c.lastSeq[cursorKey{log: log, class: class}] {
				return true
			}
		}
		return false
	}
	var behind []string
	for g := range c.joined {
		if behindOn(g) {
			behind = append(behind, g)
		}
	}
	if mk := grouplog.MemberKey(c.memberID); behindOn(mk) {
		behind = append(behind, mk)
	}
	return behind
}

// applySnapshot reconciles one log's authoritative state: the floor
// caches, the believed suspension set (publishing only genuine
// transitions), the board suffix and pending invitations, then advances
// the per-class log cursors to the snapshot's ClassSeqs so live events
// continue from them.
func (c *Client) applySnapshot(groupID string, body protocol.SnapshotBody) {
	var events []Event
	c.mu.Lock()
	log := groupID
	if log == "" {
		log = grouplog.MemberKey(c.memberID)
	}
	// A snapshot older than an applied cursor must not rewrite that
	// class's state caches: the server reads the log heads before the
	// floor state, so a transition logged (and applied here) after the
	// head read but before the snapshot was queued would be clobbered by
	// the snapshot's pre-transition view — with cursor == head, nothing
	// would ever repair it. Staleness is judged per class; board ops and
	// invitations still apply below either way, as both are idempotent
	// and never regress.
	staleFor := func(class string) bool {
		return body.ClassSeqs[class] < c.lastSeq[cursorKey{log: log, class: class}]
	}
	floorStale := staleFor(protocol.ClassFloor)
	suspendStale := staleFor(protocol.ClassSuspend)
	for class, head := range body.ClassSeqs {
		key := cursorKey{log: log, class: class}
		if head > c.lastSeq[key] {
			c.lastSeq[key] = head
		}
	}
	for _, inv := range body.Invites {
		if c.addInviteLocked(inv) {
			events = append(events, Event{Kind: InviteEvents, Type: protocol.TInviteEvent, Group: inv.Group, Invite: inv})
		}
	}
	if groupID != "" && !floorStale {
		c.holders[groupID] = body.Holder
		// QueuePos is personalized by the server: this recipient's own
		// slot, or 0 when not queued (other members' slots never arrive).
		if body.QueuePos > 0 && body.Holder != c.memberID {
			c.queuePos[groupID] = body.QueuePos
		} else {
			delete(c.queuePos, groupID)
		}
	}
	if groupID != "" && !suspendStale {
		events = append(events, c.reconcileSuspendedLocked(groupID, body.Suspended, body.Level)...)
	}
	stale := floorStale
	c.mu.Unlock()

	if groupID != "" {
		board := c.boardLocked(groupID)
		for _, op := range body.Board {
			if kind, ok := whiteboard.ParseOpKind(op.Kind); ok {
				// Converge, not Apply: the snapshot is the server's own
				// board, so a leading sequence jump is authoritative
				// history the retention window (or a cluster takeover)
				// no longer holds — never a loss to re-request.
				_ = board.Converge(whiteboard.Op{Seq: op.Seq, Author: op.Author, Kind: kind, Data: op.Data})
			}
		}
		if !stale {
			// One floor event tells subscribers the snapshot's last word
			// on the group floor (holder/mode may have changed while
			// behind).
			events = append(events, Event{Kind: FloorEvents, Type: protocol.TSnapshot, Group: groupID, Floor: protocol.FloorEventBody{
				Mode:   body.Mode,
				Holder: body.Holder,
				Event:  "snapshot",
			}})
		}
	}
	for _, ev := range events {
		c.publish(ev)
	}
}

// repairAsk paces one log's backfill/replay re-asks.
type repairAsk struct {
	after int64         // cursor position of the last ask
	at    time.Time     // when it fired
	delay time.Duration // current backoff step
	wait  time.Duration // jittered wait before the same ask may repeat
}

const (
	// repairRetryBase is the first re-ask delay after an unanswered
	// repair request; repairRetryCap bounds the exponential backoff. The
	// jitter decorrelates replicas that wedged on the same wrapped ring,
	// so a loaded server sees a spread of re-asks instead of a stampede.
	repairRetryBase = 250 * time.Millisecond
	repairRetryCap  = 5 * time.Second
)

// jitter spreads a delay uniformly over [d/2, d].
func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// paceRepair reports whether a repair ask for the key at cursor
// position after may fire now. The first ask — and any ask after the
// cursor moved forward — fires immediately and restarts the backoff;
// repeats at the same position wait out a jittered exponential delay
// capped at repairRetryCap.
func (c *Client) paceRepair(key string, after int64) bool {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.repairs == nil {
		c.repairs = make(map[string]*repairAsk)
	}
	st, ok := c.repairs[key]
	if !ok || after > st.after {
		c.repairs[key] = &repairAsk{after: after, at: now, delay: repairRetryBase, wait: jitter(repairRetryBase)}
		return true
	}
	if now.Sub(st.at) < st.wait {
		return false
	}
	if st.delay < repairRetryCap {
		st.delay *= 2
		if st.delay > repairRetryCap {
			st.delay = repairRetryCap
		}
	}
	st.wait = jitter(st.delay)
	st.at = now
	return true
}

// askBackfill fire-and-forgets a TBackfill for one event log (a group,
// or the member log) from the client's current per-class cursors. It
// runs on the read loop, so it bypasses the request/response machinery;
// pacing via paceRepair keeps a wedged replica from flooding the server
// while still converging when the backfill itself was dropped under
// backpressure.
func (c *Client) askBackfill(key string) {
	c.mu.Lock()
	afters, boardSeq, group := c.aftersLocked(key)
	c.mu.Unlock()
	var pace int64
	for _, a := range afters {
		pace += a
	}
	if !c.paceRepair("log:"+key, pace) {
		return
	}
	msg := protocol.MustNew(protocol.TBackfill, protocol.BackfillBody{
		Group: group, Afters: afters, BoardSeq: boardSeq,
	})
	_ = c.send(msg)
}

// aftersLocked assembles the per-class cursor positions for one log's
// backfill ask, with the board replica's position and the wire Group
// ("" for the member log). Requires c.mu.
func (c *Client) aftersLocked(key string) (afters map[string]int64, boardSeq int64, group string) {
	afters = make(map[string]int64)
	group = key
	if key == grouplog.MemberKey(c.memberID) {
		group = ""
		afters[protocol.ClassInvite] = c.lastSeq[cursorKey{log: key, class: protocol.ClassInvite}]
		return afters, 0, group
	}
	for _, class := range c.groupClassesLocked() {
		afters[class] = c.lastSeq[cursorKey{log: key, class: class}]
	}
	if b, ok := c.boards[key]; ok {
		boardSeq = b.Seq()
	}
	return afters, boardSeq, group
}

// askBoardReplay fire-and-forgets a TReplay when the board replica
// itself is behind what the event log can still replay (a lost join
// snapshot); the server answers with a fresh snapshot.
func (c *Client) askBoardReplay(groupID string, after int64) {
	if !c.paceRepair("board:"+groupID, after) {
		return
	}
	msg := protocol.MustNew(protocol.TReplay, protocol.ReplayBody{After: after})
	msg.Group = groupID
	_ = c.send(msg)
}

func (c *Client) boardLocked(groupID string) *whiteboard.Board {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.boards[groupID]
	if !ok {
		b = whiteboard.NewBoard()
		c.boards[groupID] = b
	}
	return b
}

// Join joins (auto-creating) a group.
func (c *Client) Join(groupID string) error {
	msg := protocol.MustNew(protocol.TJoin, protocol.GroupBody{Group: groupID})
	if _, err := c.request(msg); err != nil {
		return err
	}
	c.mu.Lock()
	c.joined[groupID] = true
	c.mu.Unlock()
	return nil
}

// Leave leaves a group.
func (c *Client) Leave(groupID string) error {
	msg := protocol.MustNew(protocol.TLeave, protocol.GroupBody{Group: groupID})
	if _, err := c.request(msg); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.joined, groupID)
	c.mu.Unlock()
	return nil
}

// SwitchMode sets the group's floor mode explicitly, resetting the
// floor (holder, queue, approvals). With pin (session chair only) the
// policy is chair-pinned: no other member may move the group to a
// different mode — by SwitchMode or by requesting one — until the chair
// switches again without pin. On a pinned group SwitchMode from anyone
// but the chair is denied.
func (c *Client) SwitchMode(groupID string, mode floor.Mode, pin bool) error {
	msg := protocol.MustNew(protocol.TModeSwitch, protocol.ModeSwitchBody{Mode: mode.String(), Pin: pin})
	msg.Group = groupID
	_, err := c.request(msg)
	return err
}

// RequestFloor runs FCM-Arbitrate on the server for the given mode.
func (c *Client) RequestFloor(groupID string, mode floor.Mode, target string) (protocol.FloorDecisionBody, error) {
	msg := protocol.MustNew(protocol.TFloorRequest, protocol.FloorRequestBody{
		Mode: mode.String(), Target: target,
	})
	msg.Group = groupID
	reply, err := c.request(msg)
	if err != nil {
		return protocol.FloorDecisionBody{}, err
	}
	var dec protocol.FloorDecisionBody
	if err := reply.Into(&dec); err != nil {
		return protocol.FloorDecisionBody{}, err
	}
	return dec, nil
}

// ApproveFloor (session chair only) clears a queued floor request in a
// moderated mode; the member is granted immediately if the floor is
// free, or promoted at the next release otherwise.
func (c *Client) ApproveFloor(groupID, member string) (protocol.FloorDecisionBody, error) {
	msg := protocol.MustNew(protocol.TFloorApprove, protocol.FloorApproveBody{Member: member})
	msg.Group = groupID
	reply, err := c.request(msg)
	if err != nil {
		return protocol.FloorDecisionBody{}, err
	}
	var dec protocol.FloorDecisionBody
	if err := reply.Into(&dec); err != nil {
		return protocol.FloorDecisionBody{}, err
	}
	return dec, nil
}

// ReleaseFloor gives the Equal Control floor back.
func (c *Client) ReleaseFloor(groupID string) error {
	msg := protocol.MustNew(protocol.TFloorRelease, nil)
	msg.Group = groupID
	_, err := c.request(msg)
	return err
}

// PassToken hands the Equal Control token to another member.
func (c *Client) PassToken(groupID, to string) error {
	msg := protocol.MustNew(protocol.TTokenPass, protocol.TokenPassBody{To: to})
	msg.Group = groupID
	_, err := c.request(msg)
	return err
}

// Chat posts a message-window line to the group.
func (c *Client) Chat(groupID, text string) error {
	msg := protocol.MustNew(protocol.TChat, protocol.ChatBody{Text: text})
	msg.Group = groupID
	_, err := c.request(msg)
	return err
}

// ChatPrivate posts into the direct-contact private window with peer.
func (c *Client) ChatPrivate(groupID, peer, text string) error {
	msg := protocol.MustNew(protocol.TChat, protocol.ChatBody{Text: text})
	msg.Group = groupID
	msg.To = peer
	_, err := c.request(msg)
	return err
}

// Annotate posts a whiteboard operation ("draw", "text", "clear").
func (c *Client) Annotate(groupID, kind, data string) error {
	msg := protocol.MustNew(protocol.TAnnotate, protocol.AnnotateBody{Kind: kind, Data: data})
	msg.Group = groupID
	_, err := c.request(msg)
	return err
}

// Invite asks the server to invite a member into a group; it returns the
// invitation ID.
func (c *Client) Invite(groupID, to string) (int64, error) {
	msg := protocol.MustNew(protocol.TInvite, protocol.InviteBody{Group: groupID, To: to})
	reply, err := c.request(msg)
	if err != nil {
		return 0, err
	}
	var body protocol.InviteEventBody
	if err := reply.Into(&body); err != nil {
		return 0, err
	}
	return body.InviteID, nil
}

// ReplyInvite answers an invitation. Accepting joins the invited group.
// The reply is scoped to the invitation's group (when the invitation is
// known) so a cluster's routing tier can steer it to the node holding
// the invite record — the group's owner.
func (c *Client) ReplyInvite(inviteID int64, accept bool) error {
	msg := protocol.MustNew(protocol.TInviteReply, protocol.InviteReplyBody{InviteID: inviteID, Accept: accept})
	c.mu.Lock()
	for _, inv := range c.invites {
		if inv.InviteID == inviteID {
			msg.Group = inv.Group
			break
		}
	}
	c.mu.Unlock()
	if _, err := c.request(msg); err != nil {
		return err
	}
	if accept {
		c.mu.Lock()
		for _, inv := range c.invites {
			if inv.InviteID == inviteID {
				c.joined[inv.Group] = true
				break
			}
		}
		c.mu.Unlock()
	}
	return nil
}

// Replay requests board operations after the given sequence number.
func (c *Client) Replay(groupID string, after int64) error {
	msg := protocol.MustNew(protocol.TReplay, protocol.ReplayBody{After: after})
	msg.Group = groupID
	_, err := c.request(msg)
	return err
}

// MediaStat accumulates received media units for one object.
type MediaStat struct {
	// Units is the number of received units; Bytes their payload total.
	Units int
	Bytes int
	// LastSeq is the sequence number of the latest unit.
	LastSeq int
}

// SendMediaUnit streams one media unit into the group. With ack=false it
// is fire-and-forget (a muted sender's units vanish silently, like a cut
// microphone); with ack=true the server confirms or denies.
func (c *Client) SendMediaUnit(groupID string, unit media.Unit, ack bool) error {
	body := protocol.MediaUnitBody{
		Object:         unit.ObjectID,
		Kind:           unit.Kind.String(),
		Seq:            unit.Seq,
		MediaTimeNanos: int64(unit.MediaTime),
		Bytes:          unit.Bytes,
	}
	msg := protocol.MustNew(protocol.TMediaUnit, body)
	msg.Group = groupID
	if !ack {
		return c.send(msg)
	}
	_, err := c.request(msg)
	return err
}

// StreamSource sends every remaining unit of a source into the group,
// fire-and-forget, pacing by the object's unit interval on the client's
// clock when pace is true (false blasts as fast as possible).
func (c *Client) StreamSource(groupID string, src media.Source, pace bool) (int, error) {
	interval := src.Object().UnitInterval()
	sent := 0
	for {
		unit, err := src.Next()
		if errors.Is(err, media.ErrExhausted) {
			return sent, nil
		}
		if err != nil {
			return sent, err
		}
		if err := c.SendMediaUnit(groupID, unit, false); err != nil {
			return sent, err
		}
		sent++
		if pace && src.Remaining() > 0 {
			c.cfg.Clock.Sleep(interval)
		}
	}
}

// MediaStats returns the received-unit statistics for a group, keyed by
// object ID.
func (c *Client) MediaStats(groupID string) map[string]MediaStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]MediaStat)
	for obj, stat := range c.mediaStats[groupID] {
		out[obj] = stat
	}
	return out
}

// SyncClock performs one Cristian exchange against the server's global
// clock and feeds the estimator. It returns the updated offset estimate.
func (c *Client) SyncClock() (time.Duration, error) {
	sent := c.cfg.Clock.Now()
	msg := protocol.MustNew(protocol.TClockSync, protocol.ClockSyncBody{
		ClientSendNanos: protocol.Nanos(sent),
	})
	reply, err := c.request(msg)
	if err != nil {
		return 0, err
	}
	recv := c.cfg.Clock.Now()
	var body protocol.ClockSyncBody
	if err := reply.Into(&body); err != nil {
		return 0, err
	}
	c.est.AddSample(clock.Sample{
		SentLocal:  sent,
		MasterTime: protocol.FromNanos(body.MasterNanos),
		RecvLocal:  recv,
	})
	return c.est.Offset()
}

// GlobalNow returns the estimated global time (requires a prior
// SyncClock).
func (c *Client) GlobalNow() (time.Time, error) { return c.est.GlobalNow() }

// Board returns the client's replica of a group board.
func (c *Client) Board(groupID string) *whiteboard.Board { return c.boardLocked(groupID) }

// Lights returns the last received connection-light table.
func (c *Client) Lights() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.lights))
	for k, v := range c.lights {
		out[k] = v
	}
	return out
}

// Backpressure returns the last received per-member backpressure table
// (outbound queue depth and drop counts at the server), keyed by member
// ID. It rides the lights broadcast, so it is as fresh as Lights.
func (c *Client) Backpressure() map[string]protocol.BackpressureBody {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]protocol.BackpressureBody, len(c.backpress))
	for k, v := range c.backpress {
		out[k] = v
	}
	return out
}

// Holder returns the last known Equal Control holder for a group.
func (c *Client) Holder(groupID string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.holders[groupID]
}

// PendingInvites returns invitations received so far.
func (c *Client) PendingInvites() []protocol.InviteEventBody {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]protocol.InviteEventBody, len(c.invites))
	copy(out, c.invites)
	return out
}

// PrivateMessages returns direct-contact lines received so far.
func (c *Client) PrivateMessages() []protocol.SequencedBody {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]protocol.SequencedBody, len(c.privates))
	copy(out, c.privates)
	return out
}

// SuspendNotices returns Media-Suspend/Resume notices received so far.
func (c *Client) SuspendNotices() []protocol.SuspendBody {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]protocol.SuspendBody, len(c.suspends))
	copy(out, c.suspends)
	return out
}

// Presentation returns the last presentation start received, or nil.
func (c *Client) Presentation() *protocol.PresentBody {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.present == nil {
		return nil
	}
	cp := *c.present
	return &cp
}

// StartPresentation (chair only) broadcasts a synchronized presentation
// start to the group.
func (c *Client) StartPresentation(groupID string, body protocol.PresentBody) error {
	msg := protocol.MustNew(protocol.TPresent, body)
	msg.Group = groupID
	_, err := c.request(msg)
	return err
}

// Close says goodbye and tears the connection down for good:
// subscription channels close and the session cannot be resumed.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conn := c.conn
	done := c.readerDone
	c.mu.Unlock()
	bye := protocol.MustNew(protocol.TBye, nil)
	_ = c.send(bye)
	_ = conn.Close()
	<-done
	// The read loop closes the subscribers when it observes the closed
	// flag, but it may already have exited on a connection error before
	// Close was called; closing here too covers that path (idempotent).
	c.closeSubscribers()
}

// Drop abandons the connection without a goodbye — the crash of Figure
// 3(c). Over netsim the outbound packets silently vanish (the server
// notices only through heartbeat silence); over other transports the
// connection is severed abruptly. Unlike Close, Drop does not end the
// session: subscriptions stay attached and Reconnect can resume it.
func (c *Client) Drop() bool {
	c.mu.Lock()
	c.connDown = true
	conn := c.conn
	c.mu.Unlock()
	type dropper interface{ Drop() }
	if d, ok := conn.(dropper); ok {
		d.Drop()
		return true
	}
	_ = conn.Close()
	return true
}

// Reconnect resumes a session whose connection was lost (Drop, a
// network failure, or a server-side disconnect): it dials the server
// again, presents the session token from the original welcome, and
// converges every joined group — floor, suspensions, board, queue — and
// the invitation log through TBackfill from the last applied sequence
// numbers. The member identity is unchanged, groups stay joined, and
// Subscribe channels keep delivering across the gap. A Closed client
// cannot reconnect.
func (c *Client) Reconnect() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("%w: session closed", ErrClosed)
	}
	if !c.connDown {
		c.mu.Unlock()
		return errors.New("client: still connected")
	}
	if c.reconnecting {
		c.mu.Unlock()
		return errors.New("client: reconnect already in flight")
	}
	c.reconnecting = true
	token := c.token
	oldConn := c.conn
	done := c.readerDone
	c.seq++
	helloSeq := c.seq
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.reconnecting = false
		c.mu.Unlock()
	}()
	if token == "" {
		return errors.New("client: server issued no session token")
	}
	// Make sure the old read loop is fully parked before swapping the
	// connection underneath it.
	_ = oldConn.Close()
	<-done

	// With the read loop parked the cursors hold still, so the backfill
	// asks — every joined group and the member log, from the last
	// applied sequence numbers — are encoded now and leave in the
	// hello's write.
	c.mu.Lock()
	var classes []string
	for class := range c.classes {
		classes = append(classes, class)
	}
	if c.classes != nil && len(classes) == 0 {
		classes = []string{protocol.ClassNone}
	}
	keys := make([]string, 0, len(c.joined)+1)
	for g := range c.joined {
		keys = append(keys, g)
	}
	keys = append(keys, grouplog.MemberKey(c.memberID))
	asks := make([][]byte, 0, len(keys))
	for _, key := range keys {
		afters, boardSeq, group := c.aftersLocked(key)
		wire, err := protocol.EncodeBinary(protocol.MustNew(protocol.TBackfill, protocol.BackfillBody{
			Group: group, Afters: afters, BoardSeq: boardSeq,
		}))
		if err != nil {
			c.mu.Unlock()
			return fmt.Errorf("client: reconnect: %w", err)
		}
		asks = append(asks, wire)
	}
	c.mu.Unlock()

	conn, err := c.cfg.Network.Dial(c.cfg.Addr)
	if err != nil {
		return fmt.Errorf("client: reconnect: %w", err)
	}
	welcome, err := handshake(conn, c.cfg, protocol.HelloBody{
		Name: c.cfg.Name, Role: c.cfg.Role, Priority: c.cfg.Priority, Token: token,
		Classes:     classes,
		WireVersion: protocol.WireVersion,
	}, helloSeq, asks...)
	if err != nil {
		_ = conn.Close()
		return fmt.Errorf("client: reconnect: %w", err)
	}

	c.mu.Lock()
	if c.closed {
		// Close ran while we were handshaking: the session is over and
		// the new connection must not outlive it.
		c.mu.Unlock()
		_ = conn.Close()
		return fmt.Errorf("%w: session closed", ErrClosed)
	}
	c.conn = conn
	c.connDown = false
	c.memberID = welcome.MemberID
	c.token = welcome.Token
	c.readerDone = make(chan struct{})
	c.repairs = nil // fresh connection, fresh pacing
	c.mu.Unlock()

	go c.readLoop()
	return nil
}
