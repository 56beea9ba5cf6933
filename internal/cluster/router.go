package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmps/internal/group"
	"dmps/internal/protocol"
	"dmps/internal/trace"
	"dmps/internal/transport"
)

// tokenPrefix tags session-resume tokens with the home node they were
// minted on ("n3:<token>"), so a resume hello routes to the node that
// actually holds the token without the router keeping per-member state.
func tokenPrefix(idx int, token string) string {
	return "n" + strconv.Itoa(idx) + ":" + token
}

// parseTokenPrefix splits a router-tagged token back into home node
// index and the node's own token.
func parseTokenPrefix(token string) (idx int, raw string, ok bool) {
	if !strings.HasPrefix(token, "n") {
		return 0, "", false
	}
	head, rest, found := strings.Cut(token[1:], ":")
	if !found {
		return 0, "", false
	}
	n, err := strconv.Atoi(head)
	if err != nil || n < 0 {
		return 0, "", false
	}
	return n, rest, true
}

// RouterConfig configures a Router.
type RouterConfig struct {
	// Network provides the client-facing listener and the node dialer
	// (TCP or netsim).
	Network transport.Network
	// Addr is the router's listen address — the one address clients see.
	Addr string
	// Nodes lists the cluster's node addresses in ring order. Every node
	// must be configured with the same list (its own position via the
	// node's Self index).
	Nodes []string
	// RecoverInterval, when positive, runs a background prober that
	// re-dials down nodes on this cadence and returns any that answer
	// to service through Recover — the epoch-versioned live migration.
	// Zero leaves recovery to explicit Recover calls (tests, admin
	// tooling).
	RecoverInterval time.Duration
}

// Router is the thin routing tier in front of a node cluster: it
// terminates client connections, admits each session at the member's
// home node (the plain hello travels there, so the home node mints the
// member ID, the session token and the member event log), and proxies
// group-scoped traffic to each group's owning node over per-session
// upstreams opened with TNodeHello — streams on the one trunk connection
// the router keeps per node, so what a node sends its routed members in
// one instant arrives in one read. Replies and events relay back
// verbatim — the router re-encodes nothing on the hot path (the one
// exception is the welcome, whose token it tags with the home node
// index so a later resume routes straight back).
//
// The router is also the failure detector: when a node's trunk dies and
// the node answers no fresh dial, it marks the node down in the shared
// partition map (once, however many sessions rode the trunk), pushes
// each a TNodeMoved naming the groups that were flowing through it, and
// routes their next traffic to the ring successor — where replication
// already delivered the partition's takeover state. The client converges
// through its ordinary backfill path, like a reconnect.
type Router struct {
	cfg      RouterConfig
	pmap     *Map
	listener transport.Listener
	// plane records the routing tier's relay spans for sampled
	// operations — the first hop of every end-to-end trace.
	plane *trace.Plane

	mu       sync.Mutex
	sessions map[*routerSession]bool

	// trunks holds the connection to each node, by node index; trunkStats
	// counts their work (the dmps_trunk_* series).
	trunks     []*transport.Trunk
	trunkStats transport.MuxStats

	// routed counts client messages forwarded up to nodes, relayed the
	// node messages relayed back down — the routing tier's throughput
	// counters, exported by RegisterMetrics.
	routed  atomic.Int64
	relayed atomic.Int64
	// recoverErrs, serveErrs, upstreamSendErrs, clientSendErrs and
	// nodeHelloErrs count failed Recover passes of the prober, an accept
	// loop that died, client messages an upstream refused, the router's
	// own messages a client connection refused, and node hellos an owner
	// answered with anything but a welcome (dmps_router_errors_total{site}).
	recoverErrs      atomic.Int64
	serveErrs        atomic.Int64
	upstreamSendErrs atomic.Int64
	clientSendErrs   atomic.Int64
	nodeHelloErrs    atomic.Int64

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// Sessions returns the number of live proxied client sessions.
func (r *Router) Sessions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Routed reports messages forwarded up to nodes and relayed back down
// since the router started.
func (r *Router) Routed() (up, down int64) { return r.routed.Load(), r.relayed.Load() }

// NewRouter creates a router and starts listening. Call Serve (or
// Start) to accept clients, Close to shut down.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Network == nil {
		return nil, errors.New("cluster: RouterConfig.Network is required")
	}
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: RouterConfig.Nodes is required")
	}
	l, err := cfg.Network.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: router: %w", err)
	}
	r := &Router{
		cfg:      cfg,
		pmap:     NewMap(cfg.Nodes),
		listener: l,
		plane:    trace.NewPlane("router@"+l.Addr(), trace.RouterStages, 0),
		sessions: make(map[*routerSession]bool),
		trunks:   make([]*transport.Trunk, len(cfg.Nodes)),
		closed:   make(chan struct{}),
	}
	for i, addr := range cfg.Nodes {
		r.trunks[i] = transport.NewTrunk(cfg.Network, addr, &r.trunkStats, func() { r.trunkDown(i) })
	}
	if cfg.RecoverInterval > 0 {
		r.wg.Add(1)
		go r.recoverLoop(cfg.RecoverInterval)
	}
	return r, nil
}

// recoverLoop is the router's self-healing prober: every interval it
// re-dials each down node and, for any that answer, runs the full
// Recover migration. Recover itself probes first, so a still-dead node
// costs one failed dial and changes nothing.
func (r *Router) recoverLoop(interval time.Duration) {
	defer r.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-r.closed:
			return
		case <-t.C:
			for i := 0; i < r.pmap.Len(); i++ {
				if r.pmap.Down(i) && r.Recover(i) != nil {
					r.recoverErrs.Add(1)
				}
			}
		}
	}
}

// Addr returns the router's listen address.
func (r *Router) Addr() string { return r.listener.Addr() }

// Map exposes the shared partition map (tests mark nodes down/up
// through it; the router updates it when it detects failures).
func (r *Router) Map() *Map { return r.pmap }

// Serve accepts clients until Close. It returns nil after a clean Close.
// A transient Accept error (transport.ErrTransient) is retried after a
// backoff; any other error ends Serve. Both are counted
// (dmps_router_errors_total{site="serve"}).
func (r *Router) Serve() error {
	var delay time.Duration
	for {
		conn, err := r.listener.Accept()
		if err != nil {
			if r.isClosed() {
				return nil
			}
			r.serveErrs.Add(1)
			if !errors.Is(err, transport.ErrTransient) {
				return fmt.Errorf("cluster: router accept: %w", err)
			}
			delay = transport.AcceptDelay(delay)
			select {
			case <-r.closed:
				return nil
			case <-time.After(delay):
			}
			continue
		}
		delay = 0
		rs := &routerSession{r: r, client: conn, ups: make(map[int]*upstream)}
		r.mu.Lock()
		r.sessions[rs] = true
		r.mu.Unlock()
		r.wg.Add(1)
		go rs.run()
	}
}

// Start runs Serve on a goroutine; Serve counts its own failure.
func (r *Router) Start() { go r.Serve() }

// Close shuts the router down: the listener stops, every client and
// upstream connection closes, and the goroutines are waited for.
func (r *Router) Close() {
	r.closeOnce.Do(func() {
		close(r.closed)
		_ = r.listener.Close()
		r.mu.Lock()
		for rs := range r.sessions {
			rs.teardown()
		}
		r.mu.Unlock()
		for _, t := range r.trunks {
			t.Close()
		}
	})
	r.wg.Wait()
	r.plane.Close()
}

// openStream opens a stream on node idx's trunk (dialing it if there is
// none or the last one died) whose open frame carries the messages in
// first in the same write. A node that cannot be dialed is marked down.
func (r *Router) openStream(idx int, first ...[]byte) (transport.Conn, error) {
	conn, err := r.trunks[idx].Open(first...)
	if errors.Is(err, transport.ErrUnknownAddress) {
		r.pmap.MarkDown(idx)
	}
	return conn, err
}

// openUpstream opens a stream to node idx with the hello in its open's
// write and waits for the reply, which comes back decoded and verbatim:
// admission at the home, which needs the reply (the welcome names the
// member). An owner's node hello does not wait (see ensureUpstream).
func (r *Router) openUpstream(idx int, hello protocol.Message) (transport.Conn, protocol.Message, []byte, error) {
	wire, err := protocol.EncodeBinary(hello)
	if err != nil {
		return nil, protocol.Message{}, nil, err
	}
	conn, err := r.openStream(idx, wire)
	if err != nil {
		return nil, protocol.Message{}, nil, err
	}
	var reply protocol.Message
	replyWire, err := conn.Recv()
	if err == nil {
		reply, err = protocol.DecodeBinary(replyWire)
	}
	if err != nil {
		_ = conn.Close()
		return nil, protocol.Message{}, nil, err
	}
	return conn, reply, replyWire, nil
}

// trunkDown runs once when a node's trunk dies, before any session on it
// hears. The connection alone may have broken, so the node is probed
// with one fresh dial and marked down only if that fails.
func (r *Router) trunkDown(idx int) {
	if !r.isClosed() && r.probe(idx) != nil {
		r.pmap.MarkDown(idx)
	}
}

// probe dials node idx once and hangs up.
func (r *Router) probe(idx int) error {
	conn, err := r.cfg.Network.Dial(r.pmap.Addr(idx))
	if err == nil {
		_ = conn.Close()
	}
	return err
}

func (r *Router) isClosed() bool {
	select {
	case <-r.closed:
		return true
	default:
		return false
	}
}

// TracePlane exposes the router's tracing plane (for tests and the
// metrics registration path).
func (r *Router) TracePlane() *trace.Plane { return r.plane }

// routerSession is one proxied client: the client connection, the
// member identity captured at admission, and the per-node upstream
// connections the session's traffic fans across.
type routerSession struct {
	r      *Router
	client transport.Conn
	cmu    sync.Mutex // serializes writes to the client connection

	mu       sync.Mutex
	identity protocol.NodeHelloBody
	homeIdx  int
	ups      map[int]*upstream
	done     bool
}

// upstream is one node-side connection of a session, with the groups
// currently routed through it (the TNodeMoved payload if it dies).
type upstream struct {
	idx    int
	conn   transport.Conn
	groups map[string]bool
	// ready, for an owner upstream, is closed once the relay has read
	// the reply to its node hello; welcomed (set before) tells whether
	// it was a welcome. nil for the home upstream, whose hello was
	// answered before it was registered.
	ready    chan struct{}
	welcomed bool
}

// sendClient writes one message to the client connection.
func (rs *routerSession) sendClient(wire []byte) error {
	rs.cmu.Lock()
	defer rs.cmu.Unlock()
	return rs.client.Send(wire)
}

// tellClient writes one message the router itself has for the client —
// a refusal, a node_moved — counting a connection that refused it
// (dmps_router_errors_total{site="client_send"}).
func (rs *routerSession) tellClient(wire []byte) {
	if rs.sendClient(wire) != nil {
		rs.r.clientSendErrs.Add(1)
	}
}

// run drives one proxied session: admission at the home node, then the
// relay loop.
func (rs *routerSession) run() {
	defer rs.r.wg.Done()
	defer rs.retire()
	if err := rs.admit(); err != nil {
		return
	}
	for {
		wire, err := rs.client.Recv()
		if err != nil {
			return
		}
		msg, err := protocol.DecodeBinary(wire)
		if err != nil {
			continue
		}
		// The relay span costs nothing extra on the hot path: the frame
		// was already decoded above, and the clock is read only for
		// sampled operations.
		var t0 time.Time
		sampled := msg.Sampled()
		if sampled {
			t0 = time.Now()
		}
		rs.route(msg, wire)
		if sampled {
			rs.r.plane.Span(msg.TraceID, msg.TraceParent, trace.StageRelay, t0)
		}
		if msg.Type == protocol.TBye {
			return
		}
	}
}

// admit reads the client's hello, routes it to the member's home node —
// chosen by the same hash that partitions groups, over the sanitized
// name (fresh session) or the token's node tag (resume) — and relays
// the welcome back with the token tagged for the next resume.
func (rs *routerSession) admit() error {
	wire, err := rs.client.Recv()
	if err != nil {
		return err
	}
	if refusal, old := protocol.OldWireRefusal(wire); old {
		rs.tellClient(refusal)
		return transport.ErrClosed
	}
	msg, err := protocol.DecodeBinary(wire)
	if err != nil || msg.Type != protocol.THello {
		return fmt.Errorf("cluster: router: first message %v (%w)", msg.Type, transport.ErrClosed)
	}
	var hello protocol.HelloBody
	if err := msg.Into(&hello); err != nil {
		return err
	}
	homeIdx := -1
	if hello.Token != "" {
		idx, raw, ok := parseTokenPrefix(hello.Token)
		if !ok || idx >= rs.r.pmap.Len() {
			rs.reject(msg.Seq, "session_expired", "unrecognized session token")
			return transport.ErrClosed
		}
		homeIdx = idx
		hello.Token = raw
	} else {
		// Always the PRIMARY home, ignoring the down-set: member state
		// (directory, tokens, member logs) lives only there, and a
		// successor would just bounce the hello with a redirect. Opening
		// the stream re-dials a dead trunk, which doubles as the liveness
		// probe — a recovered home serves new members again without any
		// un-mark step, while group partitions stay failed over (the
		// successor holds their adopted state; routing them back to a
		// blank primary would reset them).
		homeIdx = rs.r.pmap.Primary(HomeKey(group.SanitizeName(hello.Name)))
	}
	fwd := protocol.MustNew(protocol.THello, hello)
	fwd.Seq = msg.Seq
	conn, reply, replyWire, err := rs.r.openUpstream(homeIdx, fwd)
	if err != nil && hello.Token != "" {
		// Resume failover: the token's minting node is gone, but its ring
		// successors hold the member's replicated home state (directory
		// row, token, member log). Route the resume to the first reachable
		// successor — it verifies the home really is dead and adopts the
		// member — and tag the welcome token with the serving node so the
		// NEXT resume goes straight there.
		for _, j := range rs.r.pmap.Successors(homeIdx, rs.r.pmap.Len()-1) {
			if conn, reply, replyWire, err = rs.r.openUpstream(j, fwd); err == nil {
				homeIdx = j
				break
			}
		}
	}
	if err != nil {
		rs.reject(msg.Seq, "node_down", "home node unreachable")
		return err
	}
	if reply.Type != protocol.TWelcome {
		// A typed rejection (session_expired and friends) passes through
		// verbatim: the client's handshake knows how to read it.
		rs.tellClient(replyWire)
		_ = conn.Close()
		return transport.ErrClosed
	}
	var welcome protocol.WelcomeBody
	if err := reply.Into(&welcome); err != nil {
		_ = conn.Close()
		return err
	}
	rs.mu.Lock()
	rs.homeIdx = homeIdx
	rs.identity = protocol.NodeHelloBody{
		MemberID: welcome.MemberID,
		Name:     hello.Name,
		Role:     hello.Role,
		Priority: hello.Priority,
		Classes:  hello.Classes,
		// The home node accepted the hello's stamp, so it is the one
		// version every node speaks.
		WireVersion: hello.WireVersion,
	}
	up := &upstream{idx: homeIdx, conn: conn, groups: make(map[string]bool)}
	rs.ups[homeIdx] = up
	rs.mu.Unlock()
	if welcome.Token != "" {
		welcome.Token = tokenPrefix(homeIdx, welcome.Token)
	}
	tagged := protocol.MustNew(protocol.TWelcome, welcome)
	tagged.Seq = reply.Seq
	taggedWire, err := protocol.EncodeBinary(tagged)
	if err != nil {
		return err
	}
	if err := rs.sendClient(taggedWire); err != nil {
		return err
	}
	rs.r.wg.Add(1)
	go rs.relay(up)
	return nil
}

// reject answers the client handshake with a typed error and gives up.
func (rs *routerSession) reject(seq int64, code, detail string) {
	msg := protocol.MustNew(protocol.TErr, protocol.ErrBody{Code: code, Detail: detail})
	msg.Seq = seq
	if wire, err := protocol.EncodeBinary(msg); err == nil {
		rs.tellClient(wire)
	}
}

// route forwards one client message to the owning node: group-scoped
// traffic to the group's owner, probe answers and subscription changes
// to every upstream (each node tracks its own session liveness and
// filter mask), everything else to the member's home node.
func (rs *routerSession) route(msg protocol.Message, wire []byte) {
	rs.r.routed.Add(1)
	switch msg.Type {
	case protocol.TStatusReport, protocol.TBye:
		rs.sendUpAll(wire)
		return
	case protocol.TSubscribe:
		var body protocol.SubscribeBody
		if len(msg.Body) > 0 && msg.Into(&body) == nil {
			rs.mu.Lock()
			rs.identity.Classes = body.Classes
			rs.mu.Unlock()
		}
		rs.sendUpAll(wire)
		return
	}
	gid := protocol.RequestGroup(msg)
	for attempt := 0; attempt < rs.r.pmap.Len(); attempt++ {
		idx := rs.homeIdxLocked()
		if gid != "" {
			idx, _ = rs.r.pmap.Owner(gid)
		}
		up, opened, err := rs.ensureUpstream(idx, msg, gid, wire)
		if err != nil {
			// An undialable node is marked down by now; a trunk that only
			// just died is re-dialed by the next attempt.
			if rs.closing() || gid == "" {
				return // torn down, or the home node is gone: the session cannot continue
			}
			continue
		}
		if opened {
			return // the backfill left in the stream's opening write
		}
		if up.ready != nil && msg.Type != protocol.TBackfill {
			// Only a backfill may be lost with a node hello the node has
			// not answered yet; anything else waits for the answer, and a
			// refusal or a trunk death sends it on to wherever the map
			// points next. (The home upstream, opened by admission, has
			// no ready: its welcome came before anything was routed.)
			<-up.ready
			if !up.welcomed {
				continue
			}
		}
		if gid != "" {
			rs.mu.Lock()
			up.groups[gid] = true
			rs.mu.Unlock()
		}
		if err := up.conn.Send(wire); err != nil {
			rs.upstreamDown(up)
			continue
		}
		return
	}
}

func (rs *routerSession) homeIdxLocked() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.homeIdx
}

// closing reports whether the session or its router is tearing down.
func (rs *routerSession) closing() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.done || rs.r.isClosed()
}

// sendUpAll sends a client message up every live upstream, counting
// each refusal (dmps_router_errors_total{site="upstream_send"}).
func (rs *routerSession) sendUpAll(wire []byte) {
	rs.mu.Lock()
	ups := make([]*upstream, 0, len(rs.ups))
	for _, up := range rs.ups {
		ups = append(ups, up)
	}
	rs.mu.Unlock()
	for _, up := range ups {
		if up.conn.Send(wire) != nil {
			rs.r.upstreamSendErrs.Add(1)
		}
	}
}

// ensureUpstream returns the session's upstream to node idx, opening it
// on first use: a stream on the node's trunk whose opening write carries
// a TNodeHello binding the member identity, and nothing waits for the
// node's reply here — the relay reads it first (ready closes once it
// has). When the message being routed is a backfill, it leaves in that
// same write (opened reports so): a refusal, or a trunk that dies
// before answering, is the upstream's death, so the client hears
// node_moved for gid and simply asks again. Any other message waits for
// the welcome in route, because it must not be lost: a hello refused,
// or a trunk that dies under it, sends the message on to wherever the
// map points next.
func (rs *routerSession) ensureUpstream(idx int, msg protocol.Message, gid string, wire []byte) (up *upstream, opened bool, err error) {
	rs.mu.Lock()
	if up, ok := rs.ups[idx]; ok {
		rs.mu.Unlock()
		return up, false, nil
	}
	// Only admission opens the home upstream, and a session without one
	// is over. A node_hello from a session already torn down — its loop
	// may still route what its client sent before the end — would
	// displace the member's live session on that node: at the home, the
	// very session a resume has just opened.
	if rs.done || idx == rs.homeIdx {
		rs.mu.Unlock()
		return nil, false, transport.ErrClosed
	}
	hello, err := protocol.EncodeBinary(protocol.MustNew(protocol.TNodeHello, rs.identity))
	rs.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	first := [][]byte{hello}
	if opened = msg.Type == protocol.TBackfill; opened {
		first = append(first, wire)
	}
	conn, err := rs.r.openStream(idx, first...)
	if err != nil {
		return nil, false, err
	}
	up = &upstream{idx: idx, conn: conn, groups: make(map[string]bool), ready: make(chan struct{})}
	if opened && gid != "" {
		up.groups[gid] = true
	}
	rs.mu.Lock()
	if rs.done {
		rs.mu.Unlock()
		_ = conn.Close() // a trunk stream's Close cannot fail (Stream.Close)
		return nil, false, transport.ErrClosed
	}
	// Only the session's own loop routes, so nobody opened one meanwhile.
	rs.ups[idx] = up
	rs.mu.Unlock()
	rs.r.wg.Add(1)
	go rs.relay(up)
	return up, opened, nil
}

// relay pumps one upstream's traffic back to the client verbatim. An
// owner upstream (ready) first reads the reply to its node hello: a
// welcome is discarded, anything else is a refusal — counted
// (dmps_router_errors_total{site="node_hello"}) and, like the
// upstream's death, answered with node_moved; nothing behind it reaches
// the client. When the upstream dies (and the session does not), the
// node is marked down and the client is told which groups moved.
func (rs *routerSession) relay(up *upstream) {
	defer rs.r.wg.Done()
	if up.ready != nil {
		wire, err := up.conn.Recv()
		if err == nil {
			if msg, derr := protocol.DecodeBinary(wire); derr != nil || msg.Type != protocol.TWelcome {
				rs.r.nodeHelloErrs.Add(1)
				err = transport.ErrClosed
			}
		}
		if err != nil {
			// Down first, so that a message waiting on ready finds the
			// upstream gone and routes afresh.
			rs.upstreamDown(up)
			close(up.ready)
			return
		}
		up.welcomed = true
		close(up.ready)
	}
	for {
		wire, err := up.conn.Recv()
		if err != nil {
			rs.upstreamDown(up)
			return
		}
		if err := rs.sendClient(wire); err != nil {
			return
		}
		rs.r.relayed.Add(1)
	}
}

// upstreamDown handles a dead upstream. One stream ending is not node
// death — the node may have closed just this one (a session reaped for
// silence, displaced by a resume, dropped as a slow consumer, or reset
// because this side fell an inbox behind) — and when the whole trunk
// died, trunkDown has already judged the node. Either way the client
// receives a TNodeMoved naming the groups that were flowing through the
// dead upstream — its cue to backfill each one, which re-opens an
// upstream wherever the map now points (the same node, or its successor).
func (rs *routerSession) upstreamDown(up *upstream) {
	_ = up.conn.Close()
	rs.mu.Lock()
	if rs.done || rs.ups[up.idx] != up || rs.r.isClosed() {
		rs.mu.Unlock()
		return
	}
	delete(rs.ups, up.idx)
	home := up.idx == rs.homeIdx
	groups := make([]string, 0, len(up.groups))
	for g := range up.groups {
		groups = append(groups, g)
	}
	rs.mu.Unlock()
	if home {
		// The home node carried the session's identity and token: there
		// is nothing to transparently move it to. Severing the client
		// connection hands the decision to its reconnect logic.
		rs.teardown()
		return
	}
	moved := protocol.NodeMovedBody{Groups: groups, Epoch: rs.r.pmap.Epoch()}
	if rs.r.pmap.Down(up.idx) {
		// Name the dead node's lights shard so clients can flip its
		// members red: their home stopped reporting, and a frozen last
		// value would read as a healthy connection forever.
		moved.Origin = fmt.Sprintf("n%d", up.idx)
	}
	note := protocol.MustNew(protocol.TNodeMoved, moved)
	if wire, err := protocol.EncodeBinary(note); err == nil {
		rs.tellClient(wire)
	}
}

// Recover returns a recovered node (restarted, replaced, or newly
// reachable again) to service through a coordinated, epoch-versioned
// live migration — the safe form of what a bare Map.MarkUp used to
// split-brain: the state the node's partitions accumulated elsewhere
// while it was down (adopted live state and never-adopted standby
// replicas alike) is shipped back and installed BEFORE the partition
// map points traffic at it.
//
// The sequence: probe the node (unreachable → error, nothing changes);
// bump the map epoch; ask every other up node to migrate what it holds
// for the recovering node (ForwardMigrate → the node ships epoch-
// stamped takeover packages and answers ForwardMigrated once its
// receiver confirmed the installs); only then MarkUp, and push one
// TNodeMoved naming the migrated groups and the new epoch to every
// proxied client — their cue to backfill, exactly like a failover.
// A peer that cannot be reached keeps its adopted state and keeps
// serving it (the map still routes those partitions to it until a
// later Recover completes); epoch staleness makes retries converge.
func (r *Router) Recover(idx int) error {
	if idx < 0 || idx >= r.pmap.Len() {
		return fmt.Errorf("cluster: recover: node %d out of range", idx)
	}
	addr := r.pmap.Addr(idx)
	if err := r.probe(idx); err != nil {
		return fmt.Errorf("cluster: recover: node %d unreachable: %w", idx, err)
	}
	epoch := r.pmap.NextEpoch()
	var moved []string
	for j := 0; j < r.pmap.Len(); j++ {
		if j == idx || r.pmap.Down(j) {
			continue
		}
		groups, err := r.askMigrate(j, idx, addr, epoch)
		if err != nil {
			// This peer keeps its claim; a later Recover retries under a
			// newer epoch and the staleness rule discards the older ship.
			continue
		}
		moved = append(moved, groups...)
	}
	r.pmap.MarkUp(idx)
	if wire, err := protocol.EncodeBinary(protocol.MustNew(protocol.TNodeMoved, protocol.NodeMovedBody{
		Groups: moved, Epoch: epoch,
	})); err == nil {
		r.mu.Lock()
		sessions := make([]*routerSession, 0, len(r.sessions))
		for rs := range r.sessions {
			sessions = append(sessions, rs)
		}
		r.mu.Unlock()
		for _, rs := range sessions {
			rs.tellClient(wire)
		}
	}
	return nil
}

// askMigrate asks node j to migrate everything it holds for the
// recovering node, blocking until its ForwardMigrated confirmation. It
// returns the group/member-log keys the node reported shipped.
func (r *Router) askMigrate(j, node int, addr string, epoch int64) ([]string, error) {
	conn, err := r.cfg.Network.Dial(r.pmap.Addr(j))
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	wire := WrapForward(protocol.ForwardBody{
		Kind: protocol.ForwardMigrate, Node: node, Addr: addr, Epoch: epoch,
	})
	if wire == nil {
		return nil, errors.New("cluster: recover: encode migrate")
	}
	if err := conn.Send(wire); err != nil {
		return nil, err
	}
	for {
		reply, err := conn.Recv()
		if err != nil {
			return nil, err
		}
		msg, err := protocol.DecodeBinary(reply)
		if err != nil {
			continue
		}
		if body, err := protocol.DecodeForward(msg); err == nil && body.Kind == protocol.ForwardMigrated {
			return body.Groups, nil
		}
	}
}

// teardown severs the client and every upstream connection.
func (rs *routerSession) teardown() {
	rs.mu.Lock()
	rs.done = true
	ups := rs.ups
	rs.ups = make(map[int]*upstream)
	rs.mu.Unlock()
	_ = rs.client.Close()
	for _, up := range ups {
		_ = up.conn.Close()
	}
}

// retire removes the session from the router's table on exit.
func (rs *routerSession) retire() {
	rs.teardown()
	rs.r.mu.Lock()
	delete(rs.r.sessions, rs)
	rs.r.mu.Unlock()
}
