// Package server implements the DMPS server: the centralized group
// administration and floor control of the paper ("the floor control model
// is managed by group administration of the DMPS server; all the users'
// floor control request inputs are sent to the server"), the global clock
// master, per-mode message routing, the sequenced whiteboard/message
// window, and the connection-status monitor behind the Figure-3
// red/green lights.
//
// Delivery writes through: a group broadcast encodes the message exactly
// once, and the goroutine fanning it out hands those bytes straight to
// each recipient connection that takes them at once (transport.TrySender:
// a non-blocking write to a socket, or a frame joining a trunk's pending
// write for a routed session). Only while a connection pushes back or a
// frame ahead is still owed does a frame wait in the session's bounded
// queue for its writer goroutine. A client that stops reading backs up
// only that queue, where the slow-consumer policy (count-and-drop by
// default, optionally disconnect) applies and the backpressure counters
// surface through SessionStats and the lights.
//
// State reaches clients through one sequenced event-log plane
// (internal/grouplog): every state broadcast — floor events,
// suspend/resume, board operations, mode switches, invitations — is
// appended to its group's log first, stamped with per-class sequence
// numbers (Message.Class/CSeq, plus the log-wide GSeq) and fanned out
// as those bytes — to the sessions whose event-class mask admits the
// class; the rest pay nothing, which is what per-class sequencing
// buys. A recipient that took drops sees the hole (or learns from the
// heads digest on the lights broadcast that it is behind) and asks
// TBackfill for the missing suffix; the log compacts class-wise under
// pressure, so the reply is usually a short compacted suffix anchored
// on each class's latest state-bearing restatement, with one compact
// TSnapshot only when a needed class no longer connects. The same
// path serves late joiners, explicit replays and token-based session
// reconnects. Each queued member learns its slot from the personal copy
// of every floor event it is sent, board operations are paced to one
// held event per 3.125 ms slot per group (a line outside a storm is
// never held at all), and members silent past SessionTTL are reaped —
// tokens, directory entries and member logs track the live population.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmps/internal/clock"
	"dmps/internal/cluster"
	"dmps/internal/floor"
	"dmps/internal/group"
	"dmps/internal/grouplog"
	"dmps/internal/metrics"
	"dmps/internal/protocol"
	"dmps/internal/resource"
	"dmps/internal/trace"
	"dmps/internal/transport"
	"dmps/internal/whiteboard"
)

// Light is a connection-status light (paper Figure 3).
type Light string

const (
	// Green: the client is connected and answering probes.
	Green Light = "green"
	// Red: the client has disconnected or stopped answering.
	Red Light = "red"
)

// SlowConsumerPolicy selects what happens when a session's bounded
// outbound queue overflows — i.e. the client reads slower than the
// server produces for it.
type SlowConsumerPolicy int

const (
	// DropNewest (the default) drops the message that does not fit and
	// counts it in the session's drop counter; nobody else is affected.
	// State-carrying traffic heals afterwards: replies never drop (they
	// block the requester's own handler instead), and every logged state
	// event — floor, suspend/resume, board, mode switches, invitations —
	// is recovered through the event log: the client sees the sequence
	// hole (or the heads digest on the lights broadcast) and asks
	// TBackfill. Only inherently transient messages — media units,
	// lights tables, private direct-contact lines, presentation starts —
	// are lost outright.
	DropNewest SlowConsumerPolicy = iota
	// Disconnect tears the session down on the first overflow: its light
	// turns red and its queue is abandoned. Use when a lagging replica is
	// worse than a missing one.
	Disconnect
)

// Config configures a server.
type Config struct {
	// Network provides the listener (TCP or netsim).
	Network transport.Network
	// Addr is the listen address.
	Addr string
	// Clock drives the global clock master and the status prober
	// (defaults to the real clock).
	Clock clock.Clock
	// Monitor supplies resource availability for FCM-Arbitrate (nil
	// means always Normal).
	Monitor *resource.Monitor
	// ProbeInterval is the status-probe period (default 200ms).
	ProbeInterval time.Duration
	// ProbeTimeout marks a client red after this silence (default 3×
	// the interval).
	ProbeTimeout time.Duration
	// SendQueueCap bounds each session's outbound queue (default 256
	// messages). A session whose queue is full is a slow consumer and is
	// handled per SlowPolicy; it can never block another session's
	// delivery.
	SendQueueCap int
	// SlowPolicy is the slow-consumer policy (default DropNewest).
	SlowPolicy SlowConsumerPolicy
	// LogCap bounds each group's (and each member's) retained event log
	// (default grouplog.DefaultCap, 512 events). Under capacity pressure
	// the log compacts class-wise — events superseded by a newer
	// state-bearing restatement of their class go first, and each
	// class's latest restatement is never evicted — so a client far
	// behind usually converges from a short compacted suffix; only when
	// a needed class no longer connects does it fall back to a
	// TSnapshot. The capacity trades backfill reach against retained
	// memory per group — never correctness.
	LogCap int
	// SessionTTL bounds how long a disconnected member's session token,
	// directory entry and private event log outlive their last
	// connection. Members gone longer are reaped: their token stops
	// resuming (the reconnect handshake answers a typed
	// "session_expired" error), their memberships, queue slots and any
	// held floor are released, and their member log is dropped — the
	// growth bound that keeps a million-user directory from
	// accumulating every member that ever connected. Default one hour.
	SessionTTL time.Duration
	// WALDir, when set, puts a write-ahead segment store under the
	// directory: every logged append and serving-state change is
	// journaled before the next accept, New replays the journal before
	// listening, and periodic checkpoints truncate it — a restarted
	// process resumes with the exact GSeq/CSeq cursors, tokens and floor
	// state its clients hold. Empty means in-memory only (the default).
	WALDir string
	// WALSegmentBytes is the WAL segment rotation threshold
	// (grouplog.DefaultSegmentBytes when <= 0).
	WALSegmentBytes int64
	// WALCheckpointInterval is the cadence of full-state WAL checkpoints
	// (default 30s). Checkpoints bound replay time and disk; between
	// them the journal only grows.
	WALCheckpointInterval time.Duration
	// Cluster, when set, runs this server as one group-partition node of
	// a multi-process cluster: it serves only the partitions the shared
	// map assigns to it (rejecting the rest with a node_moved redirect),
	// homes only the members whose hash lands on it, replicates its
	// partitions' logged appends to the ring successor, and speaks typed
	// TForward messages with its peers. Nil is the ordinary standalone
	// server.
	Cluster *ClusterConfig
}

// Server is a running DMPS server.
type Server struct {
	cfg      Config
	listener transport.Listener
	registry *group.Registry
	floorCtl *floor.Controller
	master   *clock.Master
	logs     *grouplog.Plane
	cluster  *clusterState // nil outside cluster mode
	wal      *grouplog.WAL // nil when Config.WALDir is empty
	// plane is the node's runtime tracing plane: every hop of a sampled
	// operation (dispatch, arbitrate, log append, encode, queue wait,
	// flush, replication ack) records a named span here, keyed by the
	// wire-propagated trace ID. Always non-nil; unsampled traffic never
	// touches it.
	plane *trace.Plane

	nextID atomic.Int64

	mu       sync.Mutex
	sessions map[group.MemberID]*session
	boards   map[string]*groupBoard
	// conns tracks every accepted connection from accept until its
	// handler exits, so Close severs them all — the session table alone
	// misses inter-node peer links (no session) and conns still mid-
	// handshake (session not yet installed), and an unsevered connection
	// parks its handler on Recv forever, deadlocking Close's wg.Wait. The
	// value marks the routing tier's trunk connections, which Close
	// severs first.
	conns map[transport.Conn]bool
	// tokens maps session-resume tokens to members (and tokenOf the
	// reverse): a reconnecting client presents its token in THello and
	// is re-bound to the same member identity without re-joining groups.
	tokens  map[string]group.MemberID
	tokenOf map[group.MemberID]string

	// Board pacing state. boOpen is the set of groups with an open batch
	// — what a flush visits instead of every board — and boWake tells
	// the board loop that a group joined it. Lock order: gb.mu, then
	// boMu.
	boMu   sync.Mutex
	boOpen map[string]*groupBoard
	boWake chan struct{}
	// boardOps counts board operations appended; boardFlushes the logged
	// events they produced, by cause — their sum over boardOps is the
	// annotation-storm ratio BenchmarkBoardStorm gates on. boardHold is
	// the age of the oldest operation in each flushed batch.
	boardOps     atomic.Int64
	boardFlushes [numFlushCauses]atomic.Int64
	boardHold    *metrics.Histogram
	// logAppendErrs counts events the publish pipeline's log append
	// refused, walAppendErrs records the journal failed to write,
	// installErrs package steps install could not apply, ckptErrs and
	// walCloseErrs periodic checkpoints and the final journal close that
	// failed, migrateSendErrs a migration's barrier ack or reply that
	// its connection refused, replicaApplyErrs replica and takeover
	// forwards whose record did not decode or apply, acceptErrs the
	// transient Accept errors Serve backed off and retried
	// (dmps_errors_total{site="log_append"|"wal_append"|"state_install"|
	// "wal_checkpoint"|"wal_close"|"migrate_send"|"replica_apply"|
	// "accept"}).
	logAppendErrs    atomic.Int64
	acceptErrs       atomic.Int64
	walAppendErrs    atomic.Int64
	installErrs      atomic.Int64
	ckptErrs         atomic.Int64
	walCloseErrs     atomic.Int64
	migrateSendErrs  atomic.Int64
	replicaApplyErrs atomic.Int64
	lightsPushes     atomic.Int64 // dmps_lights_pushes_total

	// Wire-path telemetry: payload bytes read off client connections
	// (wireIn) and written to them (wireOut), socket writes (a writer's
	// flush, or one inline frame) and the messages they carried —
	// msgs/flush is the batching efficiency the /metrics plane exports.
	wireIn      atomic.Int64
	wireOut     atomic.Int64
	wireFlushes atomic.Int64
	wireMsgsOut atomic.Int64
	// wireInline counts the frames written on the sending goroutine
	// (writeInline), each also a one-message flush.
	wireInline atomic.Int64
	// trunks counts the work of the routing tier's trunk connections
	// this node serves (the dmps_trunk_* series).
	trunks transport.MuxStats

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// session is one connected client. Outbound traffic goes straight to
// the connection while it takes frames without blocking
// (transport.TrySender) and nothing is waiting ahead of it; otherwise
// into a bounded queue drained by a dedicated writer goroutine, so a
// stalled client socket backs up only its own queue — never the
// goroutine that is fanning a broadcast out to the rest of the group.
type session struct {
	member group.Member
	conn   transport.Conn
	// try is conn's non-blocking write (a socket's, a netsim link's, a
	// trunk stream's), nil for a conn without one, whose frames all go
	// through the queue and writer.
	try transport.TrySender
	// wmu serializes writes to conn: the writer holds it across each
	// flush, an inline write across its TrySend. owed counts frames
	// handed over but not yet written — queued, or taken off the queue
	// by the writer and not yet flushed — and starts at one for the
	// welcome, which the writer clears when it starts. A frame goes
	// inline only when owed is zero under wmu, so per-session order is
	// enqueue order. tail wakes the writer to finish a frame an inline
	// write left half-written.
	wmu  sync.Mutex
	owed atomic.Int64
	tail chan struct{}
	// homed marks a session admitted by this node's own handshake (the
	// member's home is here); node-scoped sessions opened by the routing
	// tier for remote-homed members are not homed, and in cluster mode
	// the lights/backpressure tables cover homed sessions only — a node
	// tracks lights for exactly the members it homes.
	homed bool

	// queue carries encoded wire messages to the writer goroutine.
	queue chan queued
	// down marks the session dead (see up) and tells the writer to exit;
	// closed exactly once, by disconnect via downOnce.
	down     chan struct{}
	downOnce sync.Once
	// drops counts messages dropped on queue overflow (backpressure).
	drops atomic.Int64
	// classes is the session's event-class mask (nil means every
	// class): logged events of classes outside it are filtered before
	// they reach the queue, counted in filtered. Set at the handshake
	// (HelloBody.Classes), replaced by TSubscribe; read lock-free on
	// every fan-out.
	classes  atomic.Pointer[map[string]bool]
	filtered atomic.Int64

	mu       sync.Mutex
	lastSeen time.Time
	// Lights-push dedup: the digest, light table and drop counters of
	// the last lights message this session accepted. While none of them
	// change, the probe tick skips the session entirely — no re-encode,
	// no bytes (queue depth is telemetry riding along, not a trigger).
	sentLights map[string]string
	sentHeads  map[string]map[string]int64
	sentDrops  map[string]int64
	lightsSent bool
}

// queued is one outbound queue entry: the wire bytes, plus — for
// sampled frames only — the trace ID and enqueue time that let the
// writer record the queue_wait span. The struct travels by value on the
// channel, so untraced traffic pays two zero fields and no allocation.
type queued struct {
	wire []byte
	tid  uint64
	at   int64 // enqueue time, UnixNano; 0 when untraced
}

// enqueued stamps wire bytes into a queue entry, reading the trace
// context off the frame itself (a two-byte peek for untraced frames).
func enqueued(wire []byte) queued {
	q := queued{wire: wire}
	if tid, _, fl := protocol.FrameTrace(wire); tid != 0 && fl&protocol.TraceSampled != 0 {
		q.tid = tid
		q.at = time.Now().UnixNano()
	}
	return q
}

// traceCtx is the sampled trace identity of the client request a
// logged event is caused by, threaded from the dispatch handler into
// the log-append path so the derived event's wire bytes carry the
// trace downstream (fan-out, WAL, replication). The zero value means
// untraced and costs nothing everywhere it is passed.
type traceCtx struct {
	id    uint64
	flags uint8
}

// traceOf extracts the trace context from a request message; untraced
// and unsampled messages yield the zero context.
func traceOf(msg protocol.Message) traceCtx {
	if !msg.Sampled() {
		return traceCtx{}
	}
	return traceCtx{id: msg.TraceID, flags: msg.TraceFlags}
}

// sampled reports whether the context carries a sampled trace — the
// guard in front of every clock read on the instrumented paths.
func (t traceCtx) sampled() bool { return t.id != 0 }

// stamp writes the context onto a derived message: the event keeps the
// originating trace ID, with the parent marking it downstream of the
// root request span.
func (t traceCtx) stamp(msg *protocol.Message) {
	if t.id == 0 {
		return
	}
	msg.TraceID = t.id
	msg.TraceParent = t.id
	msg.TraceFlags = t.flags
}

// wantsClass reports whether the session's event-class mask admits a
// logged event class (a nil mask admits everything).
func (s *session) wantsClass(class string) bool {
	m := s.classes.Load()
	if m == nil {
		return true
	}
	return (*m)[class]
}

// classSet adapts the shared protocol.ClassMask rule to the session's
// atomic pointer (nil pointer = admit every class).
func classSet(classes []string) *map[string]bool {
	m := protocol.ClassMask(classes)
	if m == nil {
		return nil
	}
	return &m
}

func (s *session) touch(now time.Time) {
	s.mu.Lock()
	s.lastSeen = now
	s.mu.Unlock()
}

func (s *session) light(now time.Time, timeout time.Duration) Light {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.up() || now.Sub(s.lastSeen) > timeout {
		return Red
	}
	return Green
}

// up reports whether the session is still connected: disconnect has not
// closed its down channel.
func (s *session) up() bool {
	select {
	case <-s.down:
		return false
	default:
		return true
	}
}

// sendMsg encodes a message and queues it for this session alone,
// reporting whether it fit (an unencodable message reports true: there
// is nothing to retry). Events shared by many recipients should be
// encoded once and fanned out via sendWire.
func (s *Server) sendMsg(sess *session, msg protocol.Message) bool {
	wire, err := protocol.EncodeBinary(msg)
	if err != nil {
		return true
	}
	return s.sendWire(sess, wire)
}

// sendReliable encodes and queues a message for the session, blocking
// when the queue is full instead of dropping. It is for replies
// (TAck/TErr) and requester-directed events sent from the session's own
// handler goroutine while holding no locks: blocking there exerts
// backpressure on exactly the client that is slow — its own read loop
// pauses — and a reply can never be silently lost. Cross-session sends
// must use sendWire instead (blocking on someone else's queue would let
// one slow consumer stall another member's handler).
func (s *Server) sendReliable(sess *session, msg protocol.Message) {
	wire, err := protocol.EncodeBinary(msg)
	if err != nil {
		return
	}
	if s.writeInline(sess, wire) {
		return
	}
	sess.owed.Add(1)
	select {
	case sess.queue <- enqueued(wire):
		s.unpinIfDown(sess)
	case <-sess.down:
	}
}

// sendWire writes pre-encoded wire bytes to the session's socket if it
// takes them at once, and hands them to the session's writer queue
// otherwise. It never blocks: when the queue is full the slow-consumer
// policy applies (count-and-drop, or disconnect). It reports false only
// for an overflow drop; a session that is already down returns true,
// since there is nothing left to deliver to.
func (s *Server) sendWire(sess *session, wire []byte) bool {
	if !sess.up() {
		return true
	}
	if s.writeInline(sess, wire) {
		return true
	}
	sess.owed.Add(1)
	select {
	case sess.queue <- enqueued(wire):
		s.unpinIfDown(sess)
		return true
	default:
		sess.owed.Add(-1)
		sess.drops.Add(1)
		if s.cfg.SlowPolicy == Disconnect {
			s.disconnect(sess)
		}
		return false
	}
}

// writeInline writes one frame on the caller — the write-through path —
// and reports whether it did. It never waits: not for wmu (the writer
// holds it while it flushes, and then the frame must queue behind that
// flush anyway), and not for the socket (TrySend takes the frame only
// if the socket does). It writes only when nothing is owed, so no
// queued frame is overtaken; a frame the socket half-takes is finished
// by the writer, which tail wakes, and owes a frame until it is. An
// inline write counts as a one-message flush, and a sampled one records
// the flush stage and no queue_wait.
func (s *Server) writeInline(sess *session, wire []byte) bool {
	if sess.try == nil || !sess.wmu.TryLock() {
		return false
	}
	defer sess.wmu.Unlock()
	if sess.owed.Load() != 0 {
		return false
	}
	var t0 time.Time
	tid, _, fl := protocol.FrameTrace(wire)
	sampled := tid != 0 && fl&protocol.TraceSampled != 0
	if sampled {
		t0 = time.Now()
	}
	ok, tail := sess.try.TrySend(wire)
	if !ok {
		return false
	}
	if tail {
		sess.owed.Add(1)
		sess.tail <- struct{}{} // never blocks: one tail at a time, cap 1
	}
	if sampled {
		s.plane.Span(tid, tid, trace.StageFlush, t0)
	}
	s.wireOut.Add(int64(len(wire)))
	s.wireFlushes.Add(1)
	s.wireMsgsOut.Add(1)
	s.wireInline.Add(1)
	return true
}

// unpinIfDown covers the enqueue/disconnect race: if the session went
// down between the down-gate check and the enqueue, the writer is gone
// and disconnect's drain may already have run, so pull one message back
// out — a dead session's queue must stay empty or its buffers would be
// pinned for the server's lifetime.
func (s *Server) unpinIfDown(sess *session) {
	if sess.up() {
		return
	}
	select {
	case <-sess.queue:
	default:
	}
}

// flushBatchBytes caps how many payload bytes one writer flush may
// carry. The cap bounds flush latency under a deep queue — the first
// message in a drain is never held behind more than this much data —
// and keeps the transport's packing buffer poolable.
const flushBatchBytes = 256 << 10

// writeLoop is the per-session writer: it drains the queue onto the
// connection until the session goes down or the connection fails.
// After blocking for the first message it opportunistically drains
// whatever else is already queued (up to flushBatchBytes) and hands the
// whole run to the transport as one batched write — under queue
// pressure a drain costs one syscall, not one per message. The drain
// never waits for more messages, so an idle session's flush latency is
// unchanged.
func (s *Server) writeLoop(sess *session) {
	defer s.wg.Done()
	sess.owed.Add(-1) // the welcome is written: inline writes may start
	batch := make([][]byte, 0, 64)
	var traced []queued // sampled entries of the current flush; stays nil on untraced sessions
	for {
		select {
		case <-sess.tail:
			// An inline write left a frame half-written: finish it (an
			// empty SendAll writes just the rest), unless a flush in
			// between already has.
			sess.wmu.Lock()
			err := transport.SendAll(sess.conn, nil)
			sess.owed.Add(-1)
			sess.wmu.Unlock()
			if err != nil {
				s.disconnect(sess)
				return
			}
		case q := <-sess.queue:
			batch = append(batch[:0], q.wire)
			traced = traced[:0]
			if q.tid != 0 {
				traced = append(traced, q)
			}
			size := len(q.wire)
		drain:
			for size < flushBatchBytes {
				select {
				case more := <-sess.queue:
					batch = append(batch, more.wire)
					if more.tid != 0 {
						traced = append(traced, more)
					}
					size += len(more.wire)
				default:
					break drain
				}
			}
			var t0 time.Time
			if len(traced) > 0 {
				t0 = time.Now()
			}
			sess.wmu.Lock()
			err := transport.SendAll(sess.conn, batch)
			sess.owed.Add(-int64(len(batch)))
			sess.wmu.Unlock()
			if err != nil {
				s.disconnect(sess)
				return
			}
			for _, q := range traced {
				at := time.Unix(0, q.at)
				s.plane.SpanDur(q.tid, q.tid, trace.StageQueueWait, at, t0.Sub(at))
				s.plane.Span(q.tid, q.tid, trace.StageFlush, t0)
			}
			s.wireOut.Add(int64(size))
			s.wireFlushes.Add(1)
			s.wireMsgsOut.Add(int64(len(batch)))
		case <-sess.down:
			return
		}
	}
}

// SessionStats is one session's backpressure snapshot.
type SessionStats struct {
	// QueueDepth is the number of queued outbound messages right now.
	QueueDepth int
	// QueueCap is the queue's capacity (Config.SendQueueCap).
	QueueCap int
	// Drops counts messages dropped on overflow since the session began.
	Drops int64
	// Filtered counts logged events the session's event-class mask kept
	// off its queue entirely — the scale-hygiene dividend of server-side
	// filtering, observable per session.
	Filtered int64
}

// SessionStats returns per-member backpressure counters for every
// connected session — the observability half of the slow-consumer
// policy, also pushed to clients on the lights broadcast.
func (s *Server) SessionStats() map[string]SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]SessionStats, len(s.sessions))
	for id, sess := range s.sessions {
		out[string(id)] = SessionStats{
			QueueDepth: len(sess.queue),
			QueueCap:   cap(sess.queue),
			Drops:      sess.drops.Load(),
			Filtered:   sess.filtered.Load(),
		}
	}
	return out
}

// New creates a server and starts listening. Call Serve (usually in a
// goroutine) to accept clients, and Close to shut down.
func New(cfg Config) (*Server, error) {
	if cfg.Network == nil {
		return nil, errors.New("server: Config.Network is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 200 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 3 * cfg.ProbeInterval
	}
	if cfg.SendQueueCap <= 0 {
		cfg.SendQueueCap = 256
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = time.Hour
	}
	if cfg.WALCheckpointInterval <= 0 {
		cfg.WALCheckpointInterval = 30 * time.Second
	}
	var cl *clusterState
	if cfg.Cluster != nil {
		var err error
		if cl, err = newClusterState(*cfg.Cluster, cfg.Network, cfg.LogCap); err != nil {
			return nil, err
		}
	}
	l, err := cfg.Network.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	registry := group.NewRegistry()
	s := &Server{
		cfg:      cfg,
		listener: l,
		registry: registry,
		floorCtl: floor.NewController(registry, cfg.Monitor),
		master:   clock.NewMaster(cfg.Clock),
		logs:     grouplog.NewPlane(cfg.LogCap),
		sessions: make(map[group.MemberID]*session),
		conns:    make(map[transport.Conn]bool),
		boards:   make(map[string]*groupBoard),
		boOpen:   make(map[string]*groupBoard),
		tokens:   make(map[string]group.MemberID),
		tokenOf:  make(map[group.MemberID]string),
		cluster:  cl,
		plane:    trace.NewPlane(l.Addr(), trace.ServerStages, 0),
		closed:   make(chan struct{}),

		boWake:    make(chan struct{}, 1),
		boardHold: metrics.NewHistogram(nil),
	}
	if cl != nil {
		// Replication round trips become repl_ack spans: the head table
		// hands back each traced event's trace and RTT once acked.
		cl.heads = cluster.NewHeadTable(cl.ackLatency.Observe, func(tid uint64, sentAt time.Time, rtt time.Duration) {
			s.plane.SpanDur(tid, tid, trace.StageReplAck, sentAt, rtt)
		})
	}
	if cfg.WALDir != "" {
		w, err := grouplog.OpenWAL(cfg.WALDir, cfg.WALSegmentBytes)
		if err == nil {
			// Replay before the WAL hooks arm (s.wal is still nil), so the
			// installs do not re-journal what the journal just said.
			if err = s.replayWAL(w); err != nil {
				err = errors.Join(err, w.Close())
			}
		}
		if err != nil {
			// Only the listener and the trace plane run yet: a node that
			// cannot replay its journal leaves nothing behind.
			s.plane.Close()
			return nil, errors.Join(fmt.Errorf("server: %w", err), l.Close())
		}
		s.wal = w
	}
	s.wg.Add(2)
	go s.probeLoop()
	go s.boardLoop()
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.listener.Addr() }

// Registry exposes the group administration (for tests and tools).
func (s *Server) Registry() *group.Registry { return s.registry }

// FloorController exposes the floor control state (for tests and tools).
func (s *Server) FloorController() *floor.Controller { return s.floorCtl }

// Master exposes the global clock master.
func (s *Server) Master() *clock.Master { return s.master }

// TracePlane exposes the node's runtime tracing plane (for tests and
// the metrics registration path).
func (s *Server) TracePlane() *trace.Plane { return s.plane }

// Serve accepts clients until Close. It returns nil after a clean Close.
// A transient Accept error (transport.ErrTransient: out of descriptors
// under a reconnect storm, say) is counted (dmps_errors_total{site=
// "accept"}) and retried after a backoff; any other error ends Serve.
func (s *Server) Serve() error {
	var delay time.Duration
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
			}
			if !errors.Is(err, transport.ErrTransient) {
				return fmt.Errorf("server: accept: %w", err)
			}
			s.acceptErrs.Add(1)
			delay = transport.AcceptDelay(delay)
			select {
			case <-s.closed:
				return nil
			case <-time.After(delay):
			}
			continue
		}
		delay = 0
		s.spawn(conn, true)
	}
}

// spawn serves a newly accepted connection — a socket (which may turn
// out to be a trunk), or a stream of a trunk (which may not) — on its own
// goroutine, tracked so that Close severs it. After Close it only closes
// the connection.
func (s *Server) spawn(conn transport.Conn, mayTrunk bool) {
	s.mu.Lock()
	select {
	case <-s.closed:
		// Close already swept the conn table; a late accept must not
		// slip past it into a handler nobody can unblock.
		s.mu.Unlock()
		_ = conn.Close() // nothing was read or written on it, so its close has nothing to lose
		return
	default:
	}
	s.conns[conn] = false
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		defer func() {
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
		s.serve(conn, mayTrunk)
	}()
}

// Start runs Serve on a goroutine. An accept error the listener does
// not outlive ends it, and is counted (dmps_errors_total{site="accept"}).
func (s *Server) Start() {
	go func() {
		if err := s.Serve(); err != nil {
			s.acceptErrs.Add(1)
		}
	}()
}

// Close shuts the server down and waits for its goroutines.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		// Closing severs: a close that reports an error (the conn or
		// listener was already down) has released it all the same, and
		// Serve and every handler exit on s.closed or their failed I/O.
		_ = s.listener.Close()
		s.mu.Lock()
		// Trunks first, so that a router sees this node go the way a
		// crashed one does — one connection dying — and not sixteen
		// streams closing one by one ahead of it, each of which it would
		// answer by trying the node again.
		for conn, trunk := range s.conns {
			if trunk {
				_ = conn.Close() // severing, as above
			}
		}
		for _, sess := range s.sessions {
			_ = sess.conn.Close() // severing, as above
		}
		for conn := range s.conns {
			_ = conn.Close() // severing, as above
		}
		s.mu.Unlock()
		if s.cluster != nil {
			s.cluster.pool.Close()
		}
	})
	s.wg.Wait()
	s.plane.Close()
	if s.wal != nil {
		// After the goroutines drain: nothing appends anymore, so the
		// final fsync captures everything (Close is idempotent).
		if err := s.wal.Close(); err != nil {
			s.walCloseErrs.Add(1)
		}
	}
}

// serve runs one connection: handshake, then the message loop. A first
// message that is a TForward makes it an inter-node peer link, which
// runs the forward loop instead; one that is the trunk preface (on a
// socket) makes it a trunk, whose streams carry the routing tier's
// sessions and are each served exactly like a socket of their own.
func (s *Server) serve(conn transport.Conn, mayTrunk bool) {
	first, err := conn.Recv()
	if err != nil {
		_ = conn.Close() // its Recv failed: the close only releases it
		return
	}
	if mayTrunk && transport.IsTrunkPreface(first) {
		s.mu.Lock()
		s.conns[conn] = true
		s.mu.Unlock()
		mux := transport.AcceptMux(conn, &s.trunks, func(stream transport.Conn) {
			s.spawn(stream, false)
		})
		// Close severs conn like any tracked connection, which ends the
		// trunk and with it every stream.
		mux.Wait()
		return
	}
	sess, peer, err := s.handshake(conn, first)
	if err != nil {
		_ = conn.Close() // refused: the connection is given up whatever its close reports
		return
	}
	if sess == nil {
		s.peerLoop(conn, peer)
		return
	}
	for {
		wire, err := conn.Recv()
		if err != nil {
			s.disconnect(sess)
			return
		}
		s.wireIn.Add(int64(len(wire)))
		msg, err := protocol.DecodeBinary(wire)
		if err != nil {
			s.replyErr(sess, 0, "decode", err)
			continue
		}
		sess.touch(s.cfg.Clock.Now())
		if msg.Type == protocol.TBye {
			s.disconnect(sess)
			return
		}
		var t0 time.Time
		sampled := msg.Sampled()
		if sampled {
			t0 = time.Now()
		}
		s.dispatch(sess, msg)
		if sampled {
			s.plane.Span(msg.TraceID, msg.TraceParent, trace.StageDispatch, t0)
		}
	}
}

// testResumeRaceHook, when set by a test, runs between the resume
// handshake's first token check and the install-time re-check —
// the window a concurrent Reap can revoke the token in.
var testResumeRaceHook func()

// sendHandshake writes one of the server's handshake messages — the
// welcome, or a typed refusal — synchronously.
func sendHandshake(conn transport.Conn, msg protocol.Message) error {
	wire, err := protocol.EncodeBinary(msg)
	if err != nil {
		return err
	}
	return conn.Send(wire)
}

// reject answers a handshake with a typed error before the connection
// closes, so the client can tell the refusal apart from a network
// failure. The send is best-effort: the connection is being given up
// either way.
func reject(conn transport.Conn, seq int64, code, detail string) {
	msg := protocol.MustNew(protocol.TErr, protocol.ErrBody{Code: code, Detail: detail})
	msg.Seq = seq
	_ = sendHandshake(conn, msg) // best-effort: a client that misses it sees the connection fail instead
}

// rejectExpired answers a resume attempt whose token no longer resolves
// — on every path, including the reap-races-the-resume window.
func rejectExpired(conn transport.Conn, seq int64) {
	reject(conn, seq, "session_expired", "unknown or expired session token; reconnect with a fresh hello")
}

// rejectWire refuses a hello stamped with a wire version this server
// does not speak; it reports whether it did.
func rejectWire(conn transport.Conn, seq int64, version int) bool {
	if version == protocol.WireVersion {
		return false
	}
	reject(conn, seq, protocol.CodeWireUnsupported,
		fmt.Sprintf("wire version %d is not spoken; the only framing is version %d", version, protocol.WireVersion))
	return true
}

// handshake admits a client: wire, the connection's first message, must
// be THello (or, on a cluster node, a TNodeHello binding a remote-homed
// member, or a TForward opening a peer link — returned with a nil
// session). An older client's JSON hello gets its typed refusal. A hello
// carrying a session token resumes the member it was issued to — the
// new connection displaces any stale session still in the table, and
// the client converges through TBackfill instead of re-joining groups.
func (s *Server) handshake(conn transport.Conn, wire []byte) (*session, protocol.Message, error) {
	if refusal, old := protocol.OldWireRefusal(wire); old {
		_ = conn.Send(refusal) // best-effort, as reject's: the connection is given up
		return nil, protocol.Message{}, fmt.Errorf("server: handshake: a JSON hello (%w)", transport.ErrClosed)
	}
	msg, err := protocol.DecodeBinary(wire)
	if err != nil {
		return nil, protocol.Message{}, fmt.Errorf("server: handshake: %w (%w)", err, transport.ErrClosed)
	}
	homed := true
	var member group.Member
	var hello protocol.HelloBody
	fresh := true
	switch msg.Type {
	case protocol.THello:
		if err := msg.Into(&hello); err != nil {
			return nil, protocol.Message{}, err
		}
		if rejectWire(conn, msg.Seq, hello.WireVersion) {
			return nil, protocol.Message{}, fmt.Errorf("server: handshake: wire version %d (%w)", hello.WireVersion, transport.ErrClosed)
		}
	case protocol.TForward:
		if s.cluster == nil {
			return nil, protocol.Message{}, fmt.Errorf("server: handshake: forward outside cluster mode (%w)", transport.ErrClosed)
		}
		return nil, msg, nil
	case protocol.TNodeHello:
		if s.cluster == nil {
			return nil, protocol.Message{}, fmt.Errorf("server: handshake: node hello outside cluster mode (%w)", transport.ErrClosed)
		}
		var nh protocol.NodeHelloBody
		if err := msg.Into(&nh); err != nil {
			return nil, protocol.Message{}, err
		}
		if nh.MemberID == "" {
			return nil, protocol.Message{}, fmt.Errorf("server: handshake: node hello without member (%w)", transport.ErrClosed)
		}
		if rejectWire(conn, msg.Seq, nh.WireVersion) {
			return nil, protocol.Message{}, fmt.Errorf("server: handshake: wire version %d (%w)", nh.WireVersion, transport.ErrClosed)
		}
		member = memberFromInfo(protocol.NodeMemberInfo{ID: nh.MemberID, Name: nh.Name, Role: nh.Role, Priority: nh.Priority})
		if err := s.registry.EnsureMember(member); err != nil {
			return nil, protocol.Message{}, err
		}
		hello.Classes = nh.Classes
		homed = false
		fresh = false
	default:
		return nil, protocol.Message{}, fmt.Errorf("server: handshake: got %v (%w)", msg.Type, transport.ErrClosed)
	}

	if homed {
		fresh = hello.Token == ""
		if fresh {
			role := group.Participant
			if strings.EqualFold(hello.Role, "chair") {
				role = group.Chair
			}
			// A cluster node homes only the members whose hash lands on
			// it: a directly-dialing client whose home is elsewhere gets
			// the typed redirect and follows it.
			if s.cluster != nil {
				key := cluster.HomeKey(group.SanitizeName(hello.Name))
				if !s.homesMember(group.MemberID(key)) {
					reject(conn, msg.Seq, protocol.CodeNodeMoved, s.ownerAddr(key))
					return nil, protocol.Message{}, fmt.Errorf("server: handshake: member homed elsewhere (%w)", transport.ErrClosed)
				}
			}
			// Admission needs no server-wide lock: the ID counter is atomic
			// and the registry guards itself.
			id := group.MemberID(fmt.Sprintf("%s#%d", group.SanitizeName(hello.Name), s.nextID.Add(1)))
			member = group.Member{ID: id, Name: hello.Name, Role: role, Priority: hello.Priority}
			if err := s.registry.Register(member); err != nil {
				return nil, protocol.Message{}, err
			}
		} else {
			s.mu.Lock()
			id, ok := s.tokens[hello.Token]
			s.mu.Unlock()
			if !ok {
				// Not minted here. In cluster mode the token may belong to
				// a member whose home node died: the replica store holds
				// their replicated home state, and when the home really is
				// unreachable this node adopts them — a resume survives
				// home-node death instead of expiring the session.
				var redirect string
				if id, redirect, ok = s.adoptResume(hello.Token); !ok {
					if redirect != "" {
						reject(conn, msg.Seq, protocol.CodeNodeMoved, redirect)
						return nil, protocol.Message{}, fmt.Errorf("server: handshake: member homed elsewhere (%w)", transport.ErrClosed)
					}
					// The token was reaped (SessionTTL) or never issued.
					rejectExpired(conn, msg.Seq)
					return nil, protocol.Message{}, fmt.Errorf("server: handshake: unknown session token (%w)", transport.ErrClosed)
				}
			}
			if member, err = s.registry.Member(id); err != nil {
				return nil, protocol.Message{}, err
			}
			if testResumeRaceHook != nil {
				// Test seam for the reap-races-the-resume window: the
				// token resolved above, and whatever runs here (a reap)
				// must still surface as the typed session_expired below.
				testResumeRaceHook()
			}
		}
	}
	token := ""
	if homed {
		token = s.issueToken(member.ID)
		if fresh {
			// A fresh admission mints this node's claim on the member:
			// journal the home (directory row + token) and replicate it to
			// the ring successors, so the resume outlives this process.
			s.persist(grouplog.MemberKey(string(member.ID)))
		}
	}

	sess := &session{
		member:   member,
		conn:     conn,
		homed:    homed,
		tail:     make(chan struct{}, 1),
		queue:    make(chan queued, s.cfg.SendQueueCap),
		down:     make(chan struct{}),
		lastSeen: s.cfg.Clock.Now(),
	}
	// The comma-ok form: a conn without the capability leaves try nil.
	sess.try, _ = conn.(transport.TrySender)
	sess.owed.Store(1) // the welcome, until the writer starts
	sess.classes.Store(classSet(hello.Classes))
	// The welcome must be the first message the client sees, so send it
	// synchronously before the session becomes visible to broadcasts and
	// probes (the writer starts only after registration).
	welcome := protocol.MustNew(protocol.TWelcome, protocol.WelcomeBody{
		MemberID:        string(member.ID),
		ServerTimeNanos: protocol.Nanos(s.master.GlobalNow()),
		Token:           token,
		WireVersion:     protocol.WireVersion,
	})
	welcome.Seq = msg.Seq
	s.mu.Lock()
	if homed && !fresh {
		// Re-check the token under the same lock that installs the
		// session: Reap revokes a member's token and collects their
		// stale session in one critical section, so a token still
		// present here proves the reaper has not claimed this member —
		// and once our fresh session is in the table, its recent
		// lastSeen keeps the member alive. A token gone means the
		// member was reaped mid-handshake: back out, including the
		// token issueToken just re-minted (the member is gone, so that
		// entry could never be cleaned up again), and reject with the
		// same typed session_expired the up-front check answers — the
		// race must not masquerade as a network failure to the client,
		// which is why the re-check runs before the welcome is written.
		if id, ok := s.tokens[hello.Token]; !ok || id != member.ID {
			s.revokeTokenLocked(member.ID)
			s.mu.Unlock()
			rejectExpired(conn, msg.Seq)
			_ = conn.Close() // refused: given up whatever its close reports (serve closes it again)
			return nil, protocol.Message{}, fmt.Errorf("server: handshake: session reaped during resume (%w)", transport.ErrClosed)
		}
	}
	old := s.sessions[member.ID]
	s.sessions[member.ID] = sess
	s.mu.Unlock()
	if old != nil {
		// A resumed member displaces their previous session (its writer
		// may still be parked on a dead connection): the regular
		// disconnect path tears it down — its table entry is already
		// replaced, so the member's light reflects the new session.
		s.disconnect(old)
	}
	// The session is in the table, but its writer has not started: the
	// direct welcome send below is still the first message on the wire —
	// broadcasts racing this window only queue, since the welcome is owed
	// until the writer starts.
	if err := sendHandshake(conn, welcome); err != nil {
		s.mu.Lock()
		if s.sessions[member.ID] == sess {
			delete(s.sessions, member.ID)
		}
		s.mu.Unlock()
		s.disconnect(sess)
		if fresh && homed {
			s.registry.Unregister(member.ID)
		}
		return nil, protocol.Message{}, err
	}
	s.wg.Add(1)
	go s.writeLoop(sess)
	return sess, protocol.Message{}, nil
}

// issueToken returns the member's session-resume token, minting one on
// first use. Tokens are random and live as long as the member directory
// entry they resume: a member gone past Config.SessionTTL is reaped and
// their token stops resolving.
func (s *Server) issueToken(id group.MemberID) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tok, ok := s.tokenOf[id]; ok {
		return tok
	}
	buf := make([]byte, 16)
	if _, err := rand.Read(buf); err != nil {
		// No entropy, no resumable session; the client simply cannot
		// reconnect with a token it never got.
		return ""
	}
	tok := hex.EncodeToString(buf)
	s.tokens[tok] = id
	s.tokenOf[id] = tok
	return tok
}

// revokeTokenLocked stops a member's resume token resolving — the one
// revocation, shared by the reaper, a replayed member drop and a resume
// backed out because a reap raced it. Requires s.mu.
func (s *Server) revokeTokenLocked(id group.MemberID) {
	if tok, ok := s.tokenOf[id]; ok {
		delete(s.tokens, tok)
		delete(s.tokenOf, id)
	}
}

// disconnect marks the session dead and tears its transport down: the
// writer goroutine is told to exit and the connection closed, which also
// unblocks a writer stalled mid-Send. Membership and floor state persist
// so the teacher can inspect the red light, as in Figure 3(c); others see
// it in the next probe tick's lights push. disconnect pushes nothing, so
// sendWire may call it and a burst of disconnects costs no pushes.
func (s *Server) disconnect(sess *session) {
	sess.downOnce.Do(func() { close(sess.down) })
	_ = sess.conn.Close() // the session is down either way; a failed close has still released the conn
	// Drop the abandoned backlog so a dead session pins no buffers: the
	// session itself stays in the table (the red light persists, Figure
	// 3(c)) but its writer is gone and sendWire's down-gate stops new
	// enqueues, so one drain frees everything for good.
	for {
		select {
		case <-sess.queue:
			continue
		default:
		}
		break
	}
}

// groupBoard pairs the authoritative board with a mutex that serializes
// append+broadcast, so every connection observes operations in sequence
// order (concurrent handler goroutines would otherwise interleave a later
// sequence number ahead of an earlier one). pend is the group's pending
// coalesced board batch: operations of one wire type arriving inside
// one pacing slot, whoever wrote them, accumulate here and go out as one
// logged event when the slot ends or a bound is reached.
type groupBoard struct {
	mu    sync.Mutex
	board *whiteboard.Board
	// pend is the open coalesced batch (any authors, one wire type),
	// pendType its envelope type, pendBytes its operations' encoded size
	// (boardOpBytes) and pendAt when its first operation arrived. lastLog
	// is when the group last logged a board event — the pacing clock: an
	// operation a slot or more after it logs inline, and an open batch is
	// due at lastLog + slot.
	pend      []protocol.SequencedBody
	pendType  protocol.Type
	pendBytes int
	pendAt    time.Time
	lastLog   time.Time
}

// board returns (creating) the group's authoritative board.
func (s *Server) board(groupID string) *groupBoard {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.boards[groupID]
	if !ok {
		b = &groupBoard{board: whiteboard.NewBoard()}
		s.boards[groupID] = b
	}
	return b
}

func (s *Server) replyAck(sess *session, seq int64, body any) {
	msg := protocol.MustNew(protocol.TAck, body)
	msg.Seq = seq
	s.sendReliable(sess, msg)
}

func (s *Server) replyErr(sess *session, seq int64, code string, err error) {
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	msg := protocol.MustNew(protocol.TErr, protocol.ErrBody{Code: code, Detail: detail})
	msg.Seq = seq
	s.sendReliable(sess, msg)
}

// session returns the live session for a member, if connected.
func (s *Server) session(id group.MemberID) (*session, bool) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	return sess, ok
}

// sendTo delivers a message to one member if connected.
func (s *Server) sendTo(id group.MemberID, msg protocol.Message) {
	if sess, ok := s.session(id); ok {
		s.sendMsg(sess, msg)
	}
}

// groupTargets snapshots the connected sessions of a group's members
// under a single lock acquisition.
func (s *Server) groupTargets(groupID string) []*session {
	// IDs, not full directory entries: the fan-out only keys the session
	// table, and the ID snapshot is shared (allocation-free) between
	// membership changes.
	members, err := s.registry.GroupMemberIDs(groupID)
	if err != nil {
		return nil
	}
	s.mu.Lock()
	targets := make([]*session, 0, len(members))
	for _, id := range members {
		if sess, ok := s.sessions[id]; ok {
			targets = append(targets, sess)
		}
	}
	s.mu.Unlock()
	return targets
}
