package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// A trunk carries many logical connections ("streams") over one Conn.
// The router keeps one trunk per node instead of one socket per session
// and node: the frames a node's fan-out hands its routed members leave
// in one write, the trunk flusher's, and reach the router in one read.
//
// The side that dialed announces the trunk with TrunkPreface as the
// connection's first message and is the only side that opens streams.
// Every later message is a run of frames:
//
//	byte 0     kind (1 open, 2 data, 3 close, 4 reset)
//	bytes 1–4  stream id, big-endian, chosen by the opener, never reused
//	bytes 5–8  payload length, big-endian (zero unless kind is data)
//	…          payload
//
// A stream is a Conn: per-stream FIFO, Close from either side, ErrClosed
// once closed and drained. There is no per-stream flow control; a stream
// whose consumer falls a whole inbox behind is reset alone, so one stuck
// session never holds up the others (no head-of-line blocking).

// TrunkPreface is the first message on a trunk connection. It starts
// with neither '{' nor the binary frame magic, so no protocol message
// can be mistaken for it.
var TrunkPreface = []byte("DMPS-TRUNK/1")

// IsTrunkPreface reports whether a connection's first message announces
// a trunk.
func IsTrunkPreface(msg []byte) bool { return bytes.Equal(msg, TrunkPreface) }

const (
	muxOpen byte = iota + 1
	muxData
	muxClose
	muxReset

	muxHeaderLen = 9

	// muxInboxFrames bounds how far a stream may run ahead of its
	// consumer — the depth of a session's send queue at the server's
	// default, which is the buffering a routed session had before its
	// socket became a stream.
	muxInboxFrames = 256

	// muxMaxPending bounds the bytes waiting for the trunk's writer.
	// Senders of data block past it (backpressure, like a full socket
	// buffer) instead of growing memory; a frame larger than the bound
	// travels alone.
	muxMaxPending = 256 << 10
)

// MaxStreamMessage is the largest payload a stream carries: the
// transport's limit less the room its trunk message needs for the frame
// header and whatever control frames join it. It is the smallest limit
// any message to a client meets, since a routed client's messages ride
// a stream.
const MaxStreamMessage = MaxMessageSize - muxMaxPending

// MuxStats accumulates the counters of every trunk one owner (a router,
// a node) runs; the owner exports them as the dmps_trunk_* series.
type MuxStats struct {
	// Streams is the number of open streams right now.
	Streams atomic.Int64
	// Flushes counts trunk writes and Frames the frames they carried.
	Flushes atomic.Int64
	Frames  atomic.Int64
	// ResetsOverflow counts streams reset here because their inbox
	// overflowed; ResetsPeer counts streams the other side reset.
	ResetsOverflow atomic.Int64
	ResetsPeer     atomic.Int64
	// Down counts trunks that died (not those closed deliberately).
	Down atomic.Int64
}

// muxFrame is one frame waiting for the trunk's writer.
type muxFrame struct {
	kind    byte
	id      uint32
	payload []byte
}

// Mux is one end of a trunk.
type Mux struct {
	conn   Conn
	stats  *MuxStats
	accept func(Conn) // nil on the dialing side
	onDown func()

	mu      sync.Mutex // guards streams, lastID and each stream's owed
	streams map[uint32]*Stream
	lastID  uint32 // highest stream id opened so far

	// The writer is flat-combining: a sender queues its frames on pend,
	// and the first sender to find nobody flushing writes out whatever
	// has gathered. A TrySend only queues, and wakes the flusher
	// goroutine through kick (cap 1) unless a flush is running, which
	// then writes its frame too. pend holds references (Conn.Send's
	// contract: a payload is never modified once sent); the bytes are
	// copied once, into a buffer cut to the write's exact size. spare is
	// the previous write's emptied queue, kept so that queueing
	// allocates nothing.
	wmu       sync.Mutex
	room      *sync.Cond // data senders waiting for pend to drain
	pend      []muxFrame
	spare     []muxFrame
	pendBytes int
	flushing  bool
	kick      chan struct{}
	flushDone chan struct{} // closed when the flusher goroutine exits

	end      sync.Once
	dead     atomic.Bool // set by shutdown before it takes wmu, then mu: whoever holds either and reads false is still swept
	readDone chan struct{}
}

// DialMux announces a trunk on conn and returns its opening end. onDown,
// when not nil, runs once if the trunk dies — before any stream reports
// ErrClosed — and not when the trunk is closed with Close.
func DialMux(conn Conn, stats *MuxStats, onDown func()) (*Mux, error) {
	if err := conn.Send(TrunkPreface); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return newMux(conn, stats, nil, onDown), nil
}

// AcceptMux returns the accepting end of a trunk whose preface has been
// read from conn. accept runs on the trunk's reader for every stream the
// peer opens and must not block.
func AcceptMux(conn Conn, stats *MuxStats, accept func(Conn)) *Mux {
	return newMux(conn, stats, accept, nil)
}

func newMux(conn Conn, stats *MuxStats, accept func(Conn), onDown func()) *Mux {
	m := &Mux{
		conn: conn, stats: stats, accept: accept, onDown: onDown,
		streams:   make(map[uint32]*Stream),
		readDone:  make(chan struct{}),
		kick:      make(chan struct{}, 1),
		flushDone: make(chan struct{}),
	}
	m.room = sync.NewCond(&m.wmu)
	go m.readLoop()
	go m.flushLoop()
	return m
}

// Dead reports whether the trunk has died or been closed.
func (m *Mux) Dead() bool { return m.dead.Load() }

// Wait blocks until the trunk has died or been closed and its reader
// and flusher have exited.
func (m *Mux) Wait() {
	<-m.readDone
	<-m.flushDone
}

// Close shuts the trunk down: every stream ends, the connection closes
// and the reader and flusher are waited for. Close is idempotent.
func (m *Mux) Close() {
	m.shutdown(false)
	m.Wait()
}

// shutdown ends the trunk once. Concurrent callers block until the
// first has finished, so whoever observed the failure returns only
// after onDown ran and every stream ended.
func (m *Mux) shutdown(died bool) {
	m.end.Do(func() {
		_ = m.conn.Close()
		if died {
			m.stats.Down.Add(1)
			if m.onDown != nil {
				m.onDown()
			}
		}
		m.dead.Store(true)
		m.wmu.Lock()
		m.pend, m.spare, m.pendBytes = nil, nil, 0
		m.room.Broadcast()
		m.wmu.Unlock()
		m.mu.Lock()
		for _, st := range m.streams {
			st.owed = 0
			m.unlink(st)
		}
		m.mu.Unlock()
	})
}

// unlink ends a stream locally; the caller holds mu.
func (m *Mux) unlink(st *Stream) {
	if _, live := m.streams[st.id]; !live {
		return
	}
	delete(m.streams, st.id)
	// Count first: a caller that has seen the stream end (done closed,
	// its Send or Recv returning ErrClosed) must not read it as live.
	m.stats.Streams.Add(-1)
	close(st.done)
}

// Open opens a new stream. Only the dialing end may. The messages in
// first, if any, are the stream's first data: they are queued with the
// open frame and leave in the same trunk write, so a stream that opens
// in order to say something costs one write, not two.
func (m *Mux) Open(first ...[]byte) (Conn, error) {
	if m.accept != nil {
		return nil, fmt.Errorf("transport: open on the accepting end of a trunk (%w)", ErrClosed)
	}
	need, err := streamBytes(first)
	if err != nil {
		return nil, err
	}
	// The id is taken under the writer's lock so that open frames reach
	// the wire in id order.
	m.wmu.Lock()
	for len(first) > 0 && m.full(need) && !m.dead.Load() {
		m.room.Wait()
	}
	if m.dead.Load() {
		m.wmu.Unlock()
		return nil, ErrClosed
	}
	m.mu.Lock()
	if m.lastID == math.MaxUint32 {
		m.mu.Unlock()
		m.wmu.Unlock()
		m.shutdown(true) // ids never wrap; the owner dials a fresh trunk
		return nil, ErrClosed
	}
	m.lastID++
	st := m.newStream(m.lastID)
	m.mu.Unlock()
	m.queue(muxOpen, st.id, nil)
	for _, p := range first {
		m.queue(muxData, st.id, p)
	}
	if err := m.flushLocked(); err != nil {
		return nil, err
	}
	return st, nil
}

// newStream registers a stream; the caller holds mu.
func (m *Mux) newStream(id uint32) *Stream {
	st := &Stream{
		m: m, id: id, owed: muxClose,
		inbox: make(chan []byte, muxInboxFrames),
		done:  make(chan struct{}),
	}
	m.streams[id] = st
	m.stats.Streams.Add(1)
	return st
}

// queue adds one frame to pend; the caller holds wmu.
func (m *Mux) queue(kind byte, id uint32, payload []byte) {
	m.pend = append(m.pend, muxFrame{kind: kind, id: id, payload: payload})
	m.pendBytes += muxHeaderLen + len(payload)
}

// send queues data frames for one stream and flushes unless another
// sender already is.
func (m *Mux) send(st *Stream, payloads [][]byte) error {
	need, err := streamBytes(payloads)
	if err != nil {
		return err
	}
	m.wmu.Lock()
	for m.full(need) && !m.dead.Load() && !st.ended() {
		m.room.Wait()
	}
	if m.dead.Load() || st.ended() {
		m.wmu.Unlock()
		return ErrClosed
	}
	for _, p := range payloads {
		m.queue(muxData, st.id, p)
	}
	return m.flushLocked()
}

// full reports whether need more bytes would take pend past
// muxMaxPending; an empty pend takes anything. The caller holds wmu.
func (m *Mux) full(need int) bool { return m.pendBytes > 0 && m.pendBytes+need > muxMaxPending }

// flushLoop is the flusher: it writes out what TrySends queued until
// the trunk ends.
func (m *Mux) flushLoop() {
	defer close(m.flushDone)
	for {
		select {
		case <-m.kick:
			m.wmu.Lock()
			_ = m.flushLocked() // a failed flush has already shut the trunk down
		case <-m.readDone:
			return
		}
	}
}

// streamBytes is the room a run of data frames takes in pend, or
// ErrTooLarge for a payload no stream may carry.
func streamBytes(payloads [][]byte) (int, error) {
	need := 0
	for _, p := range payloads {
		if len(p) > MaxStreamMessage {
			return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(p))
		}
		need += muxHeaderLen + len(p)
	}
	return need, nil
}

// control queues a close or reset frame. It never waits for room: the
// frame is nine bytes and there is at most one per stream.
func (m *Mux) control(kind byte, id uint32) {
	m.wmu.Lock()
	if m.dead.Load() {
		m.wmu.Unlock()
		return
	}
	m.room.Broadcast() // a sender of the closing stream may be waiting for room
	m.queue(kind, id, nil)
	_ = m.flushLocked() // a failed flush has already shut the trunk down
}

// flushLocked is entered with wmu held and releases it. If another
// sender is flushing, the frames just queued ride along with its next
// write and the call returns at once. Otherwise this sender writes until
// pend is empty. Before it takes the queue it yields once: the fan-out
// that woke the flusher is still handing frames in (and any senders
// woken with it are runnable), and letting them queue first is what
// turns sixteen writes into one. Each write gets a new buffer of
// exactly its size, because the connection keeps the one it is handed
// (Conn.Send's contract — the in-memory network delivers that very
// slice).
func (m *Mux) flushLocked() error {
	if m.flushing {
		m.wmu.Unlock()
		return nil
	}
	m.flushing = true
	var err error
	for err == nil && len(m.pend) > 0 {
		m.wmu.Unlock()
		runtime.Gosched()
		m.wmu.Lock()
		frames, size := m.pend, m.pendBytes
		m.pend, m.spare, m.pendBytes = m.spare[:0], nil, 0
		m.room.Broadcast()
		m.wmu.Unlock()
		buf := make([]byte, 0, size)
		for _, f := range frames {
			var h [muxHeaderLen]byte
			h[0] = f.kind
			binary.BigEndian.PutUint32(h[1:], f.id)
			binary.BigEndian.PutUint32(h[5:], uint32(len(f.payload)))
			buf = append(append(buf, h[:]...), f.payload...)
		}
		if err = m.conn.Send(buf); err == nil {
			m.stats.Flushes.Add(1)
			m.stats.Frames.Add(int64(len(frames)))
		}
		clear(frames) // drop the payload references
		m.wmu.Lock()
		m.spare = frames[:0]
	}
	m.flushing = false
	m.wmu.Unlock()
	if err != nil {
		m.shutdown(true)
		return ErrClosed
	}
	return nil
}

// readLoop demultiplexes the trunk until it fails.
func (m *Mux) readLoop() {
	defer close(m.readDone)
	for {
		msg, err := m.conn.Recv()
		if err == nil {
			err = m.demux(msg)
		}
		if err != nil {
			m.shutdown(true)
			return
		}
	}
}

// demux delivers one trunk message's frames. Anything malformed — a
// truncated header, a length past the message, an unknown kind, a
// stream id the opener never announced — is an error that kills the
// trunk; nothing is allocated from a length field.
func (m *Mux) demux(msg []byte) error {
	for len(msg) > 0 {
		if len(msg) < muxHeaderLen {
			return fmt.Errorf("transport: trunk frame header truncated at %d bytes", len(msg))
		}
		kind := msg[0]
		id := binary.BigEndian.Uint32(msg[1:])
		n := binary.BigEndian.Uint32(msg[5:])
		if uint64(n) > uint64(len(msg)-muxHeaderLen) {
			return fmt.Errorf("transport: trunk frame of %d bytes overruns its message", n)
		}
		end := muxHeaderLen + int(n)
		// The payload aliases the message, capped so a consumer's append
		// cannot reach the next frame.
		payload := msg[muxHeaderLen:end:end]
		msg = msg[end:]

		bad := func() error {
			return fmt.Errorf("transport: bad trunk frame (kind %d, stream %d, %d bytes)", kind, id, n)
		}
		m.mu.Lock()
		if m.dead.Load() {
			// Shutdown has swept the streams; registering one now would
			// strand its reader.
			m.mu.Unlock()
			return ErrClosed
		}
		if kind == muxOpen {
			if m.accept == nil || id <= m.lastID || n != 0 {
				m.mu.Unlock()
				return bad()
			}
			m.lastID = id
			st := m.newStream(id)
			m.mu.Unlock()
			m.accept(st)
			continue
		}
		if kind < muxData || kind > muxReset || id == 0 || id > m.lastID || (kind != muxData && n != 0) {
			m.mu.Unlock()
			return bad()
		}
		st, live := m.streams[id]
		switch {
		case !live:
			// A frame for a stream this end already closed: the peer had
			// not heard yet.
		case kind == muxData:
			select {
			case st.inbox <- payload:
			default:
				// The consumer is a whole inbox behind. Reset this stream
				// alone; its owner learns through ErrClosed and its Close
				// tells the peer.
				m.stats.ResetsOverflow.Add(1)
				st.owed = muxReset
				m.unlink(st)
			}
		default: // close or reset from the peer: nothing is owed back
			if kind == muxReset {
				m.stats.ResetsPeer.Add(1)
			}
			st.owed = 0
			m.unlink(st)
		}
		m.mu.Unlock()
	}
	return nil
}

// Trunk is the dialing side's handle on one peer: the trunk connection
// is dialed by the first Open and again by the first Open after it died.
type Trunk struct {
	network Network
	addr    string
	stats   *MuxStats
	onDown  func()

	mu     sync.Mutex // held across the dial, so concurrent opens share one
	mux    *Mux
	closed bool
}

// NewTrunk returns a trunk to addr that is not yet connected. stats and
// onDown are handed to every connection it dials (see DialMux).
func NewTrunk(network Network, addr string, stats *MuxStats, onDown func()) *Trunk {
	return &Trunk{network: network, addr: addr, stats: stats, onDown: onDown}
}

// Open opens a stream to the peer, with first as its first data (see
// Mux.Open). A failed dial is reported as the network reported it
// (wrapping ErrUnknownAddress); a trunk that died under the open reports
// ErrClosed, and the next Open dials afresh. The open itself runs
// outside t.mu: one that waits for room on a stalled trunk must not hold
// up Close, which is what frees it.
func (t *Trunk) Open(first ...[]byte) (Conn, error) {
	m, err := t.live()
	if err != nil {
		return nil, err
	}
	return m.Open(first...)
}

// live returns the trunk's mux, dialing one if there is none or the
// last one died.
func (t *Trunk) live() (*Mux, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if t.mux == nil || t.mux.Dead() {
		conn, err := t.network.Dial(t.addr)
		if err != nil {
			return nil, err
		}
		if t.mux, err = DialMux(conn, t.stats, t.onDown); err != nil {
			return nil, err
		}
	}
	return t.mux, nil
}

// Close closes the connection, if any, and fails every later Open.
func (t *Trunk) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	if t.mux != nil {
		t.mux.Close()
	}
}

// Stream is one logical connection on a trunk.
type Stream struct {
	m     *Mux
	id    uint32
	inbox chan []byte
	done  chan struct{} // closed when the stream ends, whoever ended it
	// owed is the frame kind this end must still send the peer when the
	// stream is closed: close normally, reset after an inbox overflow,
	// none once the peer closed first or the trunk died. Guarded by m.mu.
	owed byte
}

var (
	_ Conn        = (*Stream)(nil)
	_ BatchSender = (*Stream)(nil)
	_ TrySender   = (*Stream)(nil)
)

func (st *Stream) ended() bool {
	select {
	case <-st.done:
		return true
	default:
		return false
	}
}

// Send implements Conn. Like a socket write it reports only failures
// already known: a frame appended behind another sender's flush is lost
// with the trunk if that flush fails, and every stream then ends.
func (st *Stream) Send(payload []byte) error {
	one := [1][]byte{payload}
	return st.m.send(st, one[:])
}

// SendBatch implements BatchSender: the run joins the trunk's pending
// write under one lock acquisition.
func (st *Stream) SendBatch(payloads [][]byte) error { return st.m.send(st, payloads) }

// TrySend implements TrySender: the frame joins the trunk's pending
// write, in order with the stream's Sends, and wakes the trunk's
// flusher unless a flush is running (which then writes it too). It
// reports false, taking nothing, once the stream or trunk has ended,
// for a payload over MaxStreamMessage, or while the pending write has
// no room for it. tail is always false: a frame is queued whole or not
// at all.
func (st *Stream) TrySend(payload []byte) (ok, tail bool) {
	m := st.m
	if len(payload) > MaxStreamMessage {
		return false, false
	}
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if m.dead.Load() || st.ended() || m.full(muxHeaderLen+len(payload)) {
		return false, false
	}
	m.queue(muxData, st.id, payload)
	if !m.flushing {
		select {
		case m.kick <- struct{}{}:
		default: // a wake is already pending
		}
	}
	return true, false
}

// Recv implements Conn: frames still in the inbox when the stream ends
// are delivered before ErrClosed.
func (st *Stream) Recv() ([]byte, error) {
	select {
	case p := <-st.inbox:
		return p, nil
	case <-st.done:
		select {
		case p := <-st.inbox:
			return p, nil
		default:
			return nil, ErrClosed
		}
	}
}

// Close implements Conn: it ends this stream only.
func (st *Stream) Close() error {
	st.m.mu.Lock()
	kind := st.owed
	st.owed = 0
	st.m.unlink(st)
	st.m.mu.Unlock()
	if kind != 0 {
		st.m.control(kind, st.id)
	}
	return nil
}

// LocalAddr implements Conn with the trunk's address.
func (st *Stream) LocalAddr() string { return st.m.conn.LocalAddr() }

// RemoteAddr implements Conn with the trunk's address.
func (st *Stream) RemoteAddr() string { return st.m.conn.RemoteAddr() }
