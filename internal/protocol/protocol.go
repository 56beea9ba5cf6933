// Package protocol defines the DMPS wire protocol: a message envelope
// with typed bodies, carried over the message-framing transport. All
// client↔server traffic — handshake, group administration, floor
// control requests, chat/whiteboard, clock synchronization, status
// probing and presentation control — uses these messages. The envelope
// has one wire form, the binary framing of binary.go
// (EncodeBinary/DecodeBinary): sessions, peer links and the journal all
// carry it. JSON (Encode/Decode) is spoken only by the handshake —
// hello, node_hello, welcome and the typed errors that answer them —
// and doubles as the debug rendering of a binary frame; DecodeAny reads
// either.
package protocol

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"dmps/internal/grouplog"
)

// Type names a message. String values keep captures human-readable.
type Type string

// Message types. Requests flow client→server; events flow server→client;
// Ack/Err answer requests.
const (
	// THello opens a session: client introduces itself (HelloBody).
	THello Type = "hello"
	// TWelcome acknowledges THello (WelcomeBody).
	TWelcome Type = "welcome"
	// TJoin / TLeave manage group membership (GroupBody).
	TJoin  Type = "join"
	TLeave Type = "leave"
	// TCreateGroup creates a group chaired by the sender (GroupBody).
	TCreateGroup Type = "create_group"
	// TFloorRequest asks for the floor (FloorRequestBody); answered by
	// TAck (FloorDecisionBody) or TErr.
	TFloorRequest Type = "floor_request"
	// TFloorRelease gives up the Equal Control floor (GroupBody).
	TFloorRelease Type = "floor_release"
	// TTokenPass passes the Equal Control token (TokenPassBody).
	TTokenPass Type = "token_pass"
	// TFloorApprove lets the session chair clear a queued request in a
	// moderated mode (FloorApproveBody); answered by TAck
	// (FloorDecisionBody) or TErr.
	TFloorApprove Type = "floor_approve"
	// TFloorEvent notifies clients of floor state changes
	// (FloorEventBody).
	TFloorEvent Type = "floor_event"
	// TInvite asks the server to invite a member (InviteBody); TInviteEvent
	// notifies the invitee; TInviteReply answers an invitation.
	TInvite      Type = "invite"
	TInviteEvent Type = "invite_event"
	TInviteReply Type = "invite_reply"
	// TChat posts to the message window (ChatBody); broadcast as TChatEvent
	// (SequencedBody wrapping ChatBody).
	TChat      Type = "chat"
	TChatEvent Type = "chat_event"
	// TAnnotate posts a whiteboard operation (AnnotateBody); broadcast as
	// TAnnotateEvent.
	TAnnotate      Type = "annotate"
	TAnnotateEvent Type = "annotate_event"
	// TReplay asks for board operations after a sequence number
	// (ReplayBody); answered with a TSnapshot carrying the board suffix.
	TReplay Type = "replay"
	// TBackfill asks for the suffix of a group's event log — or, with
	// Group empty, of the sender's own member event log — after a
	// sequence number (BackfillBody). The server re-sends the retained
	// logged events (each stamped with its GSeq) or, when the ring has
	// wrapped past the requested position, one compact TSnapshot.
	TBackfill Type = "backfill"
	// TSnapshot carries a group's authoritative state as of a log
	// sequence number (SnapshotBody): the catch-up payload for late
	// joiners, explicit replays, and backfills past the ring.
	TSnapshot Type = "snapshot"
	// TModeSwitch sets a group's floor mode explicitly, optionally
	// pinning the policy so only the session chair may change it again
	// (ModeSwitchBody); broadcast to the group as a TFloorEvent with
	// Event "mode_switch".
	TModeSwitch Type = "mode_switch"
	// TSubscribe replaces the session's event-class mask
	// (SubscribeBody): logged events of classes outside the mask are
	// filtered server-side, before they reach the session's delivery
	// queue. The mask can also be set at admission via HelloBody.Classes.
	TSubscribe Type = "subscribe"
	// TClockSync requests the global time (ClockSyncBody both ways).
	TClockSync Type = "clock_sync"
	// TStatusProbe and TStatusReport implement the heartbeat that drives
	// the Figure-3 connection lights.
	TStatusProbe  Type = "status_probe"
	TStatusReport Type = "status_report"
	// TLights carries the current connection lights (LightsBody).
	TLights Type = "lights"
	// TSuspend and TResume carry Media-Suspend decisions (SuspendBody).
	TSuspend Type = "suspend"
	TResume  Type = "resume"
	// TPresent starts a synchronized presentation (PresentBody).
	TPresent Type = "present"
	// TMediaUnit streams one media unit (MediaUnitBody). Sent without a
	// Seq it is fire-and-forget (streaming); with a Seq the server
	// acks/denies it.
	TMediaUnit Type = "media_unit"
	// TNodeHello opens a node-scoped session on a cluster node
	// (NodeHelloBody): the routing tier binds an already-admitted member
	// identity to a fresh connection, so a group-partition node can serve
	// a member whose home (directory entry, token, member log) lives on
	// another node. Answered by TWelcome; no session token is issued —
	// tokens belong to the home node.
	TNodeHello Type = "node_hello"
	// TForward carries a typed node-to-node forward (ForwardBody): the
	// inter-node plane for cross-partition state — member-directed
	// invitations routed to the invitee's home node, logged-event
	// replication to the partition's successor, and group-membership
	// replication for takeover. A connection whose first message is a
	// TForward is a peer link, not a client session.
	TForward Type = "forward"
	// TNodeMoved tells a client that one or more of its groups now live
	// on a different node (NodeMovedBody) — the routing tier pushes it
	// when a partition is handed off (a node died or the map was
	// rebalanced). The client converges exactly like a reconnect: one
	// TBackfill per moved group from its last applied sequence numbers.
	TNodeMoved Type = "node_moved"
	// TAck acknowledges a request; TErr reports a failure (ErrBody).
	TAck Type = "ack"
	TErr Type = "err"
	// TBye closes the session gracefully.
	TBye Type = "bye"
)

// AllTypes lists every wire message type, in protocol order. Tools and
// the documentation-completeness test range over it; a new Type constant
// must be added here (the protocol test cross-checks this list against
// the declared constants).
var AllTypes = []Type{
	THello, TWelcome, TJoin, TLeave, TCreateGroup,
	TFloorRequest, TFloorRelease, TTokenPass, TFloorApprove, TFloorEvent,
	TInvite, TInviteEvent, TInviteReply,
	TChat, TChatEvent, TAnnotate, TAnnotateEvent,
	TReplay, TBackfill, TSnapshot, TModeSwitch, TSubscribe,
	TClockSync, TStatusProbe, TStatusReport, TLights,
	TSuspend, TResume, TPresent, TMediaUnit,
	TNodeHello, TForward, TNodeMoved,
	TAck, TErr, TBye,
}

// Event classes partition the logged state stream so the server can
// filter per recipient: a session's class mask (HelloBody.Classes /
// TSubscribe) names the classes it wants pushed, and events of other
// classes are dropped before they reach its delivery queue. Each class
// carries its own dense per-log sequence (Message.CSeq), so filtering
// never punches holes in the sequence a client admits against.
const (
	// ClassFloor: floor events — grants, releases, passes, queueing,
	// approvals, queue changes, mode switches (TFloorEvent).
	ClassFloor = "floor"
	// ClassSuspend: Media-Suspend and resume notices (TSuspend/TResume).
	ClassSuspend = "suspend"
	// ClassBoard: whiteboard and message-window operations
	// (TChatEvent/TAnnotateEvent).
	ClassBoard = "board"
	// ClassInvite: sub-group invitations on the member's private log
	// (TInviteEvent).
	ClassInvite = "invite"
	// ClassNone is the sentinel mask entry for "no logged pushes at
	// all": a mask containing it matches no class.
	ClassNone = "none"
)

// AllClasses lists the event classes of the logged state stream.
var AllClasses = []string{ClassFloor, ClassSuspend, ClassBoard, ClassInvite}

// ClassMask builds the canonical mask for a wire class list — the one
// rule shared by the server's filter and the client's local mirror: nil
// (admit every class) for an empty list, otherwise exactly the named
// classes, with the ClassNone sentinel contributing nothing (so a list
// of just ClassNone admits no class).
func ClassMask(classes []string) map[string]bool {
	if len(classes) == 0 {
		return nil
	}
	m := make(map[string]bool, len(classes))
	for _, c := range classes {
		if c != ClassNone {
			m[c] = true
		}
	}
	return m
}

// ClassOf maps a logged message type to its event class. Types outside
// the logged state stream report ok == false.
func ClassOf(t Type) (class string, ok bool) {
	switch t {
	case TFloorEvent:
		return ClassFloor, true
	case TSuspend, TResume:
		return ClassSuspend, true
	case TChatEvent, TAnnotateEvent:
		return ClassBoard, true
	case TInviteEvent:
		return ClassInvite, true
	default:
		return "", false
	}
}

// TraceSampled is the Message.TraceFlags bit asking every hop to
// record spans for this trace into its flight recorder and stage
// histograms. A trace context without it still propagates (slow-op
// detection keys off the context alone) but hops skip the per-span
// bookkeeping.
const TraceSampled uint8 = 1 << 0

// Sampled reports whether the message carries a sampled trace context:
// hops record named spans only for sampled traces, keeping the
// untraced hot path free of clock reads and allocations.
func (m Message) Sampled() bool {
	return m.TraceID != 0 && m.TraceFlags&TraceSampled != 0
}

// Codec errors.
var (
	// ErrDecode is returned for malformed wire bytes.
	ErrDecode = errors.New("protocol: decode failed")
	// ErrBodyMismatch is returned when a body does not match the type.
	ErrBodyMismatch = errors.New("protocol: body mismatch")
)

// Message is the wire envelope.
type Message struct {
	// Type discriminates the body.
	Type Type `json:"type"`
	// Seq correlates requests and replies (client-assigned, echoed by the
	// server in TAck/TErr).
	Seq int64 `json:"seq,omitempty"`
	// GSeq is the event-log sequence number stamped on logged state
	// broadcasts (floor events, suspend/resume, board operations, mode
	// switches, invitations): 1-based and dense per log at append time
	// (compaction may later retain a gapped subset). 0 on everything
	// unlogged (replies, probes, lights, media, private lines,
	// presentation starts).
	GSeq int64 `json:"gseq,omitempty"`
	// Class is the logged event's class (ClassFloor, ClassSuspend,
	// ClassBoard, ClassInvite) and CSeq its 1-based dense sequence
	// number within (log, class). Clients admit logged events strictly
	// in CSeq order per class: a duplicate is dropped, and a hole proves
	// the server dropped something on this recipient's queue — the
	// trigger for TBackfill. Per-class sequencing is what lets the
	// server filter whole classes per recipient without punching holes
	// in the stream a client admits against.
	Class string `json:"class,omitempty"`
	CSeq  int64  `json:"cseq,omitempty"`
	// State marks a state-bearing event: one that fully restates its
	// class's group state (a floor event carries the mode/holder/queue
	// its transition left, read inside the same append; suspend notices
	// carry the whole suspended set). A client
	// may admit a state-bearing event ACROSS a hole — jumping its class
	// cursor forward — because everything the missed events did to that
	// class's state is restated here. Log compaction relies on the same
	// property: under ring pressure only each class's latest
	// state-bearing event (plus the board suffix) is retained.
	State bool `json:"state,omitempty"`
	// From and To are member IDs ("" when implicit).
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Group scopes the message to a group.
	Group string `json:"group,omitempty"`
	// TraceID, TraceParent and TraceFlags carry the causal tracing
	// context: a nonzero TraceID names the op's trace, TraceParent is
	// the span context the sender was inside when it emitted this frame
	// (0 at the root), and TraceFlags carries TraceSampled. All three
	// are omitted from the wire — JSON omitempty, binary flagTrace —
	// whenever TraceID is zero.
	TraceID     uint64 `json:"trace_id,omitempty"`
	TraceParent uint64 `json:"trace_parent,omitempty"`
	TraceFlags  uint8  `json:"trace_flags,omitempty"`
	// Body is the type-specific payload.
	Body json.RawMessage `json:"body,omitempty"`

	// bodyObj retains the typed body New marshalled, so EncodeBinary
	// can natively encode the hot types without re-parsing Body.
	bodyObj any
	// bodyBin holds the natively-encoded body of a decoded binary frame
	// (Body stays nil for those): Into decodes it directly, Encode
	// materializes the JSON form on demand, and EncodeBinary copies it
	// verbatim.
	bodyBin []byte
}

// HelloBody introduces a client. With Token set it resumes an existing
// session instead of opening a new one: the server re-binds the member
// identity (and any live stale session is displaced), after which the
// client converges through TBackfill without re-joining its groups.
type HelloBody struct {
	Name     string `json:"name"`
	Role     string `json:"role"` // "chair" or "participant"
	Priority int    `json:"priority"`
	Token    string `json:"token,omitempty"`
	// Classes is the session's initial event-class mask: the logged
	// event classes this client wants pushed (nil or empty means all;
	// ClassNone alone means none). TSubscribe replaces it later.
	Classes []string `json:"classes,omitempty"`
	// WireVersion stamps the framing the client speaks once the JSON
	// handshake is over. It must equal the WireVersion constant: a hello
	// stamped otherwise is answered with a CodeWireUnsupported error and
	// the connection is closed.
	WireVersion int `json:"wire_version,omitempty"`
}

// WireVersion is the one wire framing: binary frames with the
// trace-context extension (binary.go). Versions 0 (JSON) and 1 (binary
// without the extension) are no longer spoken.
const WireVersion = 2

// CodeWireUnsupported is the TErr code that answers a hello whose
// WireVersion stamp is not WireVersion.
const CodeWireUnsupported = "wire_unsupported"

// SubscribeBody replaces the session's event-class mask: the server
// stops queuing logged events of classes outside it. Nil or empty means
// every class; a mask containing ClassNone matches none.
type SubscribeBody struct {
	Classes []string `json:"classes,omitempty"`
}

// WelcomeBody acknowledges the handshake.
type WelcomeBody struct {
	MemberID string `json:"member_id"`
	// ServerTimeNanos is the global clock at admission, for a first rough
	// sync.
	ServerTimeNanos int64 `json:"server_time_nanos"`
	// Token is the session-resume credential: presenting it in a later
	// THello reconnects as the same member.
	Token string `json:"token,omitempty"`
	// WireVersion echoes the hello's stamp (always the WireVersion
	// constant).
	WireVersion int `json:"wire_version,omitempty"`
}

// GroupBody names a group.
type GroupBody struct {
	Group string `json:"group"`
}

// FloorRequestBody asks for a floor mode.
type FloorRequestBody struct {
	Mode   string `json:"mode"`             // floor.Mode string form
	Target string `json:"target,omitempty"` // direct-contact peer
}

// FloorDecisionBody reports an arbitration outcome.
type FloorDecisionBody struct {
	Granted       bool     `json:"granted"`
	Mode          string   `json:"mode"`
	Holder        string   `json:"holder,omitempty"`
	QueuePosition int      `json:"queue_position,omitempty"`
	Suspended     []string `json:"suspended,omitempty"`
	Level         string   `json:"level,omitempty"`
	Target        string   `json:"target,omitempty"`
	Reason        string   `json:"reason,omitempty"`
}

// TokenPassBody passes the token.
type TokenPassBody struct {
	To string `json:"to"`
}

// FloorApproveBody clears a queued member (chair → server).
type FloorApproveBody struct {
	Member string `json:"member"`
}

// FloorEventBody announces floor changes to a group.
type FloorEventBody struct {
	Mode   string `json:"mode"`
	Holder string `json:"holder,omitempty"`
	Member string `json:"member,omitempty"` // subject of the change
	// Event is the transition kind: "granted", "denied", "released",
	// "passed", "queued", "approved", "queue_position", "mode_switch"
	// (the group's floor mode changed; Mode is the new mode), or "queue"
	// (the pending queue changed with no other transition — a queued
	// member was reaped; Member names them).
	Event string `json:"event"`
	// QueuePosition is the recipient's own 1-based queue slot; 0 means
	// not queued. Queue slots are private: the logged (and backfilled)
	// form of every floor event carries 0, and the server personalizes
	// each queued member's copy of every state-bearing floor event —
	// nobody learns another member's position, only the public queue
	// length.
	QueuePosition int `json:"queue_position,omitempty"`
	// QueueLen is the pending queue's length — the only queue shape
	// everyone sees.
	QueueLen int `json:"queue_len,omitempty"`
}

// InviteBody requests an invitation.
type InviteBody struct {
	Group string `json:"group"`
	To    string `json:"to"`
}

// InviteEventBody notifies the invitee.
type InviteEventBody struct {
	InviteID int64  `json:"invite_id"`
	Group    string `json:"group"`
	From     string `json:"from"`
}

// InviteReplyBody answers an invitation.
type InviteReplyBody struct {
	InviteID int64 `json:"invite_id"`
	Accept   bool  `json:"accept"`
}

// ChatBody posts a message-window line.
type ChatBody struct {
	Text string `json:"text"`
}

// AnnotateBody posts a whiteboard operation.
type AnnotateBody struct {
	Kind string `json:"kind"` // "draw", "text", "clear"
	Data string `json:"data"`
}

// SequencedBody wraps a broadcast board operation with its server
// sequence number. Under annotation storms the server coalesces
// operations into one logged event, whoever wrote them: the first
// operation rides the top-level fields and the rest follow in More, in
// board order, each with its own Author — one ring slot, one class
// sequence number and one fan-out for the whole burst. Recipients apply
// the top-level operation and then each entry of More exactly as if
// they had arrived singly.
type SequencedBody struct {
	Seq    int64  `json:"seq"`
	Author string `json:"author"`
	Kind   string `json:"kind"`
	Data   string `json:"data"`
	// More carries the rest of a coalesced burst (nil on singletons and
	// on private direct-contact lines, which never batch).
	More []SequencedBody `json:"more,omitempty"`
}

// ReplayBody requests board operations after a sequence number.
type ReplayBody struct {
	After int64 `json:"after"`
}

// BackfillBody asks for the suffix of an event log. Group names a group
// log; an empty Group means the sender's own member event log
// (invitations). Afters carries, per event class, the highest CSeq the
// sender has applied for that log; the server replays the retained
// events of the sender's subscribed classes past those positions, or
// falls back to one TSnapshot when a needed class no longer connects
// (its suffix was compacted away without a state-bearing entry to
// converge from). BoardSeq is the sender's whiteboard replica's highest
// operation, so a snapshot fallback carries only the missing board
// suffix.
type BackfillBody struct {
	Group    string           `json:"group,omitempty"`
	Afters   map[string]int64 `json:"afters,omitempty"`
	BoardSeq int64            `json:"board_seq,omitempty"`
}

// ModeSwitchBody sets a group's floor mode. Pin (session chair only)
// pins the group's policy: afterwards only the chair may switch modes —
// by TModeSwitch or by requesting a different mode's floor — until a
// later chair switch clears the pin.
type ModeSwitchBody struct {
	Mode string `json:"mode"`
	Pin  bool   `json:"pin,omitempty"`
}

// SnapshotBody is a group's authoritative state as of the event-log
// position in ClassSeqs — the compact catch-up a client applies when
// the log suffix it needs has been compacted away (or when it joins
// late). Queue slots stay private even here: the snapshot is built per
// recipient and carries only their own slot (QueuePos) next to the
// public QueueLen. For a member event log (Message.Group empty) only
// Seq, ClassSeqs and Invites are set.
type SnapshotBody struct {
	// Seq is the log's overall head (highest GSeq) at snapshot time;
	// ClassSeqs carries the per-class head CSeqs the recipient's class
	// cursors advance to.
	Seq       int64            `json:"seq"`
	ClassSeqs map[string]int64 `json:"class_seqs,omitempty"`
	Mode      string           `json:"mode,omitempty"`
	Holder    string           `json:"holder,omitempty"`
	QueuePos  int              `json:"queue_pos,omitempty"`
	QueueLen  int              `json:"queue_len,omitempty"`
	Suspended []string         `json:"suspended,omitempty"`
	Level     string           `json:"level,omitempty"`
	Pinned    bool             `json:"pinned,omitempty"`
	// Board is the whiteboard suffix after the requester's reported
	// BoardSeq (the whole board for a late joiner).
	Board   []SequencedBody   `json:"board,omitempty"`
	Invites []InviteEventBody `json:"invites,omitempty"`
}

// ClockSyncBody carries one Cristian exchange. The client fills
// ClientSendNanos; the server echoes it and fills MasterNanos.
type ClockSyncBody struct {
	ClientSendNanos int64 `json:"client_send_nanos"`
	MasterNanos     int64 `json:"master_nanos,omitempty"`
}

// BackpressureBody is one member's outbound-queue snapshot at the
// server: how deep their delivery queue is and how many messages the
// slow-consumer policy has dropped.
type BackpressureBody struct {
	QueueDepth int   `json:"queue_depth"`
	QueueCap   int   `json:"queue_cap"`
	Drops      int64 `json:"drops,omitempty"`
}

// LightsBody reports connection lights: member → "green"/"red", plus
// each member's backpressure counters (the teacher's window can show a
// lagging student next to a disconnected one). Heads is the event-log
// digest — log key (group ID, or "~member" for the recipient's own
// invitation log) → event class → head CSeq — that lets a client
// notice it is behind even on a quiet group: a head beyond its last
// applied CSeq for that class means a logged event was dropped on its
// queue, and it asks TBackfill. The digest is filtered to the
// recipient's joined groups, own member log and subscribed classes
// (event logs are group-private, like boards), and the whole lights
// push is skipped for a session when nothing in it changed since the
// last copy that session accepted.
type LightsBody struct {
	Lights       map[string]string           `json:"lights"`
	Backpressure map[string]BackpressureBody `json:"backpressure,omitempty"`
	Heads        map[string]map[string]int64 `json:"heads,omitempty"`
	// Origin identifies the shard this push covers: in a cluster each
	// node pushes the lights of exactly the members it homes, stamped
	// with its node index, and the client keeps one table per origin —
	// so a member's disappearance from their home node's next push
	// prunes them, while other nodes' entries are untouched. Empty on a
	// standalone server (whose push is the whole table).
	Origin string `json:"origin,omitempty"`
}

// SuspendBody names a suspended/resumed member. Suspended restates the
// group's whole suspended set as of the event (making every suspend
// notice state-bearing): a recipient that missed earlier transitions
// reconciles its believed set from it, both directions.
type SuspendBody struct {
	Member    string   `json:"member"`
	Level     string   `json:"level,omitempty"`
	Suspended []string `json:"suspended,omitempty"`
}

// MediaUnitBody is one streamed media unit (a video frame, an audio
// packet) — the wire form of media.Unit.
type MediaUnitBody struct {
	Object         string `json:"object"`
	Kind           string `json:"kind"`
	Seq            int    `json:"seq"`
	MediaTimeNanos int64  `json:"media_time_nanos"`
	Bytes          int    `json:"bytes"`
}

// PresentObject describes one timeline item of a presentation start.
type PresentObject struct {
	ID            string  `json:"id"`
	Kind          string  `json:"kind"`
	StartNanos    int64   `json:"start_nanos"`
	DurationNanos int64   `json:"duration_nanos"`
	Rate          float64 `json:"rate,omitempty"`
}

// PresentBody starts a synchronized presentation at a global instant.
type PresentBody struct {
	// StartGlobalNanos is the global-clock instant of presentation t=0.
	StartGlobalNanos int64           `json:"start_global_nanos"`
	Objects          []PresentObject `json:"objects"`
}

// ErrBody reports a request failure.
type ErrBody struct {
	Code   string `json:"code"`
	Detail string `json:"detail,omitempty"`
}

// CodeNodeMoved is the TErr code a cluster node answers with when asked
// to serve a group (or admit a member) it does not own: Detail carries
// the owning node's address, and a redirect-aware caller — the routing
// tier, or a directly-dialing client during its handshake — follows it.
const CodeNodeMoved = "node_moved"

// NodeHelloBody opens a node-scoped session: the routing tier presents
// an already-admitted member identity (assigned by the member's home
// node) and the node binds it to this connection without re-admission —
// same member ID on every node the session touches. Classes is the
// session's event-class mask, as in HelloBody.
type NodeHelloBody struct {
	MemberID string   `json:"member_id"`
	Name     string   `json:"name"`
	Role     string   `json:"role"`
	Priority int      `json:"priority"`
	Classes  []string `json:"classes,omitempty"`
	// WireVersion is the same stamp HelloBody carries (the router relays
	// frames verbatim, so the node speaks to the client directly).
	WireVersion int `json:"wire_version,omitempty"`
}

// NodeMemberInfo is one member record riding a node-to-node forward —
// the directory row a receiving node upserts before it can serve the
// member (shadow registration).
type NodeMemberInfo struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Role     string `json:"role"`
	Priority int    `json:"priority"`
}

// Forward kinds: the typed node-to-node messages of the cluster plane.
const (
	// ForwardInvite delivers a member-directed state event (an
	// invitation) to the member's home node, which appends it to their
	// private event log and pushes it to their session.
	ForwardInvite = "invite"
	// ForwardReplica ships one change of a partition the sender serves
	// to its replica peers for takeover, as the journal record it was
	// journalled as: a logged event or directory entry, a partition
	// package, or a member's expiry. Each names the key's GSeq it is at.
	ForwardReplica = "replica"
	// ForwardAck answers every replica forward: the receiver names the
	// record's key (Group) and its head there, the highest GSeq it holds
	// with none missing below. A head below the forward's GSeq is a
	// refusal: the sender repairs the key with a package of its whole
	// state. The migration barrier is acked by its ID alone.
	ForwardAck = "ack"
	// ForwardMigrate asks a node to ship every partition it adopted from
	// the recovering node (Node/Addr) back to it — the coordinated
	// live-migration step of an epoch bump. The node answers on the same
	// connection with ForwardMigrated once every takeover package has
	// been shipped and the adopted state dropped.
	ForwardMigrate = "migrate"
	// ForwardMigrated is the reply to ForwardMigrate: Groups lists the
	// log keys (group IDs and "~member" keys) that were shipped back.
	ForwardMigrated = "migrated"
	// ForwardTakeover installs a complete partition package — roster,
	// floor snapshot, retained log events, board head — on the receiving
	// node, as a package record whose package is stamped with the epoch
	// of the migration that shipped it. The receiver installs it into
	// live state when it owns the key natively, and into its replica
	// store otherwise; packages from a stale epoch are discarded.
	ForwardTakeover = "takeover"
)

// ReplicaEventBody is one retained log event riding a takeover package:
// the stamped wire bytes plus the sequence coordinates needed to
// re-install them with AppendRaw, preserving GSeq/CSeq exactly. Wire is
// the binary frame (base64 inside the package's JSON).
type ReplicaEventBody struct {
	GSeq  int64  `json:"gseq"`
	CSeq  int64  `json:"cseq"`
	Class string `json:"class,omitempty"`
	State bool   `json:"state,omitempty"`
	Wire  []byte `json:"wire,omitempty"`
}

// TakeoverBody is the partition package: the one form a partition key's
// state takes wherever it moves — WAL checkpoint and replay, a replica
// store's standby copy, failover adoption, epoch migration. A group key
// carries its roster and chair, the floor snapshot, the board head and
// the retained log suffix; a "~member" key carries the member's row,
// their resume token and their member log's events. GSeq is the head of
// the key's log the package covers: it rides in the record's own GSeq,
// and a replica store takes no package that covers less than it holds.
// A package may be partial: a replayed journal event or directory entry
// is a package of that one event (and, for a directory entry, the
// directory part it states). Epoch stamps a migration's package; a
// receiver discards packages older than the newest epoch it has
// installed for the key. Floor is a floor.Snapshot's encoding, opaque
// here (base64 inside the package's JSON).
type TakeoverBody struct {
	Key       string             `json:"key"`
	GSeq      int64              `json:"-"`
	Epoch     int64              `json:"epoch"`
	Chair     string             `json:"chair,omitempty"`
	Members   []NodeMemberInfo   `json:"members,omitempty"`
	Floor     []byte             `json:"floor,omitempty"`
	Events    []ReplicaEventBody `json:"events,omitempty"`
	BoardHead int64              `json:"board_head,omitempty"`
	Member    *NodeMemberInfo    `json:"member,omitempty"`
	Token     string             `json:"token,omitempty"`
}

// PackageRecord is a package as a journal record: its JSON, keyed by
// the package's key, at the GSeq it covers.
func PackageRecord(p TakeoverBody) (grouplog.WALRecord, error) {
	data, err := json.Marshal(p)
	return grouplog.WALRecord{Kind: grouplog.WALPackage, Key: p.Key, GSeq: p.GSeq, Data: data}, err
}

// DirectoryEntry is a key's directory part (p's chair and roster, or
// member row and token) as the record of a directory entry at gseq and
// cseq in the key's log: its JSON is the entry's bytes.
func DirectoryEntry(p TakeoverBody, gseq, cseq int64) (grouplog.WALRecord, error) {
	wire, err := json.Marshal(p)
	return grouplog.WALRecord{
		Kind: grouplog.WALEvent, Key: p.Key, GSeq: gseq, CSeq: cseq, Class: grouplog.ClassDirectory, State: true, Wire: wire,
	}, err
}

// PackageOf reads an event or package record back as the package it
// restates (an event record as a one-event package, a directory entry's
// with the directory part its bytes state): PackageRecord's inverse, and
// the one reader of a package record or directory entry — journal
// replay, a replica store and a migration's takeover all read through
// it.
func PackageOf(rec grouplog.WALRecord) (p TakeoverBody, err error) {
	switch rec.Kind {
	case grouplog.WALEvent:
		if rec.Class == grouplog.ClassDirectory {
			err = json.Unmarshal(rec.Wire, &p)
		}
		p.Key, p.Floor = rec.Key, rec.Data
		p.Events = []ReplicaEventBody{{GSeq: rec.GSeq, CSeq: rec.CSeq, Class: rec.Class, State: rec.State, Wire: rec.Wire}}
	case grouplog.WALPackage:
		err = json.Unmarshal(rec.Data, &p)
	default:
		return p, fmt.Errorf("protocol: record of kind %d is no package", rec.Kind)
	}
	if err == nil && p.Key == "" {
		err = fmt.Errorf("protocol: kind %d record without a key", rec.Kind)
	}
	p.GSeq = rec.GSeq
	return p, err
}

// ForwardBody is a typed node-to-node forward. Kind selects the shape:
// ForwardInvite carries To (the member) and Msg (the inner event);
// ForwardReplica carries Record and From — the receiver acks to
// From; ForwardTakeover carries Record (a package record); ForwardAck
// carries ID, From, the key (Group) and Head; ForwardMigrate carries
// Node, Addr and Epoch; ForwardMigrated carries Groups. On the wire a forward is an
// ordinary binary frame: the replica, takeover and ack kinds have a
// native body (binary.go) in which the record rides in the journal's
// own encoding, the rest ride as this struct's JSON inside the frame.
type ForwardBody struct {
	Kind string `json:"kind"`
	// Group and Msg alone, with Record unset, make a replica forward of
	// a bare event record (key and stamped frame). An ack's Group is the
	// key it answers for, and Head the receiver's head there.
	Group string `json:"group,omitempty"`
	Head  int64  `json:"head,omitempty"`
	To    string `json:"to,omitempty"`
	// Msg is the inner binary frame (base64 where the body rides as
	// JSON: invite).
	Msg []byte `json:"msg,omitempty"`
	// ID names the migration barrier (0 on every replica forward); From
	// is the sender's peer address the ack is sent back to.
	ID   int64  `json:"id,omitempty"`
	From string `json:"from,omitempty"`
	// Epoch stamps migration-coordination forwards with the partition-map
	// epoch they belong to.
	Epoch int64 `json:"epoch,omitempty"`
	// Node and Addr identify the recovering node of a ForwardMigrate;
	// Groups lists the shipped keys of a ForwardMigrated reply.
	Node   int      `json:"node,omitempty"`
	Addr   string   `json:"addr,omitempty"`
	Groups []string `json:"groups,omitempty"`
	// Record is a replica or takeover forward's journal record, carried
	// only in the native body (a decoded one aliases the frame).
	Record grouplog.WALRecord `json:"-"`
}

// SetMsg stores the inner frame's wire bytes.
func (b *ForwardBody) SetMsg(wire []byte) { b.Msg = wire }

// NodeMovedBody names the groups whose partition moved to another node.
// Addr is the new owner (informational — a routed client keeps talking
// to the router, which already follows the rebalanced map). The client
// treats each moved group like a reconnect: one TBackfill from its last
// applied sequence numbers converges floor, suspensions and board.
// Origin, when set, is the dead node's lights shard (LightsBody.Origin
// form): that node homes members whose lights it alone reported, so the
// client flips that shard's entries red — the shard will push no more.
type NodeMovedBody struct {
	Groups []string `json:"groups,omitempty"`
	Addr   string   `json:"addr,omitempty"`
	Origin string   `json:"origin,omitempty"`
	// Epoch is the partition-map epoch the move belongs to, when the
	// push came from an epoch-versioned migration (0 on a plain
	// failover push). A client needs no epoch bookkeeping — backfill
	// converges either way — but tooling can order moves by it.
	Epoch int64 `json:"epoch,omitempty"`
}

// RequestGroup extracts the group a client request scopes to — the one
// rule the cluster's routing tier and a node's ownership gate share,
// so a request can never be routed by one key and gated by another.
// Most requests carry the group in the envelope; group administration
// scopes in the body, and a backfill names its log there (empty = the
// sender's member log, which is home-node state, not a group key).
func RequestGroup(m Message) string {
	if m.Group != "" {
		return m.Group
	}
	switch m.Type {
	case TJoin, TLeave, TCreateGroup:
		var body GroupBody
		if m.Into(&body) == nil {
			return body.Group
		}
	case TInvite:
		var body InviteBody
		if m.Into(&body) == nil {
			return body.Group
		}
	case TBackfill:
		var body BackfillBody
		if m.Into(&body) == nil {
			return body.Group
		}
	}
	return ""
}

// New builds a message with a marshalled body. A nil body leaves
// Message.Body empty. The typed body is retained alongside its JSON so
// a later EncodeBinary can natively encode the hot types without
// re-parsing.
func New(t Type, body any) (Message, error) {
	msg := Message{Type: t}
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return Message{}, fmt.Errorf("protocol: marshal %s body: %w", t, err)
		}
		msg.Body = raw
		msg.bodyObj = body
	}
	return msg, nil
}

// MustNew is New for bodies that cannot fail to marshal (all body types
// in this package); it panics otherwise, which indicates a programming
// error, not input data.
func MustNew(t Type, body any) Message {
	m, err := New(t, body)
	if err != nil {
		panic(err)
	}
	return m
}

// encodes counts Encode calls process-wide; the broadcast benchmarks read
// it to prove the encode-once fan-out invariant (one Encode per broadcast
// regardless of group size).
var encodes atomic.Int64

// EncodeCount returns the number of Encode calls since process start.
func EncodeCount() int64 { return encodes.Load() }

// Encode serializes a message as JSON: the handshake's framing, and the
// debug rendering of a decoded binary frame, whose natively-encoded
// body has its JSON form materialized here.
func Encode(m Message) ([]byte, error) {
	encodes.Add(1)
	if len(m.Body) == 0 && m.bodyBin != nil {
		raw, err := jsonBody(m.Type, m.bodyBin)
		if err != nil {
			return nil, fmt.Errorf("protocol: encode: %w", err)
		}
		m.Body = raw
	}
	out, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("protocol: encode: %w", err)
	}
	return out, nil
}

// Decode parses wire bytes into a message.
func Decode(data []byte) (Message, error) {
	var m Message
	if err := json.Unmarshal(data, &m); err != nil {
		return Message{}, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	if m.Type == "" {
		return Message{}, fmt.Errorf("%w: missing type", ErrDecode)
	}
	return m, nil
}

// Into unmarshals the message body into out. A natively-encoded binary
// body decodes directly (out must be a pointer to the type's body
// struct, the same contract the JSON path enforces by shape).
func (m Message) Into(out any) error {
	if len(m.Body) == 0 {
		if m.bodyBin != nil {
			return intoNative(m.Type, m.bodyBin, out)
		}
		return fmt.Errorf("%w: %s has no body", ErrBodyMismatch, m.Type)
	}
	if err := json.Unmarshal(m.Body, out); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBodyMismatch, m.Type, err)
	}
	return nil
}

// Nanos converts a time to the wire representation.
func Nanos(t time.Time) int64 { return t.UnixNano() }

// FromNanos converts the wire representation back to a time.
func FromNanos(n int64) time.Time { return time.Unix(0, n) }
