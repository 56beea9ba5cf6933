// Package dmps is the public facade of this repository: a from-scratch Go
// implementation of the Distributed Multimedia Presentation System of
// Shih, Deng, Liao, Huang and Chang ("Using the Floor Control Mechanism
// in Distributed Multimedia Presentation System", ICDCS 2001 Workshops).
//
// It re-exports the stable surface of the internal packages:
//
//   - the DOCPN presentation model: timelines, Allen-relation solving,
//     OCPN compilation and analysis, distributed simulation with the
//     global-clock firing discipline;
//   - the floor control mechanism as a pluggable policy engine: the
//     paper's four modes (Free Access, Equal Control, Group Discussion,
//     Direct Contact) plus the BFCP-style ModeratedQueue mode (the chair
//     approves queued requests), each a Policy behind FCM-Arbitrate's
//     centralized membership checks, α/β resource thresholds and
//     Media-Suspend; RegisterFloorPolicy admits custom modes;
//   - the live DMPS stack: server, client, groups, whiteboard, status
//     lights, clock synchronization, presentations — over TCP or the
//     in-memory simulated network. Clients observe the session through
//     the event subscription API (Client.Subscribe) as well as the
//     polling accessors.
//
// State reaches clients through a sequenced per-group event log: every
// state broadcast (floor events, suspend/resume, board operations, mode
// switches, invitations) is appended to its group's log and stamped
// with per-class sequence numbers before it is fanned out, so a client
// that took backpressure drops detects the hole and recovers the
// missing suffix with one request (TBackfill) — or a compact snapshot
// when the log can no longer connect it. ServerConfig.LogCap (and
// LabOptions.LogCap) sizes the retained log, default 512 events per
// group; under capacity pressure the log compacts class-wise, keeping
// each class's latest state-bearing restatement plus the recent board
// suffix, so even clients far behind usually converge from a short
// compacted suffix. The setting never affects correctness. The same
// machinery powers Client.Reconnect — a client that lost its
// connection resumes with its session token, keeping its member
// identity, group memberships and subscriptions — and
// Client.SwitchMode, the chair's explicit (optionally pinned)
// floor-mode control.
//
// Delivery is scale-hygienic. Sessions carry a server-side event-class
// mask (ClientConfig.EventClasses / Client.SetEventClasses, widened
// automatically by Client.Subscribe): logged events of unsubscribed
// classes are filtered before they touch the session's queue, so an
// uninterested member costs zero bytes under churn. Queue slots are
// private — every member sees only the queue length and their own
// position, live, in backfills and in snapshots; a queued member's copy
// of each floor event carries its slot, so the release or pass that
// moved the queue is also what tells everyone behind it. Board
// operations are paced instead of ticked: one slot is 3.125 ms, a line
// arriving a slot or more after its group's last one is broadcast
// inline, and only lines inside a slot — a storm — batch. And members gone
// longer than ServerConfig.SessionTTL (default one hour) are reaped —
// token, directory entry, memberships, member log — with a later
// Reconnect failing as ErrSessionExpired.
//
// Quick start (see examples/quickstart for the runnable version):
//
//	lab, _ := dmps.NewLab(dmps.LabOptions{})
//	defer lab.Close()
//	teacher, _ := lab.NewClient("Teacher", "chair", 5)
//	student, _ := lab.NewClient("Student", "participant", 2)
//	_ = teacher.Join("class")
//	_ = student.Join("class")
//	events := student.Subscribe(dmps.FloorEvents)
//	_ = teacher.Chat("class", "welcome to DMPS")
//
// For moderated sessions (see examples/moderated):
//
//	_, _ = student.RequestFloor("class", dmps.ModeratedQueue, "") // queued at 1
//	_, _ = teacher.ApproveFloor("class", student.MemberID())      // floor free → granted
//	ev := <-events // Floor.Event == "granted", Floor.Holder == student
//
// When the floor is busy, approval parks the student as "approved" and
// the next release promotes them (the "released" event's Holder names
// the new floor holder).
package dmps

import (
	"dmps/internal/client"
	"dmps/internal/clock"
	"dmps/internal/cluster"
	"dmps/internal/core"
	"dmps/internal/docpn"
	"dmps/internal/floor"
	"dmps/internal/media"
	"dmps/internal/netsim"
	"dmps/internal/ocpn"
	"dmps/internal/presentation"
	"dmps/internal/protocol"
	"dmps/internal/resource"
	"dmps/internal/server"
	"dmps/internal/transport"
)

// Live-system types.
type (
	// Lab is a fully assembled in-memory DMPS deployment (simulated
	// network + server + clients).
	Lab = core.Lab
	// LabOptions configures NewLab.
	LabOptions = core.Options
	// Client is a connected DMPS participant.
	Client = client.Client
	// ClientConfig configures Dial for standalone (e.g. TCP) use.
	ClientConfig = client.Config
	// Server is a DMPS server; use NewServer for standalone deployments.
	Server = server.Server
	// ServerConfig configures NewServer.
	ServerConfig = server.Config
	// SlowConsumerPolicy selects what happens when a client's bounded
	// outbound queue at the server overflows.
	SlowConsumerPolicy = server.SlowConsumerPolicy
	// SessionStats is one session's backpressure snapshot
	// (Server.SessionStats).
	SessionStats = server.SessionStats
	// SubscriberStats is one client subscription channel's backpressure
	// snapshot (Client.SubscriberStats): local drop-on-full counters,
	// never confused with delivery gaps by the event-log plane.
	SubscriberStats = client.SubscriberStats
	// Backpressure is the wire form of a member's backpressure counters,
	// pushed with the lights table (Client.Backpressure).
	Backpressure = protocol.BackpressureBody
	// Snapshot is the wire form of a group's catch-up state (sent for
	// late joins, explicit replays, and backfills past the log ring).
	Snapshot = protocol.SnapshotBody
	// LinkConfig shapes simulated links (delay, jitter, loss).
	LinkConfig = netsim.LinkConfig
	// TCP is the real-socket transport for standalone deployments.
	TCP = transport.TCP
	// ClusterLab is a fully assembled in-memory multi-process
	// deployment: N group-partition nodes behind one router
	// (StartCluster).
	ClusterLab = core.Cluster
	// ClusterOptions configures StartCluster.
	ClusterOptions = core.ClusterOptions
	// ClusterNodeConfig turns a Server into one group-partition node of
	// a cluster (ServerConfig.Cluster).
	ClusterNodeConfig = server.ClusterConfig
	// Router is the cluster's routing tier: the one address clients
	// dial, proxying each session's traffic to the owning nodes.
	Router = cluster.Router
	// RouterConfig configures NewRouter.
	RouterConfig = cluster.RouterConfig
	// PartitionMap is the shared hash assignment of groups (and member
	// homes) to cluster nodes, with deterministic ring failover.
	PartitionMap = cluster.Map
)

// Slow-consumer policies (ServerConfig.SlowPolicy / LabOptions.SlowPolicy).
const (
	// DropNewest drops the message that does not fit and counts it.
	DropNewest = server.DropNewest
	// Disconnect tears the slow session down on the first overflow.
	Disconnect = server.Disconnect
)

// Floor control types and modes.
type (
	// FloorMode names a floor control discipline (builtin or custom).
	FloorMode = floor.Mode
	// Policy is one pluggable floor-control discipline; implement it and
	// call RegisterFloorPolicy to add a custom mode.
	Policy = floor.Policy
	// FloorState is the per-group bookkeeping a Policy manipulates.
	FloorState = floor.State
	// FloorRequest is one floor request as seen by a Policy.
	FloorRequest = floor.Request
	// Roster is the membership view a Policy consults.
	Roster = floor.Roster
	// Approver is the optional chair-approval seam a Policy may implement
	// (ModeratedQueue does).
	Approver = floor.Approver
	// ModeGate is the optional seam a Policy may implement to restrict
	// switching the group away from its mode (ModeratedQueue gates such
	// switches behind the session chair).
	ModeGate = floor.ModeGate
	// FloorDecision reports an arbitration outcome.
	FloorDecision = floor.Decision
	// Capability is a member's communication-window affordances.
	Capability = floor.Capability
	// Thresholds is the α/β resource threshold pair.
	Thresholds = resource.Thresholds
)

// The paper's four floor control modes, plus the BFCP-style moderated
// queue (chair approves queued requests) and the auto-rotating round
// robin (a release re-enqueues the holder at the tail, so contenders
// take turns without re-requesting).
const (
	FreeAccess      = floor.FreeAccess
	EqualControl    = floor.EqualControl
	GroupDiscussion = floor.GroupDiscussion
	DirectContact   = floor.DirectContact
	ModeratedQueue  = floor.ModeratedQueue
	RoundRobin      = floor.RoundRobin
)

// RegisterFloorPolicy adds a custom floor mode under the given wire name.
var RegisterFloorPolicy = floor.RegisterPolicy

// ParseFloorMode resolves a mode's wire name ("equal-control") or alias
// ("equal") — the shared parser of server, client and tools.
var ParseFloorMode = floor.ParseMode

// Client event subscription (Client.Subscribe).
type (
	// Event is one server-pushed notification.
	Event = client.Event
	// EventKind selects a class of events for Client.Subscribe.
	EventKind = client.EventKind
)

// Subscription event kinds.
const (
	// FloorEvents: grants, denials, queue-position updates, approvals.
	FloorEvents = client.FloorEvents
	// SuspendEvents: Media-Suspend and resume notices.
	SuspendEvents = client.SuspendEvents
	// InviteEvents: sub-group invitations.
	InviteEvents = client.InviteEvents
	// LightEvents: connection-light transitions.
	LightEvents = client.LightEvents
)

// ErrTimeout is returned when the server does not answer a client
// request (or the Dial handshake) within ClientConfig.Timeout.
var ErrTimeout = client.ErrTimeout

// ErrSessionExpired is returned by Client.Reconnect when the server has
// reaped the session (gone longer than ServerConfig.SessionTTL): the
// token no longer resumes anything and a fresh Dial is the way back in.
var ErrSessionExpired = client.ErrSessionExpired

// Event classes for the server-side delivery filter
// (ClientConfig.EventClasses, Client.SetEventClasses): the classes of
// logged state events a session wants pushed. Filtering runs at the
// server, before the session's delivery queue — an unsubscribed class
// costs the client zero bytes, even under churn.
const (
	// ClassFloor: floor events (grants, queueing, releases, queue
	// changes, mode switches).
	ClassFloor = protocol.ClassFloor
	// ClassSuspend: Media-Suspend / resume notices.
	ClassSuspend = protocol.ClassSuspend
	// ClassBoard: whiteboard and message-window operations.
	ClassBoard = protocol.ClassBoard
	// ClassInvite: sub-group invitations.
	ClassInvite = protocol.ClassInvite
	// ClassNone subscribes to no logged class at all.
	ClassNone = protocol.ClassNone
)

// Presentation-model types.
type (
	// MediaObject is one multimedia object with kind, duration and rate.
	MediaObject = media.Object
	// MediaKind classifies media objects.
	MediaKind = media.Kind
	// Timeline is an absolute-time presentation plan.
	Timeline = ocpn.Timeline
	// ScheduledObject is one timeline item.
	ScheduledObject = ocpn.ScheduledObject
	// Spec is an Allen-relation presentation specification.
	Spec = ocpn.Spec
	// Constraint is one Allen relation between two objects.
	Constraint = ocpn.Constraint
	// OCPN is a compiled Object Composition Petri Net.
	OCPN = ocpn.Net
	// Schedule is a derived firing plan with synchronous sets.
	Schedule = ocpn.Schedule
	// SimConfig configures a DOCPN distributed simulation.
	SimConfig = docpn.Config
	// SimSite describes one simulated site (clock offset, drift, sync
	// error, control delay).
	SimSite = docpn.SiteSpec
	// SimResult is a distributed simulation outcome.
	SimResult = docpn.Result
	// Interaction is a user action injected into a simulation.
	Interaction = docpn.Interaction
)

// SkipInteraction jumps the presentation to the next synchronization
// point via the priority arcs.
const SkipInteraction = docpn.Skip

// Media kinds.
const (
	Text       = media.Text
	Image      = media.Image
	Audio      = media.Audio
	Video      = media.Video
	Annotation = media.Annotation
)

// Allen relations.
const (
	Equals   = ocpn.Equals
	Before   = ocpn.Before
	Meets    = ocpn.Meets
	Overlaps = ocpn.Overlaps
	During   = ocpn.During
	Starts   = ocpn.Starts
	Finishes = ocpn.Finishes
)

// Clock-discipline modes for simulations.
const (
	// GlobalClock is the paper's DOCPN discipline.
	GlobalClock = docpn.GlobalClock
	// LocalClock is the OCPN baseline without a global clock.
	LocalClock = docpn.LocalClock
	// NaiveClock schedules against the global timetable using the raw,
	// unsynchronized local clock (the failure mode clock sync repairs).
	NaiveClock = docpn.NaiveClock
)

// NewLab builds and starts an in-memory DMPS deployment.
func NewLab(opts LabOptions) (*Lab, error) { return core.NewLab(opts) }

// StartCluster builds and starts an in-memory multi-process cluster:
// hash-partitioned group nodes behind a routing tier, on the simulated
// network. Production clusters run the same pieces as real processes
// (cmd/dmps-server -cluster, cmd/dmps-router).
func StartCluster(opts ClusterOptions) (*ClusterLab, error) { return core.StartCluster(opts) }

// NewRouter starts a cluster routing tier (pass TCP{} as
// RouterConfig.Network for real sockets).
func NewRouter(cfg RouterConfig) (*Router, error) { return cluster.NewRouter(cfg) }

// NewServer starts a standalone DMPS server (pass TCP{} as
// ServerConfig.Network for real sockets); with ServerConfig.Cluster it
// runs as one group-partition node of a cluster.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// Dial connects a standalone client.
func Dial(cfg ClientConfig) (*Client, error) { return client.Dial(cfg) }

// Solve computes the absolute timeline from an Allen-relation spec.
func Solve(spec Spec) (Timeline, error) { return ocpn.Solve(spec) }

// Compile builds the OCPN for a timeline.
func Compile(tl Timeline) (*OCPN, error) { return ocpn.Compile(tl) }

// Simulate runs a DOCPN distributed simulation.
func Simulate(cfg SimConfig) (*SimResult, error) { return docpn.Run(cfg) }

// SimulateWith runs a DOCPN simulation with user interactions.
func SimulateWith(cfg SimConfig, interactions []Interaction) (*SimResult, error) {
	return docpn.RunWith(cfg, interactions)
}

// PresentationWire converts a timeline into the body broadcast by
// Client.StartPresentation.
var PresentationWire = presentation.ToWire

// PresentationPlayer plays a received presentation under global-clock
// discipline.
type PresentationPlayer = presentation.Player

// PresentationFromWire converts a received presentation body back into a
// timeline and global start instant.
var PresentationFromWire = presentation.FromWire

// WirePresentation is the broadcast form of a presentation start.
type WirePresentation = protocol.PresentBody

// ClockEstimator is a client's global-clock estimator.
type ClockEstimator = clock.Estimator

// PresentationMonitor verifies playout against the schedule at run time.
type PresentationMonitor = presentation.Monitor

// PlayoutViolation is one conformance breach a monitor found.
type PlayoutViolation = presentation.Violation

// NewPresentationMonitor builds a runtime conformance monitor for a
// compiled net, presentation start instant and tolerance.
var NewPresentationMonitor = presentation.NewMonitor
