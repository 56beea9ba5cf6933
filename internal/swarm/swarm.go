// Package swarm is the fleet load harness: an open-loop generator that
// drives scripted workload mixes against a running DMPS deployment and
// measures the latencies the paper's floor-control loop promises to
// keep small — how long a member waits for a floor grant, and how long
// a posted event takes to reach every listener.
//
// Open-loop means arrival-rate driven: every operation fires at its
// pre-computed Poisson offset in its own goroutine, regardless of how
// long earlier operations are taking. A system that slows down under
// load therefore accumulates in-flight work and its tail latencies
// blow up in the report — exactly the signal a closed-loop generator
// (which politely waits for each response before sending the next
// request) would hide.
//
// Five mixes script the scenarios the system is built for:
//
//   - lecture: one holder chats to N listeners — steady fan-out;
//     measures event propagation plus periodic release/re-acquire
//     grant cycles.
//   - flash-crowd: members dial in at Poisson offsets and immediately
//     contend for a round-robin floor — join-storm admission plus
//     grant rotation under contention.
//   - moderated-churn: a moderated queue whose chair auto-approves;
//     members churn through request → approve → grant → release.
//   - reconnect-storm: established members drop and resume their
//     sessions at Poisson offsets (optionally after a node kill);
//     measures time back to service and post-resume propagation.
//   - chaos: the durability drill — a chair holds the floor and chats
//     while the Chaos hooks fell the group's owner node mid-flow
//     (and, at replication factor ≥ 3, its first successor too), then
//     optionally restart it for the WAL-replay leg. Operations ride
//     out the failover with bounded reconnect retries, so a clean
//     convergence reports zero errors and lost state fails loudly.
//
// The same engine drives a netsim lab (tests, determinism) and a real
// TCP cluster (cmd/dmps-swarm) through the Dialer seam.
package swarm

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmps/internal/client"
	"dmps/internal/floor"
	"dmps/internal/metrics"
	"dmps/internal/protocol"
	"dmps/internal/workload"
)

// Dialer connects one swarm member to the system under test. The swarm
// fills the identity fields (Name, Role, Priority) and its measurement
// tap (OnEvent); the dialer overlays transport — Network and Addr for
// a TCP router, a lab's simulated network for tests — and dials.
// Dial errors are counted as mix errors, not fatal: a swarm keeps
// going when one member cannot get in.
type Dialer func(cfg client.Config) (*client.Client, error)

// Options configure a swarm run.
type Options struct {
	// Dial connects members (required).
	Dial Dialer
	// Seed feeds the Poisson arrival schedule; same seed, same offsets.
	Seed int64
	// Members is the listener/contender pool size per mix (default 8).
	Members int
	// Ops is the number of scheduled operations per mix (default 50).
	Ops int
	// Mean is the mean inter-arrival gap between operations — the
	// open-loop rate knob (default 10ms ≈ 100 ops/s).
	Mean time.Duration
	// Settle bounds how long a mix waits after its last scheduled
	// operation for in-flight grants and propagations to land
	// (default 2s).
	Settle time.Duration
	// Kill, when set, is invoked once at the start of the
	// reconnect-storm mix — the node-failure injection hook
	// (e.g. Cluster.KillNode).
	Kill func()
	// Chaos arms the chaos mix's failure injections. Nil (or a nil
	// KillOwner) runs the mix as steady load with no injection — what
	// a deployment the harness cannot reach into gets.
	Chaos *Chaos
	// NodeFor maps a group ID to the cluster node that owns it, for
	// per-node throughput attribution in the report. Nil means a
	// single-node deployment: everything lands on "server".
	NodeFor func(group string) string

	// Shards and Shard split one seeded schedule across N generator
	// processes: every process derives the identical global op sequence
	// from the same seed, and this process fires only the ops whose
	// global index ≡ Shard (mod Shards), driving its own disjoint
	// member range (global member index ≡ Shard mod Shards). Mixes that
	// need a chair (lecture, moderated-churn, chaos) run one chair and
	// group per shard; the chairless mixes (flash-crowd,
	// reconnect-storm) share one group across the whole fleet, so the
	// merged invariant check spans processes. Shards ≤ 1 means the
	// classic single-process run. Ops and the schedule are GLOBAL: a
	// 4-shard run of 200 ops fires 200 ops fleet-wide, ~50 per process.
	// Members stays per-shard: the fleet is Shards × Members strong.
	Shards int
	Shard  int
	// Prealloc dials each mix's whole fleet before its schedule starts,
	// so the schedule measures the server rather than the generator's
	// own dial churn. The one mix whose POINT is arrival — flash-crowd
	// — pre-dials its members but still joins them on schedule: the
	// join storm stays a scenario while the dial storm stops being an
	// accident.
	Prealloc bool
	// Barrier, when set, runs after a mix's fleet is in place and
	// before its schedule's t0 — the multi-process start gate. Shards
	// block here until the coordinator releases them (cmd/dmps-swarm
	// implements this as a ready-file/barrier-file handshake), so every
	// process's t0 lands together and the merged timeline is one
	// schedule, not N staggered ones. An error aborts the mix.
	Barrier func(mix string) error
	// Soak, when > 0, overrides Ops: each mix holds the offered rate
	// (one op per Mean) for the whole duration — the long-soak mode.
	// Pair it with a Scraper so the report correlates SLOs with the
	// servers' own gauges over the same window.
	Soak time.Duration
	// Trace stamps a sampled trace context on every request the swarm's
	// members send, so the fleet's tracing planes record per-stage spans
	// for the run's operations. Collect the resulting flight recorders
	// with CollectStages and fold them into the report with
	// AddStageBreakdown.
	Trace bool
}

// fleetSize is the global member pool across every shard.
func (o Options) fleetSize() int { return o.Shards * o.Members }

// memberName returns the globally unique name for a shard-scoped
// singleton role (a mix's chair). Single-process runs keep the classic
// name; sharded runs suffix the shard so two processes never collide in
// the fleet-wide member directory.
func (o Options) memberName(role string) string {
	if o.Shards <= 1 {
		return role
	}
	return fmt.Sprintf("%s-s%d", role, o.Shard)
}

// shardSlots returns this shard's slice of the mix's global schedule.
func (o Options) shardSlots(seed int64, ops int) []workload.Slot {
	return workload.ShardArrivals(seed, ops, o.Mean, o.Shards, o.Shard)
}

// syncStart runs the multi-process start barrier, if armed.
func (o Options) syncStart(mix string) error {
	if o.Barrier == nil {
		return nil
	}
	return o.Barrier(mix)
}

// Chaos configures the chaos mix's failure injections. Every hook
// receives the mix's group ID so the injector can target the node that
// owns it (e.g. via cluster.Map.Owner). Hooks run one at a time, with
// client load held off until the post-kill recovery completes, so the
// mix measures convergence rather than raced requests.
type Chaos struct {
	// KillOwner fells the node owning the group — the mid-flow
	// owner-kill drill. Required for any injection to happen.
	KillOwner func(group string)
	// KillSuccessor, when set, fells the group's first live ring
	// successor immediately after the owner — the double-failure
	// drill, survivable only at replication factor ≥ 3.
	KillSuccessor func(group string)
	// Restart, when set, brings the felled node(s) back later in the
	// mix (e.g. Cluster.RestartNode + Router.Recover): the WAL-replay
	// and live-migration leg. Load keeps flowing across the epoch bump.
	Restart func(group string)
}

// Mixes lists the scripted workload mixes in canonical run order.
var Mixes = []string{"lecture", "flash-crowd", "moderated-churn", "reconnect-storm", "chaos"}

// MixResult is one mix's measured outcome. Grant holds floor-grant (or
// time-back-to-service, for reconnects) latencies in seconds; Prop
// holds event-propagation latencies in seconds. Ops and Errors are
// this process's share of the global schedule; Floor carries the floor
// transitions the shard's members observed (deduplicated per group and
// log sequence) and FloorConflicts any in-run disagreements between
// members about what a given log position said — the invariant
// checker's raw material.
type MixResult struct {
	Mix            string
	Group          string
	Ops            int
	Errors         int
	Wall           time.Duration
	Grant          *metrics.Histogram
	Prop           *metrics.Histogram
	Floor          []FloorEvent
	FloorConflicts []string
}

// chairMix reports whether a mix runs a single chair, and therefore
// gets a group (and chair) per shard in a sharded run; the chairless
// mixes share one group fleet-wide so contention and the invariant
// check genuinely cross process boundaries.
func chairMix(mix string) bool {
	switch mix {
	case "lecture", "moderated-churn", "chaos":
		return true
	}
	return false
}

// mixGroup names the group a mix runs in — one group per mix, so a
// partitioned cluster spreads the mixes across nodes. The run seed is
// part of the name: against a long-lived deployment, a re-run with a
// fresh seed gets fresh groups (and a fresh chair) instead of
// inheriting the previous run's. Sharded runs of a chair mix get a
// group per shard (two processes cannot share one chair's floor);
// chairless mixes keep one group across every shard.
func mixGroup(mix string, seed int64, shards, shard int) string {
	base := fmt.Sprintf("swarm-%s-%d", mix, seed)
	if shards > 1 && chairMix(mix) {
		return fmt.Sprintf("%s-s%d", base, shard)
	}
	return base
}

// Run executes the named mixes in order and returns their results.
// Unknown mix names are an error before anything dials.
func Run(opts Options, mixes ...string) ([]MixResult, error) {
	if opts.Dial == nil {
		return nil, fmt.Errorf("swarm: Options.Dial is required")
	}
	if opts.Members <= 0 {
		opts.Members = 8
	}
	if opts.Ops <= 0 {
		opts.Ops = 50
	}
	if opts.Mean <= 0 {
		opts.Mean = 10 * time.Millisecond
	}
	if opts.Settle <= 0 {
		opts.Settle = 2 * time.Second
	}
	if opts.Shards <= 1 {
		opts.Shards, opts.Shard = 1, 0
	}
	if opts.Shard < 0 || opts.Shard >= opts.Shards {
		return nil, fmt.Errorf("swarm: shard %d outside [0, %d)", opts.Shard, opts.Shards)
	}
	if opts.Soak > 0 {
		// Long-soak mode: hold the offered rate for the duration. Ops
		// derives from the window so the schedule spans exactly Soak.
		opts.Ops = int(opts.Soak / opts.Mean)
		if opts.Ops < 1 {
			opts.Ops = 1
		}
	}
	if len(mixes) == 0 {
		mixes = Mixes
	}
	for _, m := range mixes {
		if !knownMix(m) {
			return nil, fmt.Errorf("swarm: unknown mix %q (have %s)", m, strings.Join(Mixes, ", "))
		}
	}
	var out []MixResult
	for i, m := range mixes {
		r, err := runMix(opts, m, opts.Seed+int64(i)*7919)
		if err != nil {
			return out, fmt.Errorf("swarm: mix %s: %w", m, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func knownMix(m string) bool {
	for _, k := range Mixes {
		if m == k {
			return true
		}
	}
	return false
}

func runMix(opts Options, mix string, seed int64) (MixResult, error) {
	res := MixResult{
		Mix:   mix,
		Group: mixGroup(mix, opts.Seed, opts.Shards, opts.Shard),
		Grant: metrics.NewHistogram(nil),
		Prop:  metrics.NewHistogram(nil),
	}
	// Every client this mix dials feeds the floor-transition recorder —
	// the in-run invariant checker's tap — alongside whatever
	// measurement tap the mix installs itself.
	rec := newFloorRecorder()
	dial := opts.Dial
	opts.Dial = func(cfg client.Config) (*client.Client, error) {
		if opts.Trace {
			cfg.Trace = true
		}
		next := cfg.OnEvent
		cfg.OnEvent = func(msg protocol.Message) {
			rec.tap(msg)
			if next != nil {
				next(msg)
			}
		}
		return dial(cfg)
	}
	start := time.Now()
	var err error
	switch mix {
	case "lecture":
		err = runLecture(opts, seed, &res)
	case "flash-crowd":
		err = runFlashCrowd(opts, seed, &res)
	case "moderated-churn":
		err = runModeratedChurn(opts, seed, &res)
	case "reconnect-storm":
		err = runReconnectStorm(opts, seed, &res)
	case "chaos":
		err = runChaos(opts, seed, &res)
	}
	res.Wall = time.Since(start)
	res.Floor, res.FloorConflicts = rec.drain()
	return res, err
}

// tickPrefix marks timestamped swarm chat lines: "swarm-tick <nanos>".
// Listeners parse the send time back out to measure propagation.
const tickPrefix = "swarm-tick "

// tickLine embeds the send instant in a chat line.
func tickLine() string {
	return tickPrefix + strconv.FormatInt(time.Now().UnixNano(), 10)
}

// observeTick records the propagation delay of a timestamped line, if
// it is one. Sender and listeners share one process clock, so the
// difference is a true one-way delay (plus scheduler noise).
func observeTick(h *metrics.Histogram, text string) {
	nanos, ok := strings.CutPrefix(text, tickPrefix)
	if !ok {
		return
	}
	sent, err := strconv.ParseInt(nanos, 10, 64)
	if err != nil {
		return
	}
	if d := time.Now().UnixNano() - sent; d >= 0 {
		h.Observe(float64(d) / 1e9)
	}
}

// propTap is an OnEvent hook recording chat-propagation samples into
// h. It runs synchronously in the client read loop, so it parses and
// observes without blocking work of its own.
func propTap(h *metrics.Histogram) func(protocol.Message) {
	return func(msg protocol.Message) {
		if msg.Type != protocol.TChatEvent {
			return
		}
		var body protocol.SequencedBody
		if msg.Into(&body) != nil {
			return
		}
		observeTick(h, body.Data)
		for _, more := range body.More {
			observeTick(h, more.Data)
		}
	}
}

// errCounter counts failures without failing the swarm: open-loop load
// keeps arriving whatever an individual operation did.
type errCounter struct{ n atomic.Int64 }

func (e *errCounter) note(err error) {
	if err != nil {
		if os.Getenv("SWARM_DEBUG") != "" {
			fmt.Fprintln(os.Stderr, "swarm debug:", err)
		}
		e.n.Add(1)
	}
}

// fireAt runs fn(slot.Index) in its own goroutine at each slot's offset
// past start — the open-loop dispatcher. fn receives the op's GLOBAL
// schedule index, so a shard firing every Nth op still interprets op
// semantics (who acts, whether it is a probe) exactly like a
// single-process run. The returned WaitGroup lets the caller wait for
// every scheduled operation to return.
func fireAt(start time.Time, slots []workload.Slot, fn func(i int)) *sync.WaitGroup {
	var wg sync.WaitGroup
	wg.Add(len(slots))
	for _, s := range slots {
		go func(s workload.Slot) {
			defer wg.Done()
			if d := time.Until(start.Add(s.At)); d > 0 {
				time.Sleep(d)
			}
			fn(s.Index)
		}(s)
	}
	return &wg
}

// settle waits (bounded by Settle) for in-flight measurements to land:
// until the histogram reaches the expected sample count or stops
// growing between polls.
func settle(opts Options, h *metrics.Histogram, want int64) {
	deadline := time.Now().Add(opts.Settle)
	for time.Now().Before(deadline) {
		n := h.Count()
		if n >= want {
			return
		}
		time.Sleep(25 * time.Millisecond)
		if h.Count() == n && n > 0 {
			return // drained: nothing new arrived during the poll gap
		}
	}
}

// runLecture drives the one-holder/N-listener fan-out mix: a chair
// holds an equal-control floor and posts timestamped chat lines at
// Poisson offsets; every listener's read-loop tap measures how long
// each line took to arrive. Every tenth operation the chair releases
// and re-acquires the floor, sampling uncontended grant latency.
func runLecture(opts Options, seed int64, res *MixResult) error {
	var errs errCounter
	chair, err := opts.Dial(client.Config{Name: opts.memberName("lecturer"), Role: "chair", Priority: 10})
	if err != nil {
		return err
	}
	defer chair.Close()
	if err := chair.Join(res.Group); err != nil {
		return err
	}
	var listeners []*client.Client
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	for i := 0; i < opts.Members; i++ {
		l, err := opts.Dial(client.Config{
			Name: fmt.Sprintf("listener-%d", opts.Shard+i*opts.Shards), Role: "participant", Priority: 3,
			OnEvent: propTap(res.Prop),
		})
		if err != nil {
			errs.note(err)
			continue
		}
		if err := l.Join(res.Group); err != nil {
			errs.note(err)
			l.Close()
			continue
		}
		listeners = append(listeners, l)
	}
	if err := opts.syncStart(res.Mix); err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := chair.RequestFloor(res.Group, floor.EqualControl, ""); err != nil {
		return err
	}
	res.Grant.Observe(time.Since(t0).Seconds())

	// Chat ops run concurrently with each other, but never inside the
	// release→re-grant window: an equal-control chair holds no floor
	// there, and the resulting denials would be mix artifacts, not
	// system failures. The RWMutex keeps chats open-loop among
	// themselves while excluding only the probe.
	var floorMu sync.RWMutex
	slots := opts.shardSlots(seed, opts.Ops)
	chats := 0
	for _, s := range slots {
		if s.Index%10 != 9 {
			chats++
		}
	}
	fireAt(time.Now(), slots, func(i int) {
		if i%10 == 9 {
			// Release/re-acquire cycle: the grant-latency probe.
			floorMu.Lock()
			defer floorMu.Unlock()
			if err := chair.ReleaseFloor(res.Group); err != nil {
				errs.note(err)
				return
			}
			t0 := time.Now()
			dec, err := chair.RequestFloor(res.Group, floor.EqualControl, "")
			if err != nil || !dec.Granted {
				errs.note(fmt.Errorf("re-grant: granted=%v err=%v", dec.Granted, err))
				return
			}
			res.Grant.Observe(time.Since(t0).Seconds())
			return
		}
		floorMu.RLock()
		defer floorMu.RUnlock()
		errs.note(chair.Chat(res.Group, tickLine()))
	}).Wait()
	// Each of this shard's chat lines should reach every local listener
	// (sharded lectures run a group per shard, so remote shards' lines
	// land in their own groups).
	settle(opts, res.Prop, int64(len(listeners))*int64(chats))
	res.Ops = len(slots)
	res.Errors = int(errs.n.Load())
	return nil
}

// granted resolves each pending floor request exactly once: either the
// synchronous decision already granted, or a read-loop tap resolves it
// when the member's "granted" push arrives.
type granted struct {
	mu      sync.Mutex
	pending map[string]pendingGrant // member ID → request state
}

type pendingGrant struct {
	t0   time.Time
	done func(latency time.Duration)
}

func newGranted() *granted {
	return &granted{pending: make(map[string]pendingGrant)}
}

func (g *granted) arm(member string, t0 time.Time, done func(time.Duration)) {
	g.mu.Lock()
	g.pending[member] = pendingGrant{t0: t0, done: done}
	g.mu.Unlock()
}

// resolve fires the member's pending callback, if armed.
func (g *granted) resolve(member string) {
	g.mu.Lock()
	p, ok := g.pending[member]
	if ok {
		delete(g.pending, member)
	}
	g.mu.Unlock()
	if ok {
		p.done(time.Since(p.t0))
	}
}

// cancel disarms a pending request whose grant will never come.
func (g *granted) cancel(member string) {
	g.mu.Lock()
	delete(g.pending, member)
	g.mu.Unlock()
}

// grantTap is an OnEvent hook resolving pending grants when the server
// pushes a floor event that hands the watched member the floor.
func grantTap(g *granted) func(protocol.Message) {
	return func(msg protocol.Message) {
		if msg.Type != protocol.TFloorEvent {
			return
		}
		var body protocol.FloorEventBody
		if msg.Into(&body) != nil {
			return
		}
		switch body.Event {
		case "granted", "passed", "approved":
			if body.Holder != "" {
				g.resolve(body.Holder)
			}
		}
	}
}

// contend requests the floor for c and records the grant latency: the
// synchronous decision if immediate, else the later pushed grant
// resolved through g. On grant the member releases (asynchronously —
// the tap must not block the read loop), keeping the floor moving.
func contend(c *client.Client, group string, mode floor.Mode, g *granted, res *MixResult, errs *errCounter) {
	me := c.MemberID()
	g.arm(me, time.Now(), func(d time.Duration) {
		res.Grant.Observe(d.Seconds())
		go func() {
			err := c.ReleaseFloor(group)
			// A member re-requesting while still holding is granted
			// immediately and releases again; if the first release is
			// still in flight, the second finds the floor already moved
			// on — an open-loop collision, not a system failure.
			if err != nil && !strings.Contains(err.Error(), "not the floor holder") {
				errs.note(err)
			}
		}()
	})
	dec, err := c.RequestFloor(group, mode, "")
	switch {
	case err == nil && dec.Granted:
		g.resolve(me)
	case err == nil && dec.QueuePosition > 0:
		// Parked: the grant arrives as a push and the tap resolves it.
	default:
		g.cancel(me)
		errs.note(fmt.Errorf("request: %v", err))
	}
}

// runFlashCrowd drives the join-storm mix: fresh members dial in at
// Poisson offsets, join, and immediately contend for a round-robin
// floor. Whoever is granted releases at once, so the floor rotates
// through the crowd while it is still arriving. Ops beyond the global
// member pool are re-requests from already-admitted members — members
// asking again after their turn. Sharded runs share ONE group: every
// process's members contend for the same round-robin floor, so the
// merged invariant check watches one floor cross-process. With
// Prealloc the shard dials its members up front (behind the barrier)
// and the scheduled op only joins — the join storm stays a scenario
// while the dial storm stops being generator fd churn.
func runFlashCrowd(opts Options, seed int64, res *MixResult) error {
	var errs errCounter
	g := newGranted()
	var mu sync.Mutex
	var crowd []*client.Client
	prealloced := map[int]*client.Client{}
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range crowd {
			c.Close()
		}
		for _, c := range prealloced {
			c.Close()
		}
	}()
	fleet := opts.fleetSize()
	dialMember := func(global int) (*client.Client, error) {
		return opts.Dial(client.Config{
			Name: fmt.Sprintf("crowd-%d", global), Role: "participant", Priority: 3,
			OnEvent: grantTap(g),
		})
	}
	if opts.Prealloc {
		for i := 0; i < opts.Members; i++ {
			global := opts.Shard + i*opts.Shards
			c, err := dialMember(global)
			if err != nil {
				errs.note(err)
				continue
			}
			prealloced[global] = c
		}
	}
	if err := opts.syncStart(res.Mix); err != nil {
		return err
	}
	slots := opts.shardSlots(seed, opts.Ops)
	// The schedule is open loop, so a re-request can come due before any
	// member is admitted. It waits for the first admission; should every
	// admission fail (each failure already counted), it has nobody to ask
	// with and is not due at all.
	admitted := make(chan struct{})
	var admittedOnce sync.Once
	markAdmitted := func() { admittedOnce.Do(func() { close(admitted) }) }
	var admitting sync.WaitGroup
	for _, s := range slots {
		if s.Index < fleet {
			admitting.Add(1)
		}
	}
	go func() { admitting.Wait(); markAdmitted() }()
	fireAt(time.Now(), slots, func(i int) {
		var c *client.Client
		if i < fleet {
			defer admitting.Done()
			// Op i admits global member i — owned by this shard, since
			// both ops and members partition round-robin by the same
			// modulus.
			mu.Lock()
			fresh := prealloced[i]
			delete(prealloced, i)
			mu.Unlock()
			if fresh == nil {
				var err error
				if fresh, err = dialMember(i); err != nil {
					errs.note(err)
					return
				}
			}
			if err := fresh.Join(res.Group); err != nil {
				errs.note(err)
				fresh.Close()
				return
			}
			mu.Lock()
			crowd = append(crowd, fresh)
			mu.Unlock()
			markAdmitted()
			c = fresh
		} else {
			<-admitted
			mu.Lock()
			if len(crowd) > 0 {
				c = crowd[i%len(crowd)]
			}
			mu.Unlock()
			if c == nil {
				return // every admission failed: nobody to ask again
			}
		}
		contend(c, res.Group, floor.RoundRobin, g, res, &errs)
	}).Wait()
	settle(opts, res.Grant, int64(len(slots)))
	res.Ops = len(slots)
	res.Errors = int(errs.n.Load())
	return nil
}

// runModeratedChurn drives the moderated-queue mix: a chair holds the
// approval duty and auto-approves every "queued" push its read loop
// sees; members churn through request → approval → grant → release at
// Poisson offsets. Grant latency spans the member's request to its
// granted push — it includes the chair's approval hop, which is the
// point of the mix.
func runModeratedChurn(opts Options, seed int64, res *MixResult) error {
	var errs errCounter
	g := newGranted()
	var chair *client.Client
	approve := func(msg protocol.Message) {
		if msg.Type != protocol.TFloorEvent {
			return
		}
		var body protocol.FloorEventBody
		if msg.Into(&body) != nil {
			return
		}
		if body.Event == "queued" && body.Member != "" {
			member := body.Member
			go func() {
				_, err := chair.ApproveFloor(res.Group, member)
				// A member's approval persists across grant cycles, so a
				// re-queued member may be promoted by a release before
				// this (redundant) approval lands — benign, not an error.
				if err != nil && !strings.Contains(err.Error(), "no pending request") {
					errs.note(err)
				}
			}()
		}
	}
	chair, err := opts.Dial(client.Config{
		Name: opts.memberName("moderator"), Role: "chair", Priority: 10, OnEvent: approve,
	})
	if err != nil {
		return err
	}
	defer chair.Close()
	if err := chair.Join(res.Group); err != nil {
		return err
	}
	if err := chair.SwitchMode(res.Group, floor.ModeratedQueue, false); err != nil {
		return err
	}
	var members []*client.Client
	defer func() {
		for _, m := range members {
			m.Close()
		}
	}()
	for i := 0; i < opts.Members; i++ {
		m, err := opts.Dial(client.Config{
			Name: fmt.Sprintf("churn-%d", opts.Shard+i*opts.Shards), Role: "participant", Priority: 3,
			OnEvent: grantTap(g),
		})
		if err != nil {
			errs.note(err)
			continue
		}
		if err := m.Join(res.Group); err != nil {
			errs.note(err)
			m.Close()
			continue
		}
		members = append(members, m)
	}
	if len(members) == 0 {
		return fmt.Errorf("no members admitted")
	}
	if err := opts.syncStart(res.Mix); err != nil {
		return err
	}
	slots := opts.shardSlots(seed, opts.Ops)
	fireAt(time.Now(), slots, func(i int) {
		contend(members[i%len(members)], res.Group, floor.ModeratedQueue, g, res, &errs)
	}).Wait()
	settle(opts, res.Grant, int64(len(slots)))
	res.Ops = len(slots)
	res.Errors = int(errs.n.Load())
	return nil
}

// runReconnectStorm drives the session-resume mix: an established
// fleet drops and resumes its sessions at Poisson offsets — after the
// optional Kill hook fells a node, for the full failover drill. The
// grant histogram here records time back to service (Drop to Reconnect
// returning), and each resumed member posts a timestamped line so the
// propagation histogram shows the post-resume fan-out is live.
func runReconnectStorm(opts Options, seed int64, res *MixResult) error {
	var errs errCounter
	// fleet[k] is global member Shard+k*Shards: members and ops
	// partition round-robin by the same modulus, so the op for global
	// member i always fires on the shard that owns the session.
	var fleet []*client.Client
	defer func() {
		for _, c := range fleet {
			c.Close()
		}
	}()
	for i := 0; i < opts.Members; i++ {
		c, err := opts.Dial(client.Config{
			Name: fmt.Sprintf("storm-%d", opts.Shard+i*opts.Shards), Role: "participant", Priority: 3,
			OnEvent: propTap(res.Prop),
		})
		if err != nil {
			errs.note(err)
			continue
		}
		if err := c.Join(res.Group); err != nil {
			errs.note(err)
			c.Close()
			continue
		}
		fleet = append(fleet, c)
	}
	if len(fleet) == 0 {
		return fmt.Errorf("no members admitted")
	}
	if err := opts.syncStart(res.Mix); err != nil {
		return err
	}
	if opts.Kill != nil {
		opts.Kill()
	}
	ops := opts.Ops
	if ops > opts.fleetSize() {
		ops = opts.fleetSize() // each member storms at most once
	}
	var ticks atomic.Int64
	slots := opts.shardSlots(seed, ops)
	fireAt(time.Now(), slots, func(i int) {
		k := i / opts.Shards // local index of global member i
		if k >= len(fleet) {
			errs.note(fmt.Errorf("member %d never admitted", i))
			return
		}
		c := fleet[k]
		t0 := time.Now()
		if !c.Drop() {
			errs.note(fmt.Errorf("drop %d failed", i))
			return
		}
		if err := c.Reconnect(); err != nil {
			errs.note(err)
			return
		}
		res.Grant.Observe(time.Since(t0).Seconds())
		if err := c.Chat(res.Group, tickLine()); err != nil {
			errs.note(err)
			return
		}
		ticks.Add(1)
	}).Wait()
	// Each of this shard's post-resume lines should reach at least the
	// local fleet (in a sharded run the shared group also fans them out
	// to every other shard's members — a lower bound, not an equality).
	settle(opts, res.Prop, ticks.Load()*int64(len(fleet)))
	res.Ops = len(slots)
	res.Errors = int(errs.n.Load())
	return nil
}

// rideOut forces c through a session resume, retrying with a short
// backoff until deadline: a failover takes real time — the probe loop
// must notice the dead node, the successor must adopt its partitions
// from the replicated logs, the router must re-route — and a single
// dial would race all of it. Drop is unconditional (a half-dead
// connection resumes the same as a live one), and the retry loop makes
// the chaos mix's error count mean "the cluster never converged", not
// "the client asked too early".
func rideOut(c *client.Client, deadline time.Time) error {
	c.Drop()
	for {
		err := c.Reconnect()
		switch {
		case err == nil:
			return nil
		case strings.Contains(err.Error(), "still connected"):
			// A racing recovery already brought the session back
			// between our Drop and this attempt: mission accomplished.
			return nil
		}
		if !time.Now().Before(deadline) {
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// runChaos drives the durability drill: a chair holds an equal-control
// floor and chats timestamped lines to listeners while the Chaos hooks
// fell the group's owner node mid-flow — and, when armed, its first
// ring successor (the RF≥3 double kill) and later a restart (the
// WAL-replay leg). The kill runs behind the same write lock the chat
// load reads, so operations pause for the recovery window instead of
// racing it; any chat that still lands on a dead session resumes and
// retries once. The grant histogram records the initial grant, the
// kill-to-floor-restored interval — the service-restoration SLO — and
// an uncontended release/re-acquire probe every tenth operation, so
// the p99 gate rests on a real sample population; the propagation
// histogram shows fan-out is live on both sides of the failure. Zero errors therefore means the replicas really converged:
// holder restored, no state fabricated, every retried line delivered.
func runChaos(opts Options, seed int64, res *MixResult) error {
	var errs errCounter
	chair, err := opts.Dial(client.Config{Name: opts.memberName("chaos-chair"), Role: "chair", Priority: 10})
	if err != nil {
		return err
	}
	defer chair.Close()
	if err := chair.Join(res.Group); err != nil {
		return err
	}
	var listeners []*client.Client
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	for i := 0; i < opts.Members; i++ {
		l, err := opts.Dial(client.Config{
			Name: fmt.Sprintf("chaos-%d", opts.Shard+i*opts.Shards), Role: "participant", Priority: 3,
			OnEvent: propTap(res.Prop),
		})
		if err != nil {
			errs.note(err)
			continue
		}
		if err := l.Join(res.Group); err != nil {
			errs.note(err)
			l.Close()
			continue
		}
		listeners = append(listeners, l)
	}
	if err := opts.syncStart(res.Mix); err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := chair.RequestFloor(res.Group, floor.EqualControl, ""); err != nil {
		return err
	}
	res.Grant.Observe(time.Since(t0).Seconds())

	// Chats share the read side; each injection holds the write side
	// through its recovery, so load pauses for the window instead of
	// piling errors into it.
	var floorMu sync.RWMutex
	var ticks atomic.Int64
	var chaosWG sync.WaitGroup
	span := opts.Mean * time.Duration(opts.Ops)
	if ch := opts.Chaos; ch != nil && ch.KillOwner != nil {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			time.Sleep(span / 3) // mid-flow: the floor is held, chats are in flight
			floorMu.Lock()
			defer floorMu.Unlock()
			ch.KillOwner(res.Group)
			if ch.KillSuccessor != nil {
				ch.KillSuccessor(res.Group)
			}
			killed := time.Now()
			deadline := killed.Add(opts.Settle)
			if err := rideOut(chair, deadline); err != nil {
				errs.note(fmt.Errorf("chair resume after kill: %w", err))
				return
			}
			for {
				dec, err := chair.RequestFloor(res.Group, floor.EqualControl, "")
				if err == nil && dec.Granted {
					res.Grant.Observe(time.Since(killed).Seconds())
					break
				}
				if !time.Now().Before(deadline) {
					errs.note(fmt.Errorf("floor not restored after kill: granted=%v err=%v", dec.Granted, err))
					break
				}
				time.Sleep(100 * time.Millisecond)
			}
			for _, l := range listeners {
				if err := rideOut(l, deadline); err != nil {
					errs.note(fmt.Errorf("listener resume after kill: %w", err))
				}
			}
		}()
		if ch.Restart != nil {
			chaosWG.Add(1)
			go func() {
				defer chaosWG.Done()
				time.Sleep(2 * span / 3)
				floorMu.Lock()
				defer floorMu.Unlock()
				ch.Restart(res.Group)
			}()
		}
	}
	// resumeMu single-flights the chat fallback's session recovery:
	// open-loop chats fail in bursts when the chair's connection dies,
	// and N concurrent fallbacks each Dropping the connection the
	// previous one just restored would cascade a one-off failure into
	// a permanently churning session. The loser of the race re-probes
	// with a plain chat under the lock and usually finds the session
	// already healthy.
	var resumeMu sync.Mutex
	slots := opts.shardSlots(seed, opts.Ops)
	fireAt(time.Now(), slots, func(i int) {
		if i%10 == 9 {
			// Release/re-acquire under the write lock — the same
			// uncontended grant probe runLecture runs. Without it the
			// chaos histogram held exactly two samples (the initial
			// grant and the post-kill restore), so its p99 gate was
			// two-sample noise. Holding the write side excludes the
			// kill window, but a probe can still land just as the
			// owner's TCP peer dies, so one failure rides out the
			// session resume and retries before counting as an error.
			floorMu.Lock()
			defer floorMu.Unlock()
			probe := func() error {
				if err := chair.ReleaseFloor(res.Group); err != nil {
					return err
				}
				t0 := time.Now()
				dec, err := chair.RequestFloor(res.Group, floor.EqualControl, "")
				if err != nil {
					return err
				}
				if !dec.Granted {
					return fmt.Errorf("re-grant denied")
				}
				res.Grant.Observe(time.Since(t0).Seconds())
				return nil
			}
			if err := probe(); err != nil {
				if err := rideOut(chair, time.Now().Add(opts.Settle)); err != nil {
					errs.note(fmt.Errorf("grant probe resume: %w", err))
					return
				}
				if err := probe(); err != nil {
					errs.note(fmt.Errorf("grant probe: %w", err))
				}
			}
			return
		}
		floorMu.RLock()
		defer floorMu.RUnlock()
		if err := chair.Chat(res.Group, tickLine()); err == nil {
			ticks.Add(1)
			return
		}
		// The chat raced a failure the recovery window did not cover
		// (or none was armed): resume the session and retry until the
		// cluster converges or the settle budget runs out.
		resumeMu.Lock()
		defer resumeMu.Unlock()
		if err := chair.Chat(res.Group, tickLine()); err == nil {
			ticks.Add(1) // a racing fallback already recovered the session
			return
		}
		deadline := time.Now().Add(opts.Settle)
		if err := rideOut(chair, deadline); err != nil {
			errs.note(fmt.Errorf("chat resume: %w", err))
			return
		}
		for {
			err := chair.Chat(res.Group, tickLine())
			if err == nil {
				ticks.Add(1)
				return
			}
			if !time.Now().Before(deadline) {
				errs.note(fmt.Errorf("chat retry: %w", err))
				return
			}
			time.Sleep(100 * time.Millisecond)
		}
	}).Wait()
	chaosWG.Wait()
	// Every delivered line should reach every listener — including the
	// lines listeners missed while dead, which the resume replay owes.
	settle(opts, res.Prop, ticks.Load()*int64(len(listeners)))
	res.Ops = len(slots)
	res.Errors = int(errs.n.Load())
	return nil
}

// Report renders mix results as a BENCH_*.json-compatible document:
// "_meta" plus one "Swarm/<mix>" entry per mix carrying the SLO
// quantiles in milliseconds, one "SwarmNode/<node>" entry per cluster
// node attributing mix throughput to the node owning the mix's group,
// and one "Scrape/<endpoint>" entry per scraped /metrics endpoint.
// Every Swarm entry also carries its mergeable state — the latency
// histograms as bucket snapshots and the recorded floor transitions —
// plus the invariant checker's verdict over them, so a shard report, a
// merged fleet report and a single-process report share one schema.
func Report(results []MixResult, scrapes []ScrapeSeries, opts Options, note, goos, goarch string) map[string]map[string]any {
	if opts.Shards <= 1 {
		opts.Shards, opts.Shard = 1, 0
	}
	doc := map[string]map[string]any{
		"_meta": {
			"goos":    goos,
			"goarch":  goarch,
			"note":    note,
			"seed":    opts.Seed,
			"members": opts.Members,
			"ops":     opts.Ops,
			"shards":  opts.Shards,
			"shard":   opts.Shard,
		},
	}
	type nodeLoad struct {
		ops  int
		wall time.Duration
	}
	nodes := map[string]*nodeLoad{}
	for _, r := range results {
		doc["Swarm/"+r.Mix] = mixEntry(r)
		node := "server"
		if opts.NodeFor != nil {
			node = opts.NodeFor(r.Group)
		}
		nl := nodes[node]
		if nl == nil {
			nl = &nodeLoad{}
			nodes[node] = nl
		}
		nl.ops += r.Ops
		nl.wall += r.Wall
	}
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		nl := nodes[n]
		perSec := 0.0
		if nl.wall > 0 {
			perSec = float64(nl.ops) / nl.wall.Seconds()
		}
		doc["SwarmNode/"+n] = map[string]any{
			"ops":       nl.ops,
			"ops_per_s": round3(perSec),
		}
	}
	for _, ss := range scrapes {
		doc["Scrape/"+ss.Endpoint] = scrapeEntry(ss)
	}
	return doc
}

// mixEntry renders one mix's measured outcome as a report entry — the
// per-mix schema shared by shard reports, single-process reports and
// MergeReports' output.
func mixEntry(r MixResult) map[string]any {
	check := CheckFloor(r.Floor, r.FloorConflicts)
	if check.Violations == nil {
		check.Violations = []string{}
	}
	entry := map[string]any{
		"ops":                  r.Ops,
		"errors":               r.Errors,
		"wall_ms":              round3(r.Wall.Seconds() * 1e3),
		"grant_samples":        r.Grant.Count(),
		"prop_samples":         r.Prop.Count(),
		"grant_hist":           r.Grant.Snapshot(),
		"prop_hist":            r.Prop.Snapshot(),
		"floor_events":         floorEventsOrEmpty(r.Floor),
		"floor_groups":         check.Groups,
		"floor_gaps":           check.Gaps,
		"invariant_violations": len(check.Violations),
		"violations":           check.Violations,
	}
	for _, q := range []struct {
		key string
		q   float64
	}{{"p50", 0.5}, {"p99", 0.99}, {"p999", 0.999}} {
		entry["grant_"+q.key+"_ms"] = round3(r.Grant.Quantile(q.q) * 1e3)
		entry["prop_"+q.key+"_ms"] = round3(r.Prop.Quantile(q.q) * 1e3)
	}
	return entry
}

// scrapeEntry renders one endpoint's scraped timeline as a report entry.
func scrapeEntry(ss ScrapeSeries) map[string]any {
	return map[string]any{
		"samples": len(ss.AtMS),
		"at_ms":   ss.AtMS,
		"series":  ss.Series,
		"errors":  ss.Errors,
	}
}

// round3 trims a float to 3 decimals for the JSON report — the report
// is milliseconds, so this keeps microsecond resolution. NaN (an empty
// histogram's quantile) renders as 0 rather than invalid JSON.
func round3(v float64) float64 {
	if v != v {
		return 0
	}
	return float64(int64(v*1000+0.5)) / 1000
}
