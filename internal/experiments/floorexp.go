package experiments

import (
	"fmt"
	"sync"
	"time"

	"dmps/internal/client"
	"dmps/internal/core"
	"dmps/internal/floor"
	"dmps/internal/resource"
	"dmps/internal/workload"
)

// E1Sizes are the default group sizes for the arbitration sweep.
var E1Sizes = []int{2, 8, 24}

// RunE1 measures centralized floor-arbitration latency and throughput for
// each of the four modes across group sizes, on the live server stack.
func RunE1(sizes []int) (*Table, error) {
	if len(sizes) == 0 {
		sizes = E1Sizes
	}
	t := &Table{
		ID:     "E1",
		Title:  "floor arbitration latency/throughput by mode and group size",
		Header: []string{"mode", "members", "requests", "p50", "p95", "req/s"},
	}
	for _, n := range sizes {
		for _, mode := range []floor.Mode{floor.FreeAccess, floor.EqualControl, floor.GroupDiscussion, floor.DirectContact} {
			stats, reqs, elapsed, err := arbitrationRound(n, mode)
			if err != nil {
				return nil, fmt.Errorf("E1 %v n=%d: %w", mode, n, err)
			}
			t.AddRow(mode, n, reqs,
				stats.Percentile(50).Round(10*time.Microsecond),
				stats.Percentile(95).Round(10*time.Microsecond),
				fmt.Sprintf("%.0f", float64(reqs)/elapsed.Seconds()))
		}
	}
	t.Note("all arbitration is centralized at the server (paper §4); equal-control rows include request+release per member")
	return t, nil
}

// arbitrationRound drives one (mode, size) cell.
func arbitrationRound(n int, mode floor.Mode) (*LatencyStats, int, time.Duration, error) {
	lab, err := core.NewLab(core.Options{Seed: int64(n) * 17})
	if err != nil {
		return nil, 0, 0, err
	}
	defer lab.Close()
	clients := make([]*client.Client, 0, n)
	for i := 0; i < n; i++ {
		c, err := lab.NewClient(fmt.Sprintf("m%d", i), "participant", 2)
		if err != nil {
			return nil, 0, 0, err
		}
		if err := c.Join("class"); err != nil {
			return nil, 0, 0, err
		}
		clients = append(clients, c)
	}
	stats := &LatencyStats{}
	const perClient = 5
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for i, c := range clients {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				target := ""
				if mode == floor.DirectContact {
					target = clients[(i+1)%n].MemberID()
				}
				t0 := time.Now()
				_, err := c.RequestFloor("class", mode, target)
				stats.Add(time.Since(t0))
				if err != nil {
					// Equal-control busy answers are normal outcomes.
					if mode == floor.EqualControl {
						continue
					}
					errCh <- err
					return
				}
				if mode == floor.EqualControl {
					_ = c.ReleaseFloor("class")
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return nil, 0, 0, err
		}
	}
	return stats, stats.N(), time.Since(start), nil
}

// RunE5 measures graceful degradation: a load ramp crossing α then β,
// with Media-Suspend on (the paper's mechanism) versus off (baseline).
// Expected shape: above α everyone keeps media; in [β, α) exactly the
// lowest-priority members lose media one per arbitration; below β
// arbitration aborts. The baseline keeps every member active regardless,
// overcommitting the host.
func RunE5() (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "resource degradation: Media-Suspend vs no-suspend baseline (α=0.5, β=0.2, 4 members)",
		Header: []string{"availability", "level", "suspended (FCM)", "active (FCM)", "active (baseline)", "aborted"},
	}
	reg, ctl, err := floorFixture()
	if err != nil {
		return nil, err
	}
	mon, err := resource.New(resource.MinBound, resource.Thresholds{Alpha: 0.5, Beta: 0.2})
	if err != nil {
		return nil, err
	}
	fcm := floor.NewController(reg, mon)
	_ = ctl
	baseline := floor.NewController(reg, nil) // no resource coupling
	members := []string{"teacher", "alice", "bob", "carol"}
	for _, avail := range []float64{1.0, 0.8, 0.6, 0.45, 0.35, 0.25, 0.15, 0.05} {
		mon.Set(resource.Vector{Network: avail, CPU: avail, Memory: avail})
		_, errF := fcm.Arbitrate("class", "teacher", floor.FreeAccess, "")
		_, errB := baseline.Arbitrate("class", "teacher", floor.FreeAccess, "")
		if errB != nil {
			return nil, fmt.Errorf("baseline should never abort: %w", errB)
		}
		aborted := errF != nil
		activeF := 0
		for _, m := range members {
			if fcm.MediaAvailable("class", memberID(m)) {
				activeF++
			}
		}
		level := mon.Level()
		t.AddRow(fmt.Sprintf("%.2f", avail), level, len(fcm.Snapshot("class").Suspended), activeF, len(members), aborted)
		if level == resource.Normal {
			fcm.Reinstate("class") // recovery between normal steps
		}
	}
	t.Note("suspension victims are chosen lowest-priority-first (carol=1 before alice/bob=2 before teacher=5)")
	return t, nil
}

// floorFixture builds the 4-member class used by the floor experiments.
func floorFixture() (reg *registryAlias, ctl *floor.Controller, err error) {
	r := newRegistry()
	for _, m := range []memberSpec{
		{"teacher", 5}, {"alice", 2}, {"bob", 2}, {"carol", 1},
	} {
		if err := registerMember(r, m.id, m.priority); err != nil {
			return nil, nil, err
		}
	}
	if err := r.CreateGroup("class", "teacher"); err != nil {
		return nil, nil, err
	}
	for _, id := range []string{"alice", "bob", "carol"} {
		if err := r.Join("class", memberID(id)); err != nil {
			return nil, nil, err
		}
	}
	return r, floor.NewController(r, nil), nil
}

type memberSpec struct {
	id       string
	priority int
}

// RunE6 measures Equal Control fairness and token-handoff latency: the
// token is passed round-robin; every member should hold it equally often
// (Jain index → 1).
func RunE6(sizes []int) (*Table, error) {
	if len(sizes) == 0 {
		sizes = []int{4, 8, 16}
	}
	t := &Table{
		ID:     "E6",
		Title:  "equal-control token passing: fairness and handoff latency",
		Header: []string{"members", "passes", "Jain index", "handoff p50", "handoff p95"},
	}
	for _, n := range sizes {
		lab, err := core.NewLab(core.Options{Seed: int64(n)})
		if err != nil {
			return nil, err
		}
		clients := make([]*client.Client, 0, n)
		for i := 0; i < n; i++ {
			c, err := lab.NewClient(fmt.Sprintf("m%d", i), "participant", 2)
			if err != nil {
				lab.Close()
				return nil, err
			}
			if err := c.Join("class"); err != nil {
				lab.Close()
				return nil, err
			}
			clients = append(clients, c)
		}
		ids := make([]string, n)
		for i, c := range clients {
			ids[i] = c.MemberID()
		}
		if _, err := clients[0].RequestFloor("class", floor.EqualControl, ""); err != nil {
			lab.Close()
			return nil, err
		}
		holds := make(map[string]float64)
		holds[ids[0]]++
		stats := &LatencyStats{}
		passes := workload.RoundRobinPasses(ids, 4*n)
		holder := 0
		for range passes {
			next := (holder + 1) % n
			t0 := time.Now()
			if err := clients[holder].PassToken("class", ids[next]); err != nil {
				lab.Close()
				return nil, err
			}
			stats.Add(time.Since(t0))
			holds[ids[next]]++
			holder = next
		}
		shares := make([]float64, 0, n)
		for _, id := range ids {
			shares = append(shares, holds[id])
		}
		t.AddRow(n, len(passes),
			fmt.Sprintf("%.4f", JainIndex(shares)),
			stats.Percentile(50).Round(10*time.Microsecond),
			stats.Percentile(95).Round(10*time.Microsecond))
		lab.Close()
	}
	t.Note("holder-passing round-robin yields Jain ≈ 1 (perfect fairness); handoff is one server round trip")
	return t, nil
}

// RunE7 exercises Group Discussion and Direct Contact concurrently:
// K sub-groups built by invitation, all chatting at once, plus private
// direct-contact pairs; checks isolation (no cross-group leakage) and
// reports invitation latency.
func RunE7(k int) (*Table, error) {
	if k <= 0 {
		k = 3
	}
	const membersTotal = 12
	lab, err := core.NewLab(core.Options{Seed: int64(k) * 7})
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	clients := make([]*client.Client, 0, membersTotal)
	for i := 0; i < membersTotal; i++ {
		c, err := lab.NewClient(fmt.Sprintf("m%d", i), "participant", 2)
		if err != nil {
			return nil, err
		}
		if err := c.Join("plenary"); err != nil {
			return nil, err
		}
		clients = append(clients, c)
	}
	ids := make([]string, membersTotal)
	byID := make(map[string]*client.Client, membersTotal)
	for i, c := range clients {
		ids[i] = c.MemberID()
		byID[c.MemberID()] = c
	}
	inviteStats := &LatencyStats{}
	groups := workload.Fanout(ids, k)
	// Build each sub-group: creator joins, invites the rest.
	for gi, members := range groups {
		gname := fmt.Sprintf("breakout-%d", gi)
		creator := byID[members[0]]
		if err := creator.Join(gname); err != nil {
			return nil, err
		}
		for _, invitee := range members[1:] {
			t0 := time.Now()
			inviteID, err := creator.Invite(gname, invitee)
			if err != nil {
				return nil, err
			}
			if err := byID[invitee].ReplyInvite(inviteID, true); err != nil {
				return nil, err
			}
			inviteStats.Add(time.Since(t0))
		}
		if _, err := creator.RequestFloor(gname, floor.GroupDiscussion, ""); err != nil {
			return nil, err
		}
	}
	// Everyone chats in their breakout concurrently.
	var wg sync.WaitGroup
	errCh := make(chan error, membersTotal)
	for gi, members := range groups {
		gname := fmt.Sprintf("breakout-%d", gi)
		for _, id := range members {
			c := byID[id]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 3; j++ {
					if err := c.Chat(gname, "idea"); err != nil {
						errCh <- err
						return
					}
				}
			}()
		}
	}
	// Plus a direct-contact pair across groups, concurrently.
	if _, err := clients[0].RequestFloor("plenary", floor.DirectContact, ids[membersTotal-1]); err != nil {
		return nil, err
	}
	if err := clients[0].ChatPrivate("plenary", ids[membersTotal-1], "psst"); err != nil {
		return nil, err
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return nil, err
		}
	}
	// Isolation: boards of other breakouts must stay empty for
	// non-members; expected ops for members.
	violations := 0
	for gi, members := range groups {
		gname := fmt.Sprintf("breakout-%d", gi)
		want := int64(3 * len(members))
		inGroup := make(map[string]bool, len(members))
		for _, id := range members {
			inGroup[id] = true
		}
		for _, c := range clients {
			if inGroup[c.MemberID()] {
				if err := waitUntil(3*time.Second, func() bool { return c.Board(gname).Seq() == want }); err != nil {
					return nil, fmt.Errorf("breakout %d convergence: %w", gi, err)
				}
			} else if c.Board(gname).Seq() != 0 {
				violations++
			}
		}
	}
	// Private delivery.
	if err := waitUntil(3*time.Second, func() bool {
		return len(clients[membersTotal-1].PrivateMessages()) == 1
	}); err != nil {
		return nil, fmt.Errorf("private delivery: %w", err)
	}
	t := &Table{
		ID:     "E7",
		Title:  fmt.Sprintf("concurrent sub-groups (%d breakouts over %d members) + direct contact", k, membersTotal),
		Header: []string{"metric", "value"},
	}
	t.AddRow("invitations", inviteStats.N())
	t.AddRow("invite+accept p50", inviteStats.Percentile(50).Round(10*time.Microsecond))
	t.AddRow("invite+accept p95", inviteStats.Percentile(95).Round(10*time.Microsecond))
	t.AddRow("isolation violations", violations)
	t.AddRow("direct-contact deliveries", len(clients[membersTotal-1].PrivateMessages()))
	t.Note("sub-group traffic is invisible outside its membership; direct contact runs concurrently with group discussion, as the paper requires")
	return t, nil
}

// RunE8 measures server relay throughput in Free Access: N clients all
// chat simultaneously; every message fans out to all N members.
func RunE8(sizes []int) (*Table, error) {
	if len(sizes) == 0 {
		sizes = []int{2, 8, 32}
	}
	t := &Table{
		ID:     "E8",
		Title:  "server relay throughput (free-access chat storm)",
		Header: []string{"clients", "messages", "deliveries", "elapsed", "deliveries/s"},
	}
	for _, n := range sizes {
		lab, err := core.NewLab(core.Options{Seed: int64(n) * 3})
		if err != nil {
			return nil, err
		}
		clients := make([]*client.Client, 0, n)
		for i := 0; i < n; i++ {
			c, err := lab.NewClient(fmt.Sprintf("m%d", i), "participant", 2)
			if err != nil {
				lab.Close()
				return nil, err
			}
			if err := c.Join("class"); err != nil {
				lab.Close()
				return nil, err
			}
			clients = append(clients, c)
		}
		const perClient = 20
		start := time.Now()
		var wg sync.WaitGroup
		errCh := make(chan error, n)
		for _, c := range clients {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < perClient; j++ {
					if err := c.Chat("class", "storm"); err != nil {
						errCh <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			if err != nil {
				lab.Close()
				return nil, err
			}
		}
		total := int64(n * perClient)
		// Wait for full fan-out at every client.
		for _, c := range clients {
			if err := waitUntil(10*time.Second, func() bool { return c.Board("class").Seq() == total }); err != nil {
				lab.Close()
				return nil, fmt.Errorf("fan-out: %w", err)
			}
		}
		elapsed := time.Since(start)
		deliveries := total * int64(n)
		t.AddRow(n, total, deliveries, elapsed.Round(time.Millisecond),
			fmt.Sprintf("%.0f", float64(deliveries)/elapsed.Seconds()))
		lab.Close()
	}
	t.Note("the single centralized relay is the architecture of the paper; throughput grows with N until the relay saturates, then deliveries/s plateaus")
	return t, nil
}

// RunE10 exercises the BFCP-style ModeratedQueue policy on the live
// stack: n students queue, the chair approves them one at a time, and
// each approved student holds then releases the floor. It reports the
// approve→grant-event latency observed through the client subscription
// API and checks that approval order (reverse of request order here)
// overrides queue order.
func RunE10(sizes []int) (*Table, error) {
	if len(sizes) == 0 {
		sizes = []int{2, 8}
	}
	t := &Table{
		ID:     "E10",
		Title:  "moderated-queue: chair approvals over the live stack (approve → grant event)",
		Header: []string{"students", "approvals", "grant p50", "grant p95", "order"},
	}
	for _, n := range sizes {
		lab, err := core.NewLab(core.Options{Seed: int64(n) * 31})
		if err != nil {
			return nil, err
		}
		chair, err := lab.NewClient("chair", "chair", 5)
		if err != nil {
			lab.Close()
			return nil, err
		}
		if err := chair.Join("seminar"); err != nil {
			lab.Close()
			return nil, err
		}
		students := make([]*client.Client, 0, n)
		events := make([]<-chan client.Event, 0, n)
		for i := 0; i < n; i++ {
			s, err := lab.NewClient(fmt.Sprintf("s%d", i), "participant", 2)
			if err != nil {
				lab.Close()
				return nil, err
			}
			events = append(events, s.Subscribe(client.FloorEvents))
			if err := s.Join("seminar"); err != nil {
				lab.Close()
				return nil, err
			}
			students = append(students, s)
		}
		for _, s := range students {
			if dec, err := s.RequestFloor("seminar", floor.ModeratedQueue, ""); err != nil || dec.Granted {
				lab.Close()
				return nil, fmt.Errorf("student should queue, got %+v, %v", dec, err)
			}
		}
		stats := &LatencyStats{}
		ordered := true
		// Approve in reverse request order: approval, not arrival,
		// decides who speaks.
		for i := n - 1; i >= 0; i-- {
			s := students[i]
			if _, err := s.ApproveFloor("seminar", s.MemberID()); err == nil {
				lab.Close()
				return nil, fmt.Errorf("non-chair approval must fail")
			}
			t0 := time.Now()
			if _, err := chair.ApproveFloor("seminar", s.MemberID()); err != nil {
				lab.Close()
				return nil, err
			}
			// Wait for the student's own grant event.
			granted := false
			deadline := time.After(5 * time.Second)
			for !granted {
				select {
				case ev := <-events[i]:
					if ev.Floor.Holder == s.MemberID() {
						granted = true
					}
				case <-deadline:
					lab.Close()
					return nil, fmt.Errorf("no grant event for %s", s.MemberID())
				}
			}
			stats.Add(time.Since(t0))
			if s.Holder("seminar") != s.MemberID() {
				ordered = false
			}
			if err := s.ReleaseFloor("seminar"); err != nil {
				lab.Close()
				return nil, err
			}
		}
		order := "approval-order"
		if !ordered {
			order = "VIOLATED"
		}
		t.AddRow(n, n,
			stats.Percentile(50).Round(10*time.Microsecond),
			stats.Percentile(95).Round(10*time.Microsecond),
			order)
		lab.Close()
	}
	t.Note("every grant is chair-approved (BFCP-style); latency includes the approve round trip plus the pushed grant event")
	return t, nil
}
