package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/floor"
	"dmps/internal/group"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
	"dmps/internal/resource"
)

// lab spins up a server on a simulated network plus helper dialers.
type lab struct {
	t   *testing.T
	net *netsim.Net
	srv *Server
	mon *resource.Monitor
}

func newLab(t *testing.T) *lab {
	t.Helper()
	n := netsim.New(1)
	mon, err := resource.New(resource.MinBound, resource.Thresholds{Alpha: 0.5, Beta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Network:       n,
		Addr:          "server:1",
		Monitor:       mon,
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return &lab{t: t, net: n, srv: srv, mon: mon}
}

func (l *lab) dial(name, role string, priority int) *client.Client {
	l.t.Helper()
	c, err := client.Dial(client.Config{
		Network:  l.net,
		Addr:     "server:1",
		Name:     name,
		Role:     role,
		Priority: priority,
		Timeout:  2 * time.Second,
	})
	if err != nil {
		l.t.Fatalf("Dial(%s): %v", name, err)
	}
	l.t.Cleanup(c.Close)
	return c
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestHandshakeAssignsMemberIDs(t *testing.T) {
	l := newLab(t)
	teacher := l.dial("Prof. Shih", "chair", 5)
	alice := l.dial("Alice", "participant", 2)
	if teacher.MemberID() == "" || alice.MemberID() == "" {
		t.Fatal("empty member IDs")
	}
	if teacher.MemberID() == alice.MemberID() {
		t.Error("IDs must be unique")
	}
	if !strings.HasPrefix(teacher.MemberID(), "prof--shih#") {
		t.Errorf("sanitized ID = %q", teacher.MemberID())
	}
}

func TestJoinAutoCreatesWithChair(t *testing.T) {
	l := newLab(t)
	teacher := l.dial("Teacher", "chair", 5)
	alice := l.dial("Alice", "participant", 2)
	if err := teacher.Join("class"); err != nil {
		t.Fatal(err)
	}
	if err := alice.Join("class"); err != nil {
		t.Fatal(err)
	}
	chair, err := l.srv.Registry().Chair("class")
	if err != nil {
		t.Fatal(err)
	}
	if string(chair) != teacher.MemberID() {
		t.Errorf("chair = %q, want the first joiner", chair)
	}
	members, _ := l.srv.Registry().GroupMembers("class")
	if len(members) != 2 {
		t.Errorf("members = %v", members)
	}
}

func TestFreeAccessChatConvergesBoards(t *testing.T) {
	l := newLab(t)
	teacher := l.dial("Teacher", "chair", 5)
	alice := l.dial("Alice", "participant", 2)
	_ = teacher.Join("class")
	_ = alice.Join("class")
	if err := teacher.Chat("class", "welcome everyone"); err != nil {
		t.Fatal(err)
	}
	if err := alice.Chat("class", "hello!"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "boards to converge", func() bool {
		return teacher.Board("class").Seq() == 2 && alice.Board("class").Seq() == 2
	})
	if !teacher.Board("class").Equal(alice.Board("class")) {
		t.Error("boards diverged")
	}
	rendered := alice.Board("class").Render()
	if !strings.Contains(rendered, "welcome everyone") || !strings.Contains(rendered, "hello!") {
		t.Errorf("render = %q", rendered)
	}
}

func TestEqualControlMutesNonHolders(t *testing.T) {
	l := newLab(t)
	teacher := l.dial("Teacher", "chair", 5)
	alice := l.dial("Alice", "participant", 2)
	bob := l.dial("Bob", "participant", 2)
	for _, c := range []*client.Client{teacher, alice, bob} {
		if err := c.Join("class"); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := alice.RequestFloor("class", floor.EqualControl, "")
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Granted || dec.Holder != alice.MemberID() {
		t.Fatalf("dec = %+v", dec)
	}
	// Holder speaks.
	if err := alice.Chat("class", "I have the floor"); err != nil {
		t.Fatal(err)
	}
	// Others are muted.
	if err := bob.Chat("class", "interrupting"); !errors.Is(err, client.ErrDenied) {
		t.Errorf("bob chat: %v", err)
	}
	// Bob requests and queues.
	dec2, err := bob.RequestFloor("class", floor.EqualControl, "")
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Granted || dec2.QueuePosition != 1 {
		t.Errorf("dec2 = %+v", dec2)
	}
	// Alice passes the token directly to the teacher.
	if err := alice.PassToken("class", teacher.MemberID()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "holder update", func() bool {
		return teacher.Holder("class") == teacher.MemberID()
	})
	if err := teacher.Chat("class", "thanks"); err != nil {
		t.Errorf("new holder muted: %v", err)
	}
	if err := alice.Chat("class", "still talking"); !errors.Is(err, client.ErrDenied) {
		t.Errorf("old holder should be muted: %v", err)
	}
	// Release promotes bob from the queue.
	if err := teacher.ReleaseFloor("class"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "bob promoted", func() bool {
		return bob.Holder("class") == bob.MemberID()
	})
	if err := bob.Chat("class", "finally"); err != nil {
		t.Errorf("promoted holder muted: %v", err)
	}
}

func TestInviteFlowBuildsSubgroup(t *testing.T) {
	l := newLab(t)
	teacher := l.dial("Teacher", "chair", 5)
	alice := l.dial("Alice", "participant", 2)
	bob := l.dial("Bob", "participant", 2)
	for _, c := range []*client.Client{teacher, alice, bob} {
		_ = c.Join("class")
	}
	// Alice creates a breakout and invites Bob.
	if err := alice.Join("breakout-1"); err != nil {
		t.Fatal(err)
	}
	inviteID, err := alice.Invite("breakout-1", bob.MemberID())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "invite delivery", func() bool {
		return len(bob.PendingInvites()) == 1
	})
	got := bob.PendingInvites()[0]
	if got.InviteID != inviteID || got.Group != "breakout-1" || got.From != alice.MemberID() {
		t.Errorf("invite = %+v", got)
	}
	if err := bob.ReplyInvite(inviteID, true); err != nil {
		t.Fatal(err)
	}
	if !l.srv.Registry().IsMember("breakout-1", groupID(bob.MemberID())) {
		t.Error("bob should be in the breakout")
	}
	// Both can discuss in the sub-group while the class floor is
	// unaffected.
	if _, err := alice.RequestFloor("breakout-1", floor.GroupDiscussion, ""); err != nil {
		t.Fatal(err)
	}
	if err := bob.Chat("breakout-1", "private idea"); err != nil {
		t.Errorf("subgroup chat: %v", err)
	}
	waitFor(t, "subgroup board", func() bool {
		return alice.Board("breakout-1").Seq() >= 1
	})
	// Teacher (not in the breakout) must not see the breakout board.
	if teacher.Board("breakout-1").Seq() != 0 {
		t.Error("breakout leaked to non-member")
	}
}

func TestDirectContactPrivateWindow(t *testing.T) {
	l := newLab(t)
	teacher := l.dial("Teacher", "chair", 5)
	alice := l.dial("Alice", "participant", 2)
	bob := l.dial("Bob", "participant", 2)
	for _, c := range []*client.Client{teacher, alice, bob} {
		_ = c.Join("class")
	}
	dec, err := alice.RequestFloor("class", floor.DirectContact, bob.MemberID())
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Granted || dec.Target != bob.MemberID() {
		t.Fatalf("dec = %+v", dec)
	}
	if err := alice.ChatPrivate("class", bob.MemberID(), "psst"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "private delivery", func() bool {
		return len(bob.PrivateMessages()) == 1
	})
	if bob.PrivateMessages()[0].Data != "psst" {
		t.Errorf("private = %+v", bob.PrivateMessages())
	}
	// The teacher sees nothing.
	if len(teacher.PrivateMessages()) != 0 {
		t.Error("private message leaked")
	}
	// No contact pair with the teacher: denied.
	if err := alice.ChatPrivate("class", teacher.MemberID(), "hi"); !errors.Is(err, client.ErrDenied) {
		t.Errorf("uncontacted private: %v", err)
	}
}

func TestClockSyncOverWire(t *testing.T) {
	l := newLab(t)
	c := l.dial("Syncer", "participant", 2)
	offset, err := c.SyncClock()
	if err != nil {
		t.Fatal(err)
	}
	// Client and server share the real clock here: offset ≈ 0 (bounded
	// by the simulated RTT).
	if offset < -50*time.Millisecond || offset > 50*time.Millisecond {
		t.Errorf("offset = %v", offset)
	}
	if _, err := c.GlobalNow(); err != nil {
		t.Errorf("GlobalNow: %v", err)
	}
}

func TestStatusLightsTurnRedOnCrash(t *testing.T) {
	l := newLab(t)
	teacher := l.dial("Teacher", "chair", 5)
	student := l.dial("Student", "participant", 2)
	_ = teacher.Join("class")
	_ = student.Join("class")
	waitFor(t, "green lights", func() bool {
		lights := l.srv.Lights()
		return lights[teacher.MemberID()] == Green && lights[student.MemberID()] == Green
	})
	// The student's machine crashes (no goodbye).
	if !student.Drop() {
		t.Fatal("Drop should work over netsim")
	}
	waitFor(t, "red light", func() bool {
		return l.srv.Lights()[student.MemberID()] == Red
	})
	// The teacher's window shows the red light too (Figure 3c).
	waitFor(t, "teacher sees red", func() bool {
		return teacher.Lights()[student.MemberID()] == "red"
	})
	if teacher.Lights()[teacher.MemberID()] != "green" {
		t.Error("teacher's own light should stay green")
	}
}

func TestMediaSuspendOverWire(t *testing.T) {
	l := newLab(t)
	teacher := l.dial("Teacher", "chair", 5)
	carol := l.dial("Carol", "participant", 1)
	_ = teacher.Join("class")
	_ = carol.Join("class")
	// Degrade resources into [β, α): the next arbitration suspends carol
	// (lowest priority).
	l.mon.Set(resource.Vector{Network: 0.3, CPU: 0.3, Memory: 0.3})
	dec, err := teacher.RequestFloor("class", floor.FreeAccess, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Suspended) != 1 || dec.Suspended[0] != carol.MemberID() {
		t.Fatalf("suspended = %v", dec.Suspended)
	}
	// Carol cannot send while suspended.
	if err := carol.Chat("class", "am I muted?"); !errors.Is(err, client.ErrDenied) {
		t.Errorf("suspended chat: %v", err)
	}
	waitFor(t, "suspend notice", func() bool {
		for _, n := range carol.SuspendNotices() {
			if n.Member == carol.MemberID() && n.Level == "degraded" {
				return true
			}
		}
		return false
	})
	// Recovery: resources return to normal; the probe loop reinstates.
	l.mon.Set(resource.Vector{Network: 1, CPU: 1, Memory: 1})
	waitFor(t, "reinstatement", func() bool {
		return carol.Chat("class", "back!") == nil
	})
}

func TestAbortBelowBetaOverWire(t *testing.T) {
	l := newLab(t)
	teacher := l.dial("Teacher", "chair", 5)
	_ = teacher.Join("class")
	l.mon.Set(resource.Vector{Network: 0.05, CPU: 0.05, Memory: 0.05})
	_, err := teacher.RequestFloor("class", floor.FreeAccess, "")
	if !errors.Is(err, client.ErrDenied) {
		t.Errorf("err = %v, want denial (Abort-Arbitrate)", err)
	}
}

func TestLateJoinerReplay(t *testing.T) {
	l := newLab(t)
	teacher := l.dial("Teacher", "chair", 5)
	_ = teacher.Join("class")
	for i := 0; i < 5; i++ {
		if err := teacher.Annotate("class", "draw", "stroke"); err != nil {
			t.Fatal(err)
		}
	}
	late := l.dial("Late", "participant", 2)
	if err := late.Join("class"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replay", func() bool {
		return late.Board("class").Seq() == 5
	})
	if len(late.Board("class").Strokes()) != 5 {
		t.Errorf("strokes = %d", len(late.Board("class").Strokes()))
	}
}

func TestPresentationBroadcastChairOnly(t *testing.T) {
	l := newLab(t)
	teacher := l.dial("Teacher", "chair", 5)
	alice := l.dial("Alice", "participant", 2)
	_ = teacher.Join("class")
	_ = alice.Join("class")
	body := presentBody()
	if err := alice.StartPresentation("class", body); !errors.Is(err, client.ErrDenied) {
		t.Errorf("non-chair presentation: %v", err)
	}
	if err := teacher.StartPresentation("class", body); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "presentation delivery", func() bool {
		return alice.Presentation() != nil
	})
	got := alice.Presentation()
	if len(got.Objects) != 1 || got.Objects[0].ID != "slide" {
		t.Errorf("presentation = %+v", got)
	}
}

func TestByeClosesCleanly(t *testing.T) {
	l := newLab(t)
	c := l.dial("Quitter", "participant", 2)
	id := c.MemberID()
	_ = c.Join("class")
	c.Close()
	waitFor(t, "red light after bye", func() bool {
		return l.srv.Lights()[id] == Red
	})
}

func TestServerRequiresNetwork(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil network should fail")
	}
}

// groupID converts a wire member ID into the registry's key type.
func groupID(s string) group.MemberID { return group.MemberID(s) }

func presentBody() protocol.PresentBody {
	return protocol.PresentBody{
		StartGlobalNanos: 12345,
		Objects: []protocol.PresentObject{
			{ID: "slide", Kind: "image", DurationNanos: int64(10 * time.Second)},
		},
	}
}

// TestConcurrentFirstJoinsAllJoin: 16 members join a group nobody has
// created yet at the same moment, over 50 fresh groups. Each join may
// find the group unknown and then lose the race to create it; the
// loser joins the group the winner made instead of failing.
func TestConcurrentFirstJoinsAllJoin(t *testing.T) {
	l := newLab(t)
	var members []*client.Client
	for i := 0; i < 16; i++ {
		members = append(members, l.dial(fmt.Sprintf("m%d", i), "participant", 2))
	}
	for round := 0; round < 50; round++ {
		g := fmt.Sprintf("fresh-%d", round)
		start := make(chan struct{})
		errs := make(chan error, len(members))
		var wg sync.WaitGroup
		for _, c := range members {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs <- c.Join(g)
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", g, err)
			}
		}
		if ids, err := l.srv.Registry().GroupMemberIDs(g); err != nil || len(ids) != len(members) {
			t.Fatalf("%s: roster %v (%v), want all %d members", g, ids, err, len(members))
		}
	}
}
