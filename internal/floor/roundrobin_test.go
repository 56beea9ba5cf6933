package floor

import (
	"errors"
	"testing"

	"dmps/internal/group"
)

// TestRoundRobinRotation: releases rotate the floor through the
// contenders in arrival order, with each releaser rejoining the tail —
// after a full cycle the original holder has the floor back.
func TestRoundRobinRotation(t *testing.T) {
	_, _, c := classroom(t)
	mustGrant(t, c, "alice", RoundRobin, "")
	if _, err := c.Arbitrate("class", "bob", RoundRobin, ""); !errors.Is(err, ErrBusy) {
		t.Fatalf("bob: %v, want queued", err)
	}
	if _, err := c.Arbitrate("class", "teacher", RoundRobin, ""); !errors.Is(err, ErrBusy) {
		t.Fatalf("teacher: %v, want queued", err)
	}
	order := []string{"bob", "teacher", "alice", "bob", "teacher", "alice"}
	holder := "alice"
	for turn, want := range order {
		next, err := c.Release("class", group.MemberID(holder))
		if err != nil {
			t.Fatalf("turn %d: release(%s): %v", turn, holder, err)
		}
		if string(next) != want {
			t.Fatalf("turn %d: holder = %q, want %q", turn, next, want)
		}
		holder = want
	}
	// The rotation never grows or shrinks: two waiting at all times.
	if q := c.Queue("class"); len(q) != 2 {
		t.Errorf("queue = %v, want 2 rotating members", q)
	}
}

// TestRoundRobinLoneHolderRelease: with an empty queue the release
// frees the floor instead of re-granting the releaser to themself.
func TestRoundRobinLoneHolderRelease(t *testing.T) {
	_, _, c := classroom(t)
	mustGrant(t, c, "alice", RoundRobin, "")
	next, err := c.Release("class", "alice")
	if err != nil || next != "" {
		t.Fatalf("release = %q, %v, want free floor", next, err)
	}
	if q := c.Queue("class"); len(q) != 0 {
		t.Errorf("queue = %v, want empty", q)
	}
}

// TestRoundRobinEvictLeavesRotation: evicting the holder promotes the
// next member but must NOT rotate the evicted member back into the
// queue — eviction means gone.
func TestRoundRobinEvictLeavesRotation(t *testing.T) {
	_, _, c := classroom(t)
	mustGrant(t, c, "alice", RoundRobin, "")
	if _, err := c.Arbitrate("class", "bob", RoundRobin, ""); !errors.Is(err, ErrBusy) {
		t.Fatalf("bob: %v, want queued", err)
	}
	wasHolder, _ := c.Evict("class", "alice")
	if holder := c.Holder("class"); !wasHolder || holder != "bob" {
		t.Fatalf("evict: holder = %q (wasHolder=%v), want bob", holder, wasHolder)
	}
	if q := c.Queue("class"); len(q) != 0 {
		t.Errorf("queue = %v, want empty (evicted member must not rotate back in)", q)
	}
}
