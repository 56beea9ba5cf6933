package floor

import (
	"errors"
	"math/rand"
	"testing"

	"dmps/internal/group"
	"dmps/internal/resource"
)

// TestQuickEqualControlInvariants drives random request/release/pass
// sequences and checks the structural invariants of the token protocol:
// at most one holder; the holder is always a member with sufficient
// priority; the queue never contains the holder or duplicates.
func TestQuickEqualControlInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 100; iter++ {
		reg := group.NewRegistry()
		n := 3 + rng.Intn(6)
		ids := make([]group.MemberID, n)
		for i := 0; i < n; i++ {
			ids[i] = group.MemberID(string(rune('a' + i)))
			prio := 1 + rng.Intn(3) // some below the token threshold
			if err := reg.Register(group.Member{ID: ids[i], Role: group.Participant, Priority: prio}); err != nil {
				t.Fatal(err)
			}
		}
		if err := reg.CreateGroup("g", ids[0]); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids[1:] {
			if err := reg.Join("g", id); err != nil {
				t.Fatal(err)
			}
		}
		ctl := NewController(reg, nil)
		for op := 0; op < 60; op++ {
			actor := ids[rng.Intn(n)]
			switch rng.Intn(3) {
			case 0:
				_, err := ctl.Arbitrate("g", actor, EqualControl, "")
				if err != nil && !errors.Is(err, ErrBusy) && !errors.Is(err, ErrPriority) {
					t.Fatalf("iter %d: unexpected arbitrate error %v", iter, err)
				}
			case 1:
				_, _ = ctl.Release("g", actor)
			case 2:
				_ = ctl.Pass("g", actor, ids[rng.Intn(n)])
			}
			// Invariants.
			holder := ctl.Holder("g")
			queue := ctl.Queue("g")
			if holder != "" {
				m, err := reg.Member(holder)
				if err != nil {
					t.Fatalf("iter %d: holder %q not registered", iter, holder)
				}
				if m.Priority < MinTokenPriority {
					t.Fatalf("iter %d: holder %q has priority %d", iter, holder, m.Priority)
				}
			}
			seen := make(map[group.MemberID]bool)
			for _, q := range queue {
				if q == holder {
					t.Fatalf("iter %d: holder %q also queued", iter, holder)
				}
				if seen[q] {
					t.Fatalf("iter %d: duplicate queue entry %q", iter, q)
				}
				seen[q] = true
			}
		}
	}
}

// TestQuickSuspensionsMonotoneUnderDegradation: in the degraded regime,
// repeated arbitrations suspend strictly more members (until exhausted),
// always lowest-priority-first among the unsuspended.
func TestQuickSuspensionsMonotoneUnderDegradation(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for iter := 0; iter < 50; iter++ {
		reg := group.NewRegistry()
		n := 3 + rng.Intn(5)
		prios := make(map[group.MemberID]int, n)
		ids := make([]group.MemberID, n)
		for i := 0; i < n; i++ {
			ids[i] = group.MemberID(string(rune('a' + i)))
			prios[ids[i]] = 1 + rng.Intn(9)
			if err := reg.Register(group.Member{ID: ids[i], Role: group.Participant, Priority: prios[ids[i]]}); err != nil {
				t.Fatal(err)
			}
		}
		if err := reg.CreateGroup("g", ids[0]); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids[1:] {
			_ = reg.Join("g", id)
		}
		mon, err := resource.New(resource.MinBound, resource.Thresholds{Alpha: 0.5, Beta: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		mon.Set(resource.Vector{Network: 0.3, CPU: 0.3, Memory: 0.3})
		ctl := NewController(reg, mon)
		lastCount := 0
		for round := 0; round < n+2; round++ {
			dec, err := ctl.Arbitrate("g", ids[0], FreeAccess, "")
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			count := len(ctl.Snapshot("g").Suspended)
			if count < lastCount {
				t.Fatalf("iter %d: suspensions shrank %d → %d", iter, lastCount, count)
			}
			if round < n && count != lastCount+1 {
				t.Fatalf("iter %d round %d: expected one new suspension, got %d → %d", iter, round, lastCount, count)
			}
			// The new victim must have had minimal priority among the
			// previously unsuspended members.
			if len(dec.Suspended) == 1 {
				victim := dec.Suspended[0]
				vp := prios[victim]
				for _, id := range ids {
					if id == victim {
						continue
					}
					suspendedBefore := false
					for _, s := range ctl.Snapshot("g").Suspended {
						if s == id && s != victim {
							suspendedBefore = true
						}
					}
					if !suspendedBefore && prios[id] < vp {
						t.Fatalf("iter %d: suspended %q (prio %d) while %q (prio %d) still active",
							iter, victim, vp, id, prios[id])
					}
				}
			}
			lastCount = count
		}
	}
}
