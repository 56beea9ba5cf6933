package cluster_test

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/core"
	"dmps/internal/metrics"
	"dmps/internal/server"
)

// gauge reads one unlabelled series off a node's metrics page.
func gauge(t *testing.T, node *server.Server, name string) float64 {
	t.Helper()
	reg := metrics.NewRegistry()
	node.RegisterMetrics(reg)
	var page strings.Builder
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(page.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no %s series", name)
	return 0
}

// TestReapedMemberLeavesNoReplica: a member reaped at their home must
// leave nothing behind on the home's successor — neither their row and
// token nor their member log. A surviving log replica used to ride a
// later fail-back migration home and re-create the reaped member's log
// there.
func TestReapedMemberLeavesNoReplica(t *testing.T) {
	cl, err := core.StartCluster(core.ClusterOptions{Options: core.Options{Seed: 29}, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The chair and the group live on node 1; only bob is homed on node 0,
	// so node 0's logs are bob's alone.
	chair, err := cl.NewClientOn("hostA", pickKey(t, 3, "reapchair", 1), "chair", 5)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := cl.NewClientOn("hostB", pickKey(t, 3, "reapedhome", 0), "participant", 3)
	if err != nil {
		t.Fatal(err)
	}
	g := pickKey(t, 3, "reapgroup", 1)
	if err := chair.Join(g); err != nil {
		t.Fatal(err)
	}
	if _, err := chair.Invite(g, bob.MemberID()); err != nil {
		t.Fatal(err)
	}
	logKey := server.MemberLogKeyOf(bob.MemberID())
	waitFor(t, "bob's member log replicated to node 1", func() bool {
		return cl.Nodes[1].ReplicaHead(logKey) >= 2
	})

	reaped := cl.Nodes[0].Reap(time.Now().Add(2 * time.Hour))
	if len(reaped) != 1 || reaped[0] != bob.MemberID() {
		t.Fatalf("reaped %v, want just %s", reaped, bob.MemberID())
	}
	waitFor(t, "the drop acked everywhere", func() bool {
		for _, n := range cl.Nodes {
			if n.ReplicationPending() != 0 {
				return false
			}
		}
		return true
	})
	if head := cl.Nodes[1].ReplicaHead(logKey); head != 0 {
		t.Fatalf("node 1 still holds the reaped member's log (head %d)", head)
	}

	// With the home dead, bob's token must expire at the successor, not
	// adopt him back to life.
	cl.KillNode(0)
	bob.Drop()
	waitFor(t, "bob's resume expires at the successor", func() bool {
		err := bob.Reconnect()
		if err == nil {
			t.Fatal("a reaped member's resume was adopted")
		}
		return errors.Is(err, client.ErrSessionExpired)
	})

	// Fail-back: the restarted home gets nothing of bob's back.
	if err := cl.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	reinstate(t, cl)
	if logs := gauge(t, cl.Nodes[0], "dmps_grouplog_logs"); logs != 0 {
		t.Fatalf("migration home re-created %v member logs for a reaped member", logs)
	}
}
