package experiments

import (
	"fmt"
	"sync"
	"time"

	"dmps/internal/client"
	"dmps/internal/core"
	"dmps/internal/floor"
	"dmps/internal/group"
	"dmps/internal/protocol"
)

// RunE11 measures the PR-2 data plane: encode-once broadcast fan-out on
// the live netsim stack, and multi-group arbitration throughput on the
// sharded controller. The encodes/op column is the load-bearing number —
// one protocol.EncodeBinary per broadcast, whatever the group size; the
// arbitration rows show aggregate request throughput staying flat (or
// climbing with available cores) as independent groups are added, where
// a single controller-wide mutex would serialize them.
func RunE11(sizes []int, groupCounts []int) (*Table, error) {
	if len(sizes) == 0 {
		sizes = []int{2, 8, 32}
	}
	if len(groupCounts) == 0 {
		groupCounts = []int{1, 4, 16}
	}
	t := &Table{
		ID:     "E11",
		Title:  "scalability: encode-once broadcast fan-out and sharded multi-group arbitration",
		Header: []string{"scenario", "scale", "ops", "elapsed", "ops/s", "encodes/op"},
	}
	for _, n := range sizes {
		row, err := broadcastRound(n)
		if err != nil {
			return nil, fmt.Errorf("E11 broadcast n=%d: %w", n, err)
		}
		t.AddRow(row...)
	}
	for _, g := range groupCounts {
		row, err := contentionRound(g)
		if err != nil {
			return nil, fmt.Errorf("E11 arbitration g=%d: %w", g, err)
		}
		t.AddRow(row...)
	}
	t.Note("broadcast rows deliver every op to all members over netsim; encodes/op ≈ 1 is the encode-once invariant. arbitration rows run one pinned worker per group on the sharded controller")
	return t, nil
}

// broadcastRound fans broadcasts out to an n-member group and waits for
// full delivery at every replica.
func broadcastRound(n int) ([]any, error) {
	lab, err := core.NewLab(core.Options{Seed: int64(n) * 13, ProbeInterval: time.Hour})
	if err != nil {
		return nil, err
	}
	defer lab.Close()
	clients := make([]*client.Client, 0, n)
	for i := 0; i < n; i++ {
		c, err := lab.NewClient(fmt.Sprintf("m%d", i), "participant", 2)
		if err != nil {
			return nil, err
		}
		if err := c.Join("class"); err != nil {
			return nil, err
		}
		clients = append(clients, c)
	}
	const ops = 200
	encBefore := protocol.EncodeCount()
	start := time.Now()
	for i := 0; i < ops; i++ {
		ev := protocol.MustNew(protocol.TChatEvent, protocol.SequencedBody{
			Seq: int64(i + 1), Author: "e11", Kind: "text", Data: "fanout",
		})
		ev.Group = "class"
		lab.Server.Broadcast("class", ev)
	}
	for _, c := range clients {
		c := c
		if err := waitUntil(20*time.Second, func() bool { return c.Board("class").Seq() == ops }); err != nil {
			return nil, fmt.Errorf("fan-out: %w", err)
		}
	}
	elapsed := time.Since(start)
	encodes := float64(protocol.EncodeCount()-encBefore) / float64(ops)
	return []any{
		"broadcast", fmt.Sprintf("%d members", n), ops, elapsed.Round(time.Millisecond),
		fmt.Sprintf("%.0f", float64(ops)/elapsed.Seconds()),
		fmt.Sprintf("%.2f", encodes),
	}, nil
}

// contentionRound drives one pinned worker per group against a single
// sharded Controller.
func contentionRound(g int) ([]any, error) {
	reg := group.NewRegistry()
	for i := 0; i < g; i++ {
		id := group.MemberID(fmt.Sprintf("m%d", i))
		if err := reg.Register(group.Member{ID: id, Name: string(id), Role: group.Chair, Priority: 5}); err != nil {
			return nil, err
		}
		if err := reg.CreateGroup(fmt.Sprintf("g%d", i), id); err != nil {
			return nil, err
		}
	}
	ctl := floor.NewController(reg, nil)
	const perWorker = 5000
	errCh := make(chan error, g)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		gid := fmt.Sprintf("g%d", i)
		mid := group.MemberID(fmt.Sprintf("m%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				if _, err := ctl.Arbitrate(gid, mid, floor.FreeAccess, ""); err != nil {
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
			return nil, err
		}
	}
	elapsed := time.Since(start)
	ops := g * perWorker
	return []any{
		"arbitration", fmt.Sprintf("%d groups", g), ops, elapsed.Round(time.Millisecond),
		fmt.Sprintf("%.0f", float64(ops)/elapsed.Seconds()),
		"-",
	}, nil
}
