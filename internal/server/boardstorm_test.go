package server

import (
	"fmt"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/clock"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
)

// TestBoardStormCoalesces drives an annotation storm and asserts the
// logged-event ratio: operations batch into one logged event per
// boardBatchMax, another author's operation joins the open batch
// (ordering and attribution survive verbatim), and every replica still
// converges to the full board.
func TestBoardStormCoalesces(t *testing.T) {
	n := netsim.New(9)
	// Simulated time never advances: every stroke lands inside the first
	// one's pacing slot, and the test flushes deterministically.
	srv, err := New(Config{
		Network: n, Addr: "server:1", Clock: clock.NewSim(time.Unix(1000, 0)), ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)

	dial := func(name string, onEvent func(protocol.Message)) *client.Client {
		c, err := client.Dial(client.Config{
			Network: n.From(name + "host"), Addr: "server:1",
			Name: name, Role: "participant", Priority: 2,
			Timeout: 2 * time.Second, OnEvent: onEvent,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if err := c.Join("studio"); err != nil {
			t.Fatal(err)
		}
		return c
	}
	viewerTap := &boardTap{}
	artist, viewer := dial("artist", nil), dial("viewer", viewerTap.observe)

	const storm = 40
	for i := 0; i < storm; i++ {
		if err := artist.Annotate("studio", "draw", fmt.Sprintf("stroke %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// One stroke by the other author joins the open batch.
	if err := viewer.Annotate("studio", "draw", "interjection"); err != nil {
		t.Fatal(err)
	}
	srv.FlushBoardBatches()

	ops, logged := srv.BoardStormStats()
	if ops != storm+1 {
		t.Fatalf("ops = %d, want %d", ops, storm+1)
	}
	// The storm coalesces: the first stroke logs inline (leading edge —
	// an idle board pays no batching latency), and the remaining 39
	// strokes and the interjection ride batched events of boardBatchMax,
	// the last flushed explicitly.
	if bound := 1 + (storm+boardBatchMax-1)/boardBatchMax; logged > int64(bound) {
		t.Errorf("logged %d board events for %d ops; the storm should coalesce into ≤ %d", logged, ops, bound)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if viewer.Board("studio").Seq() == int64(storm+1) && artist.Board("studio").Seq() == int64(storm+1) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := viewer.Board("studio").Seq(); got != int64(storm+1) {
		t.Fatalf("viewer board at %d, want %d — coalesced events must apply like singles", got, storm+1)
	}
	// Order and attribution survive: the interjection is the last op,
	// and it rode the same event as the artist's last strokes.
	ops2 := viewer.Board("studio").Since(0)
	last := ops2[len(ops2)-1]
	if last.Author != viewer.MemberID() || last.Data != "interjection" {
		t.Errorf("last op = %+v, want the viewer's interjection in order", last)
	}
	for i, op := range ops2[:storm] {
		if op.Author != artist.MemberID() || op.Data != fmt.Sprintf("stroke %d", i) {
			t.Fatalf("op %d = %+v, want the artist's stroke %d", i+1, op, i)
		}
	}
	waitFor(t, "the viewer's tap to see the last batch", func() bool { seqs, _ := viewerTap.snapshot(); return len(seqs) == storm+1 })
	if mixed := viewerTap.mixedEvents(); mixed != 1 {
		t.Errorf("%d events carried both authors, want the interjection's batch", mixed)
	}
}
