package server

import (
	"fmt"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/clock"
	"dmps/internal/netsim"
)

// TestBoardStormCoalesces drives an annotation storm and asserts the
// logged-event ratio: contiguous same-author operations batch into one
// logged event per flush, an author change splits the batch (ordering
// and attribution survive verbatim), and every replica still converges
// to the full board.
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

	dial := func(name string) *client.Client {
		c, err := client.Dial(client.Config{
			Network: n.From(name + "host"), Addr: "server:1",
			Name: name, Role: "participant", Priority: 2,
			Timeout: 2 * time.Second,
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
	artist, viewer := dial("artist"), dial("viewer")

	const storm = 40
	for i := 0; i < storm; i++ {
		if err := artist.Annotate("studio", "draw", fmt.Sprintf("stroke %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// One stroke by the other author splits the run.
	if err := viewer.Annotate("studio", "draw", "interjection"); err != nil {
		t.Fatal(err)
	}
	srv.FlushBoardBatches()

	ops, logged := srv.BoardStormStats()
	if ops != storm+1 {
		t.Fatalf("ops = %d, want %d", ops, storm+1)
	}
	// The storm coalesces: the first stroke logs inline (leading edge —
	// an idle board pays no batching latency), the remaining 39 ride one
	// batched event flushed by the author change, and the interjection a
	// third via the explicit flush. The ratio is the satellite's point.
	if logged > 3 {
		t.Errorf("logged %d board events for %d ops; the storm should coalesce into ≤ 3", logged, ops)
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
	// Order and attribution survive: the interjection is the last op.
	ops2 := viewer.Board("studio").Since(0)
	last := ops2[len(ops2)-1]
	if last.Author != viewer.MemberID() || last.Data != "interjection" {
		t.Errorf("last op = %+v, want the viewer's interjection in order", last)
	}
}
