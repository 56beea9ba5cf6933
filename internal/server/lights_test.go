package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/clock"
	"dmps/internal/metrics"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
)

// lightsTap keeps every lights push a client receives, in order.
type lightsTap struct {
	mu     sync.Mutex
	pushes []protocol.LightsBody
}

func (tap *lightsTap) observe(msg protocol.Message) {
	if msg.Type != protocol.TLights {
		return
	}
	var body protocol.LightsBody
	if msg.Into(&body) != nil {
		return
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	tap.pushes = append(tap.pushes, body)
}

func (tap *lightsTap) received() []protocol.LightsBody {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return append([]protocol.LightsBody(nil), tap.pushes...)
}

// TestLightsRideTheProbeTick: the probe tick is the only thing that
// pushes lights. On a simulated clock with the probe loop parked, a
// 16-member join storm pushes nothing, and neither does a member
// dropping out; each of the next ticks sends every live session exactly
// one push — naming all 16 green, then the dropped member red.
func TestLightsRideTheProbeTick(t *testing.T) {
	const members = 16
	n := netsim.New(25)
	sim := clock.NewSim(time.Unix(6000, 0))
	// The TTL outlasts the simulated hours the test advances, so no tick
	// reaps anybody.
	srv, err := New(Config{Network: n, Addr: "srv:1", Clock: sim, ProbeInterval: time.Hour, SessionTTL: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	waitFor(t, "the probe loop to park on the clock", func() bool { return sim.Waiters() == paceParked })

	clients := make([]*client.Client, members)
	taps := make([]*lightsTap, members)
	for i := range clients {
		taps[i] = &lightsTap{}
		c, err := client.Dial(client.Config{
			Network: n.From(fmt.Sprintf("host%d", i)), Addr: "srv:1", Name: fmt.Sprintf("m%d", i),
			Role: "participant", Priority: 2, Timeout: 2 * time.Second, OnEvent: taps[i].observe,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if err := c.Join("class"); err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	// A round trip per client after the storm: anything the joins pushed
	// is queued ahead of its reply.
	fence := func(cs []*client.Client) {
		t.Helper()
		for _, c := range cs {
			if _, err := c.SyncClock(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// pushed asserts how many lights pushes each tap has received and
	// the server has counted.
	pushed := func(when string, perClient []int, total int64) {
		t.Helper()
		for i, want := range perClient {
			if got := len(taps[i].received()); got != want {
				t.Errorf("%s: %s received %d lights pushes, want %d", when, clients[i].MemberID(), got, want)
			}
		}
		if got := srv.lightsPushes.Load(); got != total {
			t.Errorf("%s: server counted %d lights pushes, want %d", when, got, total)
		}
	}
	// tick advances one probe interval and waits for the loop to re-park,
	// i.e. for the tick's work to be done.
	tick := func(wantTotal int64) {
		t.Helper()
		sim.Advance(time.Hour)
		waitFor(t, "the tick's pushes", func() bool { return srv.lightsPushes.Load() >= wantTotal })
		waitFor(t, "the probe loop to park again", func() bool { return sim.Waiters() == paceParked })
	}
	// lastLights waits for the i-th client's want-th push and returns it.
	lastLights := func(i, want int) map[string]string {
		t.Helper()
		waitFor(t, "a lights push to arrive", func() bool { return len(taps[i].received()) >= want })
		got := taps[i].received()
		return got[len(got)-1].Lights
	}
	each := func(v int) []int {
		out := make([]int, members)
		for i := range out {
			out[i] = v
		}
		return out
	}

	fence(clients)
	pushed("after the join storm", each(0), 0)

	tick(members)
	for i := range clients {
		lights := lastLights(i, 1)
		if len(lights) != members {
			t.Errorf("%s's push names %d members, want %d", clients[i].MemberID(), len(lights), members)
		}
		for id, light := range lights {
			if light != string(Green) {
				t.Errorf("%s's push shows %s %s after the storm, want green", clients[i].MemberID(), id, light)
			}
		}
	}
	pushed("after the first tick", each(1), members)

	gone := clients[members-1]
	goneID := gone.MemberID()
	gone.Close()
	waitFor(t, "the server to see the drop", func() bool { return srv.Lights()[goneID] == Red })
	fence(clients[:members-1])
	pushed("after the drop", each(1), members)

	tick(2*members - 1)
	for i := range clients[:members-1] {
		lights := lastLights(i, 2)
		if lights[goneID] != string(Red) {
			t.Errorf("%s's second push shows the dropped member %q, want red", clients[i].MemberID(), lights[goneID])
		}
		if lights[clients[i].MemberID()] != string(Green) {
			t.Errorf("%s's second push shows itself %q, want green", clients[i].MemberID(), lights[clients[i].MemberID()])
		}
	}
	want := each(2)
	want[members-1] = 1
	pushed("after the second tick", want, 2*members-1)

	reg := metrics.NewRegistry()
	srv.RegisterMetrics(reg)
	var page strings.Builder
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	if series := fmt.Sprintf("dmps_lights_pushes_total %d", 2*members-1); !strings.Contains(page.String(), series) {
		t.Errorf("/metrics lacks %q", series)
	}
}
