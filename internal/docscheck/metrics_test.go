package docscheck

import (
	"os"
	"strings"
	"testing"

	"dmps/internal/cluster"
	"dmps/internal/metrics"
	"dmps/internal/netsim"
	"dmps/internal/server"
)

// TestMetricSeriesCatalogued is the metrics half of the documentation
// lint: every series a WAL-backed cluster node or a router registers
// must be catalogued in docs/OPERATIONS.md, so a new series cannot ship
// without the operator being told what it means.
func TestMetricSeriesCatalogued(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	catalogue := string(raw)

	net := netsim.New(1)
	nodes := []string{"n0:1"}
	node, err := server.New(server.Config{
		Network: net, Addr: nodes[0], WALDir: t.TempDir(),
		Cluster: &server.ClusterConfig{Nodes: nodes, Self: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	router, err := cluster.NewRouter(cluster.RouterConfig{Network: net, Addr: "router:1", Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	for who, register := range map[string]func(*metrics.Registry){
		"node": node.RegisterMetrics, "router": router.RegisterMetrics,
	} {
		reg := metrics.NewRegistry()
		register(reg)
		var page strings.Builder
		if err := reg.WritePrometheus(&page); err != nil {
			t.Fatal(err)
		}
		seen := 0
		for _, line := range strings.Split(page.String(), "\n") {
			// Every site of an error counter is its own thing to look up.
			for _, counter := range []string{"dmps_errors_total", "dmps_router_errors_total"} {
				if rest, ok := strings.CutPrefix(line, counter+`{site="`); ok {
					site, _, _ := strings.Cut(rest, `"`)
					if !strings.Contains(catalogue, "`"+site+"`") {
						t.Errorf("%s error site %s is not catalogued in docs/OPERATIONS.md", who, site)
					}
				}
			}
			name, ok := strings.CutPrefix(line, "# TYPE ")
			if !ok {
				continue
			}
			name, _, _ = strings.Cut(name, " ")
			seen++
			if !strings.Contains(catalogue, "`"+name) {
				t.Errorf("%s series %s is not catalogued in docs/OPERATIONS.md", who, name)
			}
		}
		if seen == 0 {
			t.Errorf("%s registered no series", who)
		}
	}
}
