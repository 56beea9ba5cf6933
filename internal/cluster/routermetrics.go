package cluster

import (
	"fmt"

	"dmps/internal/metrics"
	"dmps/internal/transport"
)

// RegisterMetrics wires the router's observability series into reg.
// Everything is read at scrape time from state the router already
// maintains — the session table, the routed/relayed counters, the
// shared partition map — so the routing hot path carries no extra
// bookkeeping beyond its throughput and error atomics.
//
// Exported series:
//
//	dmps_router_sessions            live proxied client sessions
//	dmps_router_routed_total        client messages forwarded to nodes
//	dmps_router_relayed_total       node messages relayed to clients
//	dmps_router_errors_total{site}  errors at recover, serve, upstream_send,
//	                                client_send, node_hello
//	dmps_cluster_map_version        partition map change counter
//	dmps_cluster_node_down{node}    1 when the node is in the down-set
//
// plus the dmps_trunk_* series of RegisterTrunkMetrics, side="router".
func (r *Router) RegisterMetrics(reg *metrics.Registry) {
	// The tracing plane (dmps_stage_seconds{stage="relay"}, span/trace
	// counters, /debug/traces) and the runtime health gauges ride the
	// same registry as the routing counters.
	r.plane.RegisterMetrics(reg)
	metrics.RegisterRuntime(reg)
	reg.GaugeFunc("dmps_router_sessions", "Live proxied client sessions.", func() []metrics.Sample {
		return []metrics.Sample{{Value: float64(r.Sessions())}}
	})
	reg.CounterFunc("dmps_router_routed_total", "Client messages forwarded up to cluster nodes.", func() []metrics.Sample {
		return []metrics.Sample{{Value: float64(r.routed.Load())}}
	})
	reg.CounterFunc("dmps_router_relayed_total", "Node messages relayed back down to clients.", func() []metrics.Sample {
		return []metrics.Sample{{Value: float64(r.relayed.Load())}}
	})
	reg.CounterFunc("dmps_router_errors_total", "Router errors by site: recover (a prober pass that did not bring a down node back), serve (the accept loop died), upstream_send (a client message an upstream refused), client_send (a refusal or node_moved of the router's own that the client connection refused), node_hello (an owner answered a session's node hello with anything but a welcome).", func() []metrics.Sample {
		site := func(name string, v int64) metrics.Sample {
			return metrics.Sample{LabelKey: "site", LabelValue: name, Value: float64(v)}
		}
		return []metrics.Sample{
			site("recover", r.recoverErrs.Load()), site("serve", r.serveErrs.Load()), site("upstream_send", r.upstreamSendErrs.Load()),
			site("client_send", r.clientSendErrs.Load()), site("node_hello", r.nodeHelloErrs.Load()),
		}
	})
	RegisterMapMetrics(reg, r.pmap)
	RegisterTrunkMetrics(reg, "router", &r.trunkStats)
}

// RegisterTrunkMetrics exports one end's view of its router↔node trunks
// — the router's over the trunks it dials, a node's over those it
// accepts; side says which:
//
//	dmps_trunk_streams                         session streams open now
//	dmps_trunk_flushes_total                   trunk writes
//	dmps_trunk_frames_per_flush                mean frames per trunk write
//	dmps_trunk_stream_resets_total{side,cause} streams reset: overflow (this
//	                                           end's consumer fell an inbox
//	                                           behind) or peer (the other end did)
//	dmps_trunk_down_total                      trunks that died
func RegisterTrunkMetrics(reg *metrics.Registry, side string, stats *transport.MuxStats) {
	one := func(v int64) []metrics.Sample { return []metrics.Sample{{Value: float64(v)}} }
	reg.GaugeFunc("dmps_trunk_streams", "Session streams open on this end's trunks.", func() []metrics.Sample {
		return one(stats.Streams.Load())
	})
	reg.CounterFunc("dmps_trunk_flushes_total", "Trunk writes (each carries every frame gathered since the last).", func() []metrics.Sample {
		return one(stats.Flushes.Load())
	})
	reg.GaugeFunc("dmps_trunk_frames_per_flush", "Mean frames per trunk write.", func() []metrics.Sample {
		flushes := stats.Flushes.Load()
		if flushes == 0 {
			return []metrics.Sample{{Value: 0}}
		}
		return []metrics.Sample{{Value: float64(stats.Frames.Load()) / float64(flushes)}}
	})
	reg.CounterFunc("dmps_trunk_stream_resets_total", "Streams reset alone, by the end that observed it and why: overflow (its consumer fell an inbox behind) or peer (the other end reset it).", func() []metrics.Sample {
		sample := func(cause string, v int64) metrics.Sample {
			return metrics.Sample{LabelKey: "side", LabelValue: side, Label2Key: "cause", Label2Value: cause, Value: float64(v)}
		}
		return []metrics.Sample{sample("overflow", stats.ResetsOverflow.Load()), sample("peer", stats.ResetsPeer.Load())}
	})
	reg.CounterFunc("dmps_trunk_down_total", "Trunk connections that died (not those closed on shutdown).", func() []metrics.Sample {
		return one(stats.Down.Load())
	})
}

// RegisterMapMetrics exports a partition map's version and down-set.
// Shared by the router and by cluster nodes (both hold a map; each
// exports its own view, which is exactly what an operator comparing
// their disagreement wants).
func RegisterMapMetrics(reg *metrics.Registry, pmap *Map) {
	reg.GaugeFunc("dmps_cluster_map_version", "Partition map version (bumps on every down/up mark).", func() []metrics.Sample {
		return []metrics.Sample{{Value: float64(pmap.Version())}}
	})
	reg.GaugeFunc("dmps_cluster_map_epoch", "Partition map migration epoch (bumps on every coordinated recovery).", func() []metrics.Sample {
		return []metrics.Sample{{Value: float64(pmap.Epoch())}}
	})
	reg.GaugeFunc("dmps_cluster_node_down", "1 when the node is marked down in the partition map.", func() []metrics.Sample {
		out := make([]metrics.Sample, pmap.Len())
		for i := range out {
			v := 0.0
			if pmap.Down(i) {
				v = 1
			}
			out[i] = metrics.Sample{LabelKey: "node", LabelValue: fmt.Sprintf("n%d", i), Value: v}
		}
		return out
	})
}
