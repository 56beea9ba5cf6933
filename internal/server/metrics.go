package server

import (
	"dmps/internal/cluster"
	"dmps/internal/metrics"
)

// RegisterMetrics wires the server's observability series into reg.
// Every series is a scrape-time read of a counter the server already
// maintains for its own purposes — the session table and its
// backpressure atomics, the coalescing planes' storm counters, the
// event-log plane's occupancy and compaction bookkeeping, and (in
// cluster mode) the forward pool and partition map — so enabling the
// endpoint adds nothing to the broadcast hot path and nothing is
// sampled twice.
//
// Session series are aggregated across members, not labelled per
// member: at fleet scale a per-member series set would make every
// scrape O(population) in exposition size, while the aggregate plus the
// existing per-member lights/backpressure push covers both audiences.
//
// Exported series:
//
//	dmps_sessions                        live sessions on this node
//	dmps_session_queue_depth             queued events across sessions
//	dmps_session_queue_cap               queue capacity across sessions
//	dmps_session_drops_total             slow-consumer drops
//	dmps_session_filtered_total          events skipped by class filters
//	dmps_board_ops_total                 board ops accepted into batches
//	dmps_board_events_total              board batch events logged
//	dmps_board_flush_total{cause}        logged board events by cause
//	dmps_board_hold_seconds              oldest-op age of flushed batches
//	dmps_errors_total{site}              errors counted instead of dropped
//	dmps_lights_pushes_total             lights pushes queued by the probe tick
//	dmps_grouplog_logs                   live event logs
//	dmps_grouplog_entries                retained entries across logs
//	dmps_grouplog_compactions_total      compaction runs
//	dmps_grouplog_evicted_total          entries dropped by compaction
//	dmps_groups                          groups in the registry
//	dmps_wire_bytes_total{dir}           client wire payload bytes, in/out
//	dmps_wire_flushes_total              session writer flushes
//	dmps_wire_inline_total               frames written on the sender (write-through)
//	dmps_wire_msgs_per_flush             mean messages per writer flush
//	dmps_stage_seconds{stage}            per-stage latency of sampled ops
//	dmps_trace_spans_total               spans recorded by the trace plane
//	dmps_traces_total                    traces assembled by the sweeper
//	dmps_goroutines                      live goroutines
//	dmps_heap_bytes                      heap in use
//	dmps_gc_pause_seconds_total          cumulative GC pause time
//
// The trace plane also mounts its /debug/traces handler on the
// registry's extra-route table (served beside /metrics).
//
// With a WAL configured:
//
//	dmps_wal_segments                    live WAL segments
//	dmps_wal_bytes                       bytes across live WAL segments
//
// and, in cluster mode, dmps_cluster_forwards_total{peer},
// dmps_cluster_forward_bytes_total{peer},
// dmps_cluster_forward_drops_total{peer}, dmps_cluster_redials_total{peer},
// dmps_cluster_circuit_open{peer}, the replication-durability series
//
//	dmps_repl_ack_latency_seconds        oldest unacked ship→head-moving ack
//	dmps_repl_unacked                    events and records not acked, over (peer, key)
//	dmps_repl_resends_total              repair forwards sent
//
// plus the shared partition-map series from cluster.RegisterMapMetrics
// (including dmps_cluster_map_epoch) and the dmps_trunk_* series of
// cluster.RegisterTrunkMetrics, side="node", over the routing tier's
// trunk connections this node serves.
func (s *Server) RegisterMetrics(reg *metrics.Registry) {
	one := func(v float64) []metrics.Sample { return []metrics.Sample{{Value: v}} }
	// The tracing plane (dmps_stage_seconds{stage}, span/trace counters,
	// /debug/traces) and the runtime health gauges ride the same registry.
	s.plane.RegisterMetrics(reg)
	metrics.RegisterRuntime(reg)
	reg.GaugeFunc("dmps_sessions", "Live sessions on this node.", func() []metrics.Sample {
		s.mu.Lock()
		defer s.mu.Unlock()
		return one(float64(len(s.sessions)))
	})
	type sessTotals struct{ depth, capacity, drops, filtered float64 }
	totals := func() sessTotals {
		var t sessTotals
		for _, st := range s.SessionStats() {
			t.depth += float64(st.QueueDepth)
			t.capacity += float64(st.QueueCap)
			t.drops += float64(st.Drops)
			t.filtered += float64(st.Filtered)
		}
		return t
	}
	reg.GaugeFunc("dmps_session_queue_depth", "Events queued across all session send queues.", func() []metrics.Sample {
		return one(totals().depth)
	})
	reg.GaugeFunc("dmps_session_queue_cap", "Total send-queue capacity across sessions.", func() []metrics.Sample {
		return one(totals().capacity)
	})
	reg.CounterFunc("dmps_session_drops_total", "Events dropped on slow-consumer queues.", func() []metrics.Sample {
		return one(totals().drops)
	})
	reg.CounterFunc("dmps_session_filtered_total", "Events skipped by per-session class filters.", func() []metrics.Sample {
		return one(totals().filtered)
	})
	reg.CounterFunc("dmps_board_ops_total", "Board operations accepted into batches.", func() []metrics.Sample {
		ops, _ := s.BoardStormStats()
		return one(float64(ops))
	})
	reg.CounterFunc("dmps_board_events_total", "Batched board events logged and fanned out.", func() []metrics.Sample {
		_, logged := s.BoardStormStats()
		return one(float64(logged))
	})
	reg.CounterFunc("dmps_board_flush_total", "Logged board events by cause: inline (never held), deadline (pacing slot ended), type (chat vs annotate), full (count or byte bound), explicit.", func() []metrics.Sample {
		out := make([]metrics.Sample, numFlushCauses)
		for c := range out {
			out[c] = metrics.Sample{LabelKey: "cause", LabelValue: flushCauseNames[c], Value: float64(s.boardFlushes[c].Load())}
		}
		return out
	})
	reg.RegisterHistogram("dmps_board_hold_seconds",
		"Age of the oldest operation in a board batch when it was logged; inline events are never held and not observed.", s.boardHold)
	reg.CounterFunc("dmps_errors_total", "Errors counted at sites that used to discard them.", func() []metrics.Sample {
		return []metrics.Sample{
			{LabelKey: "site", LabelValue: "log_append", Value: float64(s.logAppendErrs.Load())},
			{LabelKey: "site", LabelValue: "wal_append", Value: float64(s.walAppendErrs.Load())},
			{LabelKey: "site", LabelValue: "state_install", Value: float64(s.installErrs.Load())},
			{LabelKey: "site", LabelValue: "wal_checkpoint", Value: float64(s.ckptErrs.Load())},
			{LabelKey: "site", LabelValue: "wal_close", Value: float64(s.walCloseErrs.Load())},
			{LabelKey: "site", LabelValue: "migrate_send", Value: float64(s.migrateSendErrs.Load())},
			{LabelKey: "site", LabelValue: "replica_apply", Value: float64(s.replicaApplyErrs.Load())},
			{LabelKey: "site", LabelValue: "accept", Value: float64(s.acceptErrs.Load())},
		}
	})
	reg.CounterFunc("dmps_lights_pushes_total", "Connection-lights pushes queued by the probe tick.", func() []metrics.Sample {
		return one(float64(s.lightsPushes.Load()))
	})
	reg.GaugeFunc("dmps_grouplog_logs", "Live per-key event logs.", func() []metrics.Sample {
		return one(float64(s.logs.Stats().Logs))
	})
	reg.GaugeFunc("dmps_grouplog_entries", "Retained entries across all event logs.", func() []metrics.Sample {
		return one(float64(s.logs.Stats().Entries))
	})
	reg.CounterFunc("dmps_grouplog_compactions_total", "Event-log compaction runs.", func() []metrics.Sample {
		return one(float64(s.logs.Stats().Compactions))
	})
	reg.CounterFunc("dmps_grouplog_evicted_total", "Event-log entries dropped by compaction.", func() []metrics.Sample {
		return one(float64(s.logs.Stats().Evicted))
	})
	reg.GaugeFunc("dmps_groups", "Groups in the registry.", func() []metrics.Sample {
		return one(float64(len(s.registry.Groups())))
	})
	reg.CounterFunc("dmps_wire_bytes_total", "Client wire payload bytes by direction.", func() []metrics.Sample {
		return []metrics.Sample{
			{LabelKey: "dir", LabelValue: "in", Value: float64(s.wireIn.Load())},
			{LabelKey: "dir", LabelValue: "out", Value: float64(s.wireOut.Load())},
		}
	})
	reg.CounterFunc("dmps_wire_flushes_total", "Session writer flushes (batched writes).", func() []metrics.Sample {
		return one(float64(s.wireFlushes.Load()))
	})
	reg.CounterFunc("dmps_wire_inline_total", "Session frames written on the sending goroutine, each also a one-message flush.", func() []metrics.Sample {
		return one(float64(s.wireInline.Load()))
	})
	reg.GaugeFunc("dmps_wire_msgs_per_flush", "Mean messages per session writer flush.", func() []metrics.Sample {
		flushes := s.wireFlushes.Load()
		if flushes == 0 {
			return one(0)
		}
		return one(float64(s.wireMsgsOut.Load()) / float64(flushes))
	})
	if s.wal != nil {
		reg.GaugeFunc("dmps_wal_segments", "Live write-ahead log segments.", func() []metrics.Sample {
			return one(float64(s.WALStats().Segments))
		})
		reg.GaugeFunc("dmps_wal_bytes", "Bytes across live write-ahead log segments.", func() []metrics.Sample {
			return one(float64(s.WALStats().Bytes))
		})
	}
	if s.cluster == nil {
		return
	}
	reg.RegisterHistogram("dmps_repl_ack_latency_seconds",
		"Replication lag: a replica's oldest unacked ship to the ack that moves its head.", s.cluster.ackLatency)
	reg.GaugeFunc("dmps_repl_unacked", "Events, package and drop records the replicas have not acked, summed over (peer, key).", func() []metrics.Sample {
		return one(float64(s.ReplicationPending()))
	})
	reg.CounterFunc("dmps_repl_resends_total", "Forwards sent to repair a replica that stayed behind.", func() []metrics.Sample {
		return one(float64(s.cluster.repairs.Load()))
	})
	peerSamples := func(pick func(cluster.PeerStats) int64) []metrics.Sample {
		stats := s.cluster.pool.PeerStats()
		out := make([]metrics.Sample, 0, len(stats))
		for addr, st := range stats {
			out = append(out, metrics.Sample{LabelKey: "peer", LabelValue: addr, Value: float64(pick(st))})
		}
		return out
	}
	reg.CounterFunc("dmps_cluster_forwards_total", "Replication forwards queued, by peer.", func() []metrics.Sample {
		return peerSamples(func(st cluster.PeerStats) int64 { return st.Sent })
	})
	reg.CounterFunc("dmps_cluster_forward_bytes_total", "Bytes of the replication forwards queued, by peer.", func() []metrics.Sample {
		return peerSamples(func(st cluster.PeerStats) int64 { return st.Bytes })
	})
	reg.CounterFunc("dmps_cluster_forward_drops_total", "Replication forwards dropped, by peer.", func() []metrics.Sample {
		return peerSamples(func(st cluster.PeerStats) int64 { return st.Drops })
	})
	reg.CounterFunc("dmps_cluster_redials_total", "Peer link re-dial attempts, by peer.", func() []metrics.Sample {
		return peerSamples(func(st cluster.PeerStats) int64 { return st.Redials })
	})
	reg.GaugeFunc("dmps_cluster_circuit_open", "1 while the peer's dial circuit is open (cooling off), by peer.", func() []metrics.Sample {
		stats := s.cluster.pool.PeerStats()
		out := make([]metrics.Sample, 0, len(stats))
		for addr, st := range stats {
			v := 0.0
			if st.CircuitOpen {
				v = 1
			}
			out = append(out, metrics.Sample{LabelKey: "peer", LabelValue: addr, Value: v})
		}
		return out
	})
	cluster.RegisterMapMetrics(reg, s.cluster.topo)
	cluster.RegisterTrunkMetrics(reg, "node", &s.trunks)
}
