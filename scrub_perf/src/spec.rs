//! What the benchmark measures, by name: the workloads, the end-to-end
//! metrics with the bound by which each may worsen, and the per-layer
//! metrics with the end-to-end metric each should move. `BENCHMARK.json`
//! states the same names, units, directions and bounds for the driver; a
//! unit test keeps the two from drifting.

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (restated in `BENCHMARK.json`).
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tap_fanout",
        why: "1 agent, 32 selective queries, ~2% of subscription x event pairs ship: host-bound, nearly all wall is inside log()",
    },
    Workload {
        name: "agg_ingest",
        why: "4 agents, 1 pass-through grouped aggregate over 5000 Zipf keys: central-bound on the columnar aggregate path, every event ships",
    },
    Workload {
        name: "join_ingest",
        why: "bid + exclusion hosts, request-id equi-join with a cross-type residual, string group keys: central-bound on the row-materialising join path",
    },
    Workload {
        name: "platform_sim",
        why: "whole deployment on the simulator with 8 live queries: reliable shipping, central node, admission, health plane; the only place freshness includes transit",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_ns_per_event",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "central_events_per_s",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "wire_bytes_per_event",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.03,
    },
    EndToEnd {
        name: "freshness_p50_ms",
        unit: "ms_sim",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "freshness_p99_ms",
        unit: "ms_sim",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "mem_peak_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Only `BENCHMARK.json` states a direction for a layer metric (checked
    /// by a test); the reports show no verdict for one.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    /// The end-to-end metric this layer metric should move, and where: the
    /// prediction a later change is held to.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 39] = [
    layer("core.ql.compile_us", "us", Lower, "setup_s only"),
    layer("agent.install_us", "us", Lower, "setup_s only"),
    layer(
        "agent.tap.log_ns",
        "ns",
        Lower,
        "host_ns_per_event and events_per_s on tap_fanout; about a third of events_per_s on agg_ingest",
    ),
    layer("agent.tap.log_ns_q0", "ns", Lower, "the idle fast path: must stay near free"),
    layer("agent.tap.log_ns_q1", "ns", Lower, "slope over q = per-subscription cost -> host_ns_per_event on tap_fanout"),
    layer("agent.tap.log_ns_q8", "ns", Lower, "slope over q = per-subscription cost -> host_ns_per_event on tap_fanout"),
    layer("agent.tap.log_ns_q32", "ns", Lower, "slope over q = per-subscription cost -> host_ns_per_event on tap_fanout"),
    layer(
        "agent.tap.ship_ns_per_event",
        "ns",
        Lower,
        "project+buffer+encode -> host_ns_per_event on agg_ingest and join_ingest, not tap_fanout",
    ),
    layer(
        "agent.tap.log_contended_ns",
        "ns",
        Lower,
        "informational: 2 threads on one agent; evidence for sharding the outbox",
    ),
    layer("agent.tap.predicates_per_event", "count", Lower, "work ratio behind host_ns_per_event"),
    layer("agent.tap.ship_ratio", "ratio", Lower, "events shipped per log() call (32 subscriptions x ~2% on tap_fanout); workload property, should not move"),
    layer(
        "agent.batch.take_batches_ns_per_event",
        "ns",
        Lower,
        "host_ns_per_event on agg_ingest",
    ),
    layer("agent.batch.events_per_batch", "count", Higher, "batching efficiency; wire_bytes_per_event"),
    layer(
        "central.ingest_ns_per_event",
        "ns",
        Lower,
        "central_events_per_s and events_per_s on agg_ingest and join_ingest",
    ),
    layer(
        "central.advance_ns_per_row",
        "ns",
        Lower,
        "central_events_per_s on agg_ingest (~5k rows per window); near nothing on join_ingest",
    ),
    layer("central.rows_emitted", "count", Higher, "workload property, should not move"),
    layer("central.finish_ms", "ms", Lower, "tail only; no end-to-end metric"),
    layer(
        "central.op.decode_route_ns_per_event",
        "ns",
        Lower,
        "program-reported share of central.ingest_ns_per_event",
    ),
    layer(
        "central.op.join_ns_per_event",
        "ns",
        Lower,
        "program-reported; join_ingest only",
    ),
    layer(
        "central.op.residual_ns_per_event",
        "ns",
        Lower,
        "program-reported; join_ingest only",
    ),
    layer(
        "central.op.aggregate_ns_per_event",
        "ns",
        Lower,
        "program-reported share of central.ingest_ns_per_event",
    ),
    layer(
        "central.op.window_close_ns_per_row",
        "ns",
        Lower,
        "program-reported share of central.advance_ns_per_row",
    ),
    layer("central.join.match_ratio", "ratio", Higher, "workload property, should not move"),
    layer("simnet.sim_events_per_wall_s", "1/s", Higher, "events_per_s on platform_sim only"),
    layer("simnet.sim_events_per_tap_event", "ratio", Lower, "events_per_s on platform_sim only"),
    layer("simnet.wire_bytes_total", "bytes", Lower, "wire_bytes_per_event on platform_sim"),
    layer(
        "adplatform.idle_ns_per_event",
        "ns",
        Lower,
        "denominator of every platform_sim claim: the platform with no query installed",
    ),
    layer("server.scrub_share_of_wall", "ratio", Lower, "how much of platform_sim wall is Scrub"),
    layer("server.submit_us", "us", Lower, "setup_s"),
    layer("server.time_to_first_row_ms", "ms_sim", Lower, "freshness_*"),
    layer("server.drain_ms", "ms_sim", Lower, "no end-to-end metric"),
    layer("obs.snapshot_us", "us", Lower, "events_per_s on platform_sim (one call per advance tick)"),
    layer("obs.render_text_us", "us", Lower, "no end-to-end metric (operator-facing)"),
    layer("obs.tsdb_record_us", "us", Lower, "events_per_s on platform_sim (one call per advance tick)"),
    layer("obs.alert_tick_us", "us", Lower, "events_per_s on platform_sim (one call per advance tick)"),
    layer("obs.metrics_registered", "count", Lower, "scales snapshot, record and render cost"),
    layer("driver.self_ns_per_event", "ns", Lower, "harness cost; must stay under 5% of the workload's ns per event"),
    layer("driver.attributed_share", "ratio", Higher, "share of a chunk's wall inside named layer spans; must stay above 0.9"),
    layer("driver.trace_overhead_pct", "%", Lower, "harness cost; must stay under 5"),
];
