//! Deployment-wide configuration and defaults.

use serde::{Deserialize, Serialize};

/// Configuration knobs shared by the query server, agents and ScrubCentral.
///
/// A knob is what a deployment or an experiment tunes; a value nothing
/// tunes is a constant in the component that owns it. The paper's query
/// defaults — 10-second tumbling windows, spans of minutes so a forgotten
/// query cannot load the system forever (§3.2) — sit beside the planner
/// (`scrub_core::plan::DEFAULT_WINDOW_MS` and its siblings); the health
/// plane's tuning and the telemetry store's tier sizes are fixed in
/// `scrub-obs`, the tap's trace-span cap in `scrub_obs::trace`, and the
/// retransmit ceiling and buffer in the agent's `RetryPolicy::default()`.
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
    /// Per-host CPU envelope for Scrub tap work, as a fraction of one
    /// core (the paper's ≤2.5 % guarantee, §2). Both the agent's budget
    /// tracker and central admission control price against this figure
    /// via the deterministic cost model; both are on exactly when
    /// `admission` is not `Off`.
    #[serde(default = "default_host_cpu_budget")]
    pub host_cpu_budget: f64,
    /// Central: cap on distinct group-by keys held per window. Overflow
    /// follows a deterministic keep-smallest-keys policy (the same key
    /// set survives whatever the arrival order); dropped rows are counted
    /// in `groups_overflow` and surviving rows of the window are marked
    /// degraded. The default is far above every reproduced workload's
    /// cardinality, so results are unchanged unless a run opts into a
    /// tighter cap.
    #[serde(default = "default_max_groups")]
    pub max_groups: usize,
    /// The overload switch: the admission-control policy the server
    /// applies when a new query's estimated per-host cost would push the
    /// running total past `host_cpu_budget`. Any policy but `Off` also
    /// has every agent enforce `host_cpu_budget` at the tap — once the
    /// modeled ns spent this second exceed it, further per-event ship
    /// work is shed and counted as `budget_shed` in the loss ledger — so
    /// the two layers hold one envelope together. `Off` (the default)
    /// admits everything and sheds nothing for the budget: enforcement
    /// changes results, so it is an explicit opt-in.
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
fn default_host_grace_ms() -> i64 {
    5_000
}
fn default_trace_sample_rate() -> f64 {
    0.0
}
fn default_host_cpu_budget() -> f64 {
    0.025
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
            host_grace_ms: default_host_grace_ms(),
            trace_sample_rate: default_trace_sample_rate(),
            host_cpu_budget: default_host_cpu_budget(),
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
        // Overload protection defaults: the paper's 2.5 % envelope, with
        // admission control (and with it tap enforcement) opt-in so the
        // reproduced figures are unchanged out of the box.
        assert_eq!(c.host_cpu_budget, 0.025);
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
                "agent_retry_base_ms",
                "host_cpu_budget",
                "host_grace_ms",
                "max_groups",
                "trace_sample_rate",
                "window_grace_ms",
            ]
        );
        let retired: [(&[&str], &str); 23] = [
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
            // one overload switch: tap enforcement follows admission
            (&["enforce", "host", "budget"], "true"),
            // retransmit tuning beyond the first retry, now the agent's
            // retry policy default
            (&["agent", "retry", "max", "ms"], "30000"),
            (&["agent", "retransmit", "buffer"], "1024"),
            // the tap's trace-span cap, now a constant in the obs crate
            (&["trace", "span", "budget"], "256"),
            // telemetry store sizes, now constants in the obs crate
            (&["obs", "history", "len"], "240"),
            (&["tsdb", "mid", "factor"], "10"),
            (&["tsdb", "coarse", "factor"], "100"),
            (&["tsdb", "tier", "cap"], "240"),
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
