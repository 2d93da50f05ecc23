//! # Scrub — online troubleshooting for large mission-critical applications
//!
//! A full Rust reproduction of *Satish, Shiou, Zhang, Elmeleegy,
//! Zwaenepoel — "Scrub: Online TroubleShooting for Large Mission-Critical
//! Applications" (EuroSys 2018)*: the event model and ScrubQL language, the
//! host-impact-minimizing query planner and execution pipeline (host-side
//! selection/projection/sampling; centralized join/group-by/aggregation in
//! ScrubCentral), the two-stage sampling estimator with error bounds, the
//! probabilistic aggregations (TOP-K, COUNT_DISTINCT), a deterministic
//! discrete-event cluster simulator, a Turn-like ad bidding platform with
//! every §8 case-study anomaly, and the logging baseline Scrub is compared
//! against.
//!
//! ```
//! use scrub::prelude::*;
//!
//! // Build the §8.1 spam scenario: a Zipf user population + two bots.
//! let mut cfg = scrub::scenario::spam();
//! cfg.page_views_per_sec = 10.0; // keep the doctest quick
//! let mut platform = build_platform(cfg);
//!
//! // Figure 9's query: count bid requests per user in 10 s windows.
//! let client = ScrubClient::new(&platform.scrub);
//! let query = client
//!     .submit(
//!         &mut platform.sim,
//!         "select bid.user_id, COUNT(*) from bid \
//!          @[Service in BidServers] group by bid.user_id \
//!          window 10 s duration 30 s",
//!     )
//!     .expect("query accepted");
//! platform.sim.run_until(SimTime::from_secs(60));
//!
//! assert!(!query.results(&platform.sim).is_empty());
//! // Every query carries an execution profile: taps, sheds, bytes,
//! // retransmissions, window accounting, ingest latency.
//! let profile = query.profile(&platform.sim).expect("profile");
//! assert!(profile.total_tapped() > 0);
//! ```

pub use adplatform;
pub use scrub_agent as agent;
pub use scrub_baseline as baseline;
pub use scrub_central as central;
pub use scrub_core as core;
pub use scrub_obs as obs;
pub use scrub_server as server;
pub use scrub_simnet as simnet;
pub use scrub_sketch as sketch;

pub use adplatform::scenario;

/// The items most programs need.
pub mod prelude {
    pub use adplatform::{build_platform, Platform, PlatformConfig};
    pub use scrub_central::{QuerySummary, ResultRow};
    pub use scrub_core::prelude::*;
    pub use scrub_obs::{
        default_rules, merge_timelines, render_timeline, render_timeline_json, AlertEngine,
        AlertEvent, AlertEventKind, AlertLog, AlertProvenance, AlertRule, AnomalyDetector,
        FlightEvent, FlightEventKind, FlightRecorder, HostLosses, HostProfile, LossLedger,
        MetricsHistory, MetricsSnapshot, QueryProfile, RuleKind, SpanKind, TraceSpan, TraceStore,
    };
    pub use scrub_server::{
        deploy_central, deploy_server, AgentHarness, QueryHandle, QueryState, ScrubClient,
        ScrubDeployment, ScrubEnvelope, ScrubMsg,
    };
    pub use scrub_simnet::{
        FaultPlan, FaultStats, NodeId, NodeMeta, NodeSel, Sim, SimDuration, SimTime, Topology,
    };
}
