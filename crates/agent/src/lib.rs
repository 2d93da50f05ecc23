//! # scrub-agent
//!
//! The host-side Scrub agent (§4–§5): the compiled-in event tap, the
//! active-query table, and the only operators Scrub ever runs on an
//! application host — selection, projection and per-event sampling — plus
//! batching toward ScrubCentral, per-query load shedding, and the counters
//! and cost model behind the host-overhead experiments.

pub mod batch;
pub mod cost;
mod program;
pub mod reliable;
pub mod stats;
pub mod tap;

pub use batch::{BatchPayload, EventBatch};
pub use cost::CostModel;
pub use reliable::{ReliableShipper, Retransmit, RetryPolicy};
pub use stats::{AgentStats, StatsSnapshot};
pub use tap::{ScrubAgent, MAX_EVENT_TYPES};
