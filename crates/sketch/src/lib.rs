//! # scrub-sketch
//!
//! Probabilistic substrate for Scrub (EuroSys '18): the sketches behind the
//! approximate aggregations of §3.2 — TOP-K via the SpaceSaving stream
//! summary and COUNT_DISTINCT via HyperLogLog — plus the two-stage
//! sampling estimator (Equations 1–3) that turns host/event sampling rates
//! into point estimates with confidence bounds, and the numerical support
//! they need (streaming moments, Student-t quantiles).

pub mod estimator;
pub mod hyperloglog;
pub mod spacesaving;
pub mod tdist;
pub mod welford;

pub use estimator::{estimate_total, HostSample, TwoStageEstimate};
pub use hyperloglog::{hash64, HyperLogLog};
pub use spacesaving::{Counter, SpaceSaving};
pub use tdist::{t_cdf, t_critical, t_quantile};
pub use welford::Welford;
