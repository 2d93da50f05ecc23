//! # scrub-baseline
//!
//! The alternative Scrub replaces: troubleshooting by logging (§1, §8.1).
//! Every event is logged in full, shipped cross-DC to a warehouse, and
//! questions are answered by offline batch jobs. The crate provides a
//! batch query engine that doubles as a correctness oracle for the live
//! pipeline, and a cost model (transfer, scan, storage, time-to-answer)
//! for the §8.1 comparison.

pub mod batch;
pub mod costmodel;

pub use batch::{apply_host_plan, run_batch};
pub use costmodel::{LoggingCostModel, LoggingCosts};
