//! # scrub-bench
//!
//! The experiment harness: one module per paper figure/table (see
//! DESIGN.md's experiment index E01–E22), run all together by `run_all`
//! (`cargo run -p scrub-bench --release --bin run_all`) or a few at a time
//! (`-- --only e01,e16`), plus criterion microbenchmarks of the parser and
//! the sketches. The tap and ScrubCentral layers are measured by
//! `scrub_perf` instead.
//!
//! Experiments print the regenerated series/table and a `VERDICT` line
//! stating whether the paper's qualitative shape held.

pub mod experiments;
pub mod util;

pub use util::{percentile, sum_stats, Report, Table};

/// True when quick mode is requested (env `SCRUB_BENCH_QUICK=1` or a
/// `--quick` argument): shorter runs, same shapes.
pub fn quick_mode() -> bool {
    std::env::var("SCRUB_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
        || std::env::args().any(|a| a == "--quick")
}
