//! From what a workload measured to the numbers the benchmark reports: the
//! end-to-end metrics (see [`over_segments`]), the per-layer metrics
//! (totals of spans, program-reported operator counters), the result file
//! and the one-line result the driver reads.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::layers::OpStat;
use crate::layers::TapCounters;
use crate::spec::{Better, EndToEnd, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quantile, ratio, sorted, tail_percentile};
use crate::trace::Tracer;
use crate::trace::{totals_by_name, Span};

/// Per-segment accumulators behind the end-to-end metrics. A segment is one
/// simulated second: ten 100 ms chunks, one tumbling window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Segment {
    /// Whether spans were recorded while it ran (traced runs alternate).
    pub traced: bool,
    /// Offered `log()` calls.
    pub events: u64,
    /// Wall of the whole path, the driver's own work included.
    pub wall_ns: u64,
    /// Wall inside `log()` + `take_batches` (direct), or the wall Scrub adds
    /// over the idle platform (`platform_sim`).
    pub host_ns: u64,
    /// Wall inside `ingest` + `advance` (direct), or the same added wall
    /// (`platform_sim`, where one thread runs everything).
    pub central_ns: u64,
    /// Events handed to ScrubCentral.
    pub central_events: u64,
    pub wire_bytes: u64,
    pub shipped: u64,
}

/// What one run of a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Wall of each repeated set-up.
    pub setup_s: Vec<f64>,
    /// `VmHWM` after `FIXED_WORK_SEGMENTS` timed segments.
    pub mem_peak_mb: f64,
    pub segments: Vec<Segment>,
    /// Window end to first row, simulated ms, one sample per query x window.
    pub freshness: Vec<f64>,
    /// Events the oracle says results must count, and how many they did.
    pub attempted: u64,
    pub delivered: u64,
    pub rows: u64,
    pub rows_digest: String,
    pub errors: Vec<String>,
    pub layers: BTreeMap<String, f64>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unlisted layer metric {name}"
        );
        self.layers.insert(name.to_string(), value);
    }

    pub fn failed(&self) -> u64 {
        self.attempted.saturating_sub(self.delivered)
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.attempted > 0
    }

    /// `driver.trace_overhead_pct`: a traced run records spans in every
    /// other segment, so each adjacent pair of segments gives the rate with
    /// and without; the median over pairs shrugs off drift during the run.
    pub fn trace_overhead_pct(&self) -> f64 {
        let rate = |s: &Segment| s.events as f64 / s.wall_ns as f64;
        let pairs: Vec<f64> = self
            .segments
            .chunks_exact(2)
            .filter(|p| p[0].traced != p[1].traced)
            .map(|p| {
                let (on, off) = if p[0].traced {
                    (&p[0], &p[1])
                } else {
                    (&p[1], &p[0])
                };
                (rate(off) - rate(on)) / rate(off) * 100.0
            })
            .collect();
        if pairs.is_empty() {
            0.0
        } else {
            median(&pairs)
        }
    }
}

/// One reported number with what supports it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    /// First decile, median and ninth decile of the samples behind `value`.
    pub p10: Option<f64>,
    pub p50: Option<f64>,
    pub p90: Option<f64>,
    pub samples: u64,
}

fn deciles(unit: &str, value: f64, samples: &[f64]) -> Metric {
    Metric {
        value,
        unit: unit.to_string(),
        p10: Some(quantile(samples, 0.10)),
        p50: Some(median(samples)),
        p90: Some(quantile(samples, 0.90)),
        samples: samples.len() as u64,
    }
}

/// Equal stretches the timed section is cut into for a wall-clock metric.
const STRETCHES: usize = 5;

/// A wall-clock metric is the median over the run's five stretches of each
/// stretch's *fast decile* over segments: the decile on the better side.
///
/// The fast decile, because on a shared box a segment is either undisturbed
/// or some 40 % slower while a neighbour holds the core's other half, and
/// how many segments of a run are disturbed changes from run to run: over
/// ten runs the median over segments spread up to 16 %, the fast decile
/// under 5 %. Disturbance only ever slows a segment, so the fast decile is
/// the program's own speed. Per stretch, because the fast decile of the
/// whole run is always found among the early segments, before state has
/// grown: a program that slows down as the run goes on moves the later
/// stretches, and with them their median.
fn over_segments(spec: &EndToEnd, samples: Vec<f64>) -> Metric {
    let fast = match spec.better {
        Better::Lower => 0.10,
        Better::Higher => 0.90,
    };
    let n = samples.len();
    let per_stretch: Vec<f64> = (0..STRETCHES)
        .map(|i| &samples[i * n / STRETCHES..(i + 1) * n / STRETCHES])
        .filter(|stretch| !stretch.is_empty())
        .map(|stretch| quantile(&sorted(stretch), fast))
        .collect();
    deciles(spec.unit, median(&per_stretch), &sorted(&samples))
}

fn single(unit: &str, value: f64, samples: u64) -> Metric {
    Metric {
        value,
        unit: unit.to_string(),
        p10: None,
        p50: None,
        p90: None,
        samples,
    }
}

/// The percentile `freshness_p99_ms` reports: the 99th, or, on a run too
/// short to have ten samples beyond that, the highest that has.
pub fn freshness_tail(samples: usize) -> f64 {
    tail_percentile(samples).map_or(50.0, |p| p.min(99.0))
}

/// The end-to-end metrics of an untraced run, by the names in `spec`.
pub fn end_to_end(out: &Outcome) -> BTreeMap<String, Metric> {
    let seg = &out.segments;
    let fresh = sorted(&out.freshness);
    let fixed = &seg[..seg.len().min(crate::FIXED_WORK_SEGMENTS)];
    let shipped: u64 = fixed.iter().map(|s| s.shipped).sum();
    let bytes: u64 = fixed.iter().map(|s| s.wire_bytes).sum();
    END_TO_END
        .iter()
        .map(|spec| {
            let per = |f: &dyn Fn(&Segment) -> f64| {
                over_segments(spec, seg.iter().map(f).collect::<Vec<f64>>())
            };
            let metric = match spec.name {
                "events_per_s" => per(&|s| s.events as f64 * 1e9 / s.wall_ns as f64),
                "host_ns_per_event" => per(&|s| s.host_ns as f64 / s.events as f64),
                "central_events_per_s" => {
                    per(&|s| s.central_events as f64 * 1e9 / s.central_ns as f64)
                }
                "wire_bytes_per_event" => single(spec.unit, bytes as f64 / shipped as f64, shipped),
                "freshness_p50_ms" => deciles(spec.unit, quantile(&fresh, 0.50), &fresh),
                "freshness_p99_ms" => {
                    let tail = freshness_tail(fresh.len());
                    deciles(spec.unit, quantile(&fresh, tail / 100.0), &fresh)
                }
                "mem_peak_mb" => single(spec.unit, out.mem_peak_mb, 1),
                "setup_s" => {
                    let v = sorted(&out.setup_s);
                    deciles(spec.unit, median(&v), &v)
                }
                other => panic!("no definition for end-to-end metric {other}"),
            };
            (spec.name.to_string(), metric)
        })
        .collect()
}

/// The per-layer metrics of a traced run: every listed name, 0 where the
/// workload does not exercise the layer.
pub fn per_layer(out: &Outcome) -> BTreeMap<String, Metric> {
    PER_LAYER
        .iter()
        .map(|spec| {
            let value = out.layers.get(spec.name).copied().unwrap_or(0.0);
            (spec.name.to_string(), single(spec.unit, value, 1))
        })
        .collect()
}

/// Work and waste at the tap, from the agents' own (exact) counters.
pub fn tap_layers(out: &mut Outcome, tap: &TapCounters) {
    let per_call = |n: u64| ratio(n as f64, tap.log_calls as f64);
    out.layer("agent.tap.predicates_per_event", per_call(tap.predicates));
    out.layer("agent.tap.ship_ratio", per_call(tap.shipped));
    out.layer(
        "agent.batch.events_per_batch",
        ratio(tap.shipped as f64, tap.batches as f64),
    );
}

/// The harness's own cost: what the `chunk` spans do not hand to a child
/// span, per event of the traced segments, and the tracing overhead.
pub fn driver_layers(out: &mut Outcome, spans: &[Span]) {
    let chunk = totals_by_name(spans)
        .get("chunk")
        .copied()
        .unwrap_or_default();
    let traced_events: u64 = out
        .segments
        .iter()
        .filter(|s| s.traced)
        .map(|s| s.events)
        .sum();
    out.layer(
        "driver.self_ns_per_event",
        ratio(chunk.self_ns as f64, traced_events as f64),
    );
    out.layer(
        "driver.attributed_share",
        1.0 - ratio(chunk.self_ns as f64, chunk.total_ns as f64),
    );
    out.layer("driver.trace_overhead_pct", out.trace_overhead_pct());
}

/// Per-operator figures out of the program's own `EXPLAIN ANALYZE`
/// counters, summed over queries (program-reported, not measured here).
pub fn op_layers(out: &mut Outcome, ops: &[OpStat]) {
    let sum = |label: &str, f: &dyn Fn(&OpStat) -> u64| -> f64 {
        ops.iter()
            .filter(|o| o.label.starts_with(label))
            .map(f)
            .sum::<u64>() as f64
    };
    let ns = |label: &str| sum(label, &|o| o.ns);
    let rows_in = |label: &str| sum(label, &|o| o.rows_in);
    let rows_out = |label: &str| sum(label, &|o| o.rows_out);
    out.layer(
        "central.op.decode_route_ns_per_event",
        ratio(ns("decode/route"), rows_in("decode/route")),
    );
    out.layer(
        "central.op.join_ns_per_event",
        ratio(ns("join-"), rows_in("join-build")),
    );
    out.layer(
        "central.op.residual_ns_per_event",
        ratio(ns("residual-filter"), rows_in("residual-filter")),
    );
    out.layer(
        "central.op.aggregate_ns_per_event",
        ratio(ns("group/aggregate"), rows_in("group/aggregate")),
    );
    out.layer(
        "central.op.window_close_ns_per_row",
        ratio(ns("window-close"), rows_out("group/aggregate")),
    );
    out.layer(
        "central.join.match_ratio",
        ratio(rows_out("residual-filter"), rows_in("residual-filter")),
    );
}

/// One run as it is written to `<out>/<workload>[.traced].json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub seconds: f64,
    /// Fixed event count, when `--events` pinned the work.
    pub events: Option<u64>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rows: u64,
    pub rows_digest: String,
    /// Wall of the whole process up to the report.
    pub wall_s: f64,
    pub metrics: BTreeMap<String, Metric>,
    pub errors: Vec<String>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    pub machine: crate::sysinfo::Machine,
    pub runs: Vec<RunRecord>,
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric exactly a `value` with all its digits and a
/// `unit`.
pub fn driver_line(r: &RunRecord) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

/// Every metric by name and unit, for a person.
pub fn print_table(r: &RunRecord) {
    println!(
        "# scrub_perf {} seed {} ({})",
        r.workload,
        r.seed,
        match r.events {
            Some(n) => format!("{n} events"),
            None => format!("{} s", r.seconds),
        }
    );
    if let Some(w) = WORKLOADS.iter().find(|w| w.name == r.workload) {
        println!("# {}", w.why);
    }
    let opt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
    if r.trace {
        // a traced run: each layer metric with the end-to-end metric it
        // should move
        println!("{:<40} {:>16} {:<7} should move", "metric", "value", "unit");
        for spec in &PER_LAYER {
            if let Some(m) = r.metrics.get(spec.name) {
                println!(
                    "{:<40} {:>16.4} {:<7} {}",
                    spec.name, m.value, m.unit, spec.moves
                );
            }
        }
    } else {
        println!(
            "{:<22} {:>16} {:<9} {:>14} {:>14} {:>14} {:>8}  better  bound",
            "metric", "value", "unit", "p10", "p50", "p90", "samples"
        );
        for spec in &END_TO_END {
            if let Some(m) = r.metrics.get(spec.name) {
                println!(
                    "{:<22} {:>16.4} {:<9} {:>14} {:>14} {:>14} {:>8}  {:<6}  {:.0}%",
                    spec.name,
                    m.value,
                    m.unit,
                    opt(m.p10),
                    opt(m.p50),
                    opt(m.p90),
                    m.samples,
                    format!("{:?}", spec.better).to_lowercase(),
                    spec.bound * 100.0
                );
            }
        }
    }
    if let Some(m) = r.metrics.get("freshness_p99_ms") {
        let tail = freshness_tail(m.samples as usize);
        if tail < 99.0 {
            println!(
                "# {} freshness samples: freshness_p99_ms is their p{tail}, \
                 the highest percentile with ten samples beyond it",
                m.samples
            );
        }
    }
    println!(
        "# rows {} rows_digest {} attempted {} failed {} wall {:.1} s",
        r.rows, r.rows_digest, r.attempted, r.failed, r.wall_s
    );
    for e in &r.errors {
        println!("# ORACLE MISMATCH: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn cost_ns() -> &'static EndToEnd {
        spec("host_ns_per_event")
    }

    #[test]
    fn disturbed_segments_do_not_move_a_wall_clock_metric() {
        // every third segment, then four in five, 40 % slower
        let steady = over_segments(cost_ns(), vec![100.0; 100]).value;
        for period in [3, 5] {
            let disturbed = (0..100)
                .map(|i| if i % period == 0 { 100.0 } else { 140.0 })
                .collect();
            assert_eq!(over_segments(cost_ns(), disturbed).value, steady);
        }
    }

    #[test]
    fn a_program_that_slows_down_during_the_run_does() {
        // the cost doubles over the run: the whole run's fast decile sits in
        // the first tenth, the median over stretches in the middle
        let growing: Vec<f64> = (0..100).map(|i| 100.0 + f64::from(i)).collect();
        let m = over_segments(cost_ns(), growing);
        assert_eq!(m.p10, Some(109.0));
        assert_eq!(m.value, 141.0);
        // a rate takes the ninth decile of each stretch
        let falling: Vec<f64> = (0..100).map(|i| 200.0 - f64::from(i)).collect();
        assert_eq!(over_segments(spec("events_per_s"), falling).value, 158.0);
        // a run of four segments has empty stretches
        let short = vec![3.0, 1.0, 2.0, 4.0];
        assert_eq!(over_segments(cost_ns(), short).value, 2.5);
    }
}
