//! `compare <a.json> <b.json>`: one row per workload x end-to-end metric,
//! with both medians, the change with its base, the bound and a verdict,
//! and one `failed_share` row per workload, whose bound is exact: more
//! failures per attempt, or a run its oracle refused, is `regressed`, so a
//! change cannot get faster by shedding events. Also the tool for the A/A
//! check: two result files of one commit must come out `unchanged`
//! everywhere.
//!
//! A file may hold several runs of a workload (concatenate the `runs` of
//! several `all.json`); the row then compares medians over runs, and when
//! either side has at least four runs whose quartiles lie further apart
//! than the bound, the verdict is `unresolved`, not `unchanged`.

use crate::report::{ResultFile, RunRecord};
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, quartile_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// `a` and `b` are the two sides' values over their runs.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let spread = [a, b]
        .iter()
        .filter(|v| v.len() >= 4)
        .filter_map(|v| quartile_spread(v))
        .fold(0.0, f64::max);
    let (base, new) = (median(a), median(b));
    // share of the base by which `b` is worse
    let worse = match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    };
    if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// What failed over a side's runs: operations failed, operations
/// attempted, and whether every run's oracle passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Failures {
    pub failed: u64,
    pub attempted: u64,
    pub correct: bool,
}

impl Failures {
    fn of(runs: &[&RunRecord]) -> Self {
        Failures {
            failed: runs.iter().map(|r| r.failed).sum(),
            attempted: runs.iter().map(|r| r.attempted).sum(),
            correct: runs.iter().all(|r| r.correct),
        }
    }

    fn share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The failure share has no tolerance: 0 at the seed, and any rise is a
/// regression however much faster the change is.
pub fn failure_verdict(a: Failures, b: Failures) -> Verdict {
    if !b.correct || b.share() > a.share() {
        Verdict::Regressed
    } else if b.share() < a.share() {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn untraced<'a>(file: &'a ResultFile, workload: &str) -> Vec<&'a RunRecord> {
    file.runs
        .iter()
        .filter(|r| r.workload == workload && !r.trace)
        .collect()
}

/// Prints the table; `Ok(false)` when any row regressed.
pub fn compare(a: &ResultFile, b: &ResultFile) -> Result<bool, String> {
    let size = |f: &ResultFile| -> Vec<(u64, Option<u64>)> {
        let mut v: Vec<_> = f
            .runs
            .iter()
            .map(|r| ((r.seconds * 1e3) as u64, r.events))
            .collect();
        v.sort();
        v.dedup();
        v
    };
    if size(a) != size(b) || size(a).len() != 1 {
        return Err(format!(
            "refusing to compare runs of different sizes: (ms, events) {:?} vs {:?}",
            size(a),
            size(b)
        ));
    }
    if a.machine.available_parallelism != b.machine.available_parallelism {
        println!(
            "# WARNING: {} vs {} cores: wall-clock rows do not compare",
            a.machine.available_parallelism, b.machine.available_parallelism
        );
    }
    println!(
        "# a: {} ({})\n# b: {} ({})",
        a.machine.git_commit, a.machine.rustc, b.machine.git_commit, b.machine.rustc
    );
    println!(
        "{:<13} {:<22} {:>16} {:>16} {:>30} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "change", "bound"
    );
    let mut regressed = false;
    for w in &WORKLOADS {
        let (ra, rb) = (untraced(a, w.name), untraced(b, w.name));
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        for m in &END_TO_END {
            let values = |runs: &[&RunRecord]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(m.name).map(|x| x.value))
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, m.better, m.bound);
            regressed |= v == Verdict::Regressed;
            let (base, new) = (median(&va), median(&vb));
            println!(
                "{:<13} {:<22} {:>16.4} {:>16.4} {:>30} {:>6.0}%  {}",
                w.name,
                m.name,
                base,
                new,
                format!("{:+.2}% of {:.4}", (new - base) / base * 100.0, base),
                m.bound * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
        let (fa, fb) = (Failures::of(&ra), Failures::of(&rb));
        let v = failure_verdict(fa, fb);
        regressed |= v == Verdict::Regressed;
        println!(
            "{:<13} {:<22} {:>16.3e} {:>16.3e} {:>30} {:>7}  {}{}",
            w.name,
            "failed_share",
            fa.share(),
            fb.share(),
            format!(
                "{} of {} -> {} of {}",
                fa.failed, fa.attempted, fb.failed, fb.attempted
            ),
            "exact",
            format!("{v:?}").to_lowercase(),
            if fb.correct { "" } else { " (oracle mismatch)" }
        );
        let digests = |runs: &[&RunRecord]| -> Vec<String> {
            let mut d: Vec<String> = runs.iter().map(|r| r.rows_digest.clone()).collect();
            d.sort();
            d.dedup();
            d
        };
        println!(
            "{:<13} rows_digest {:?} vs {:?}",
            w.name,
            digests(&ra),
            digests(&rb)
        );
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(verdict(&[100.0], &[105.0], Lower, 0.08), Verdict::Unchanged);
        assert_eq!(verdict(&[100.0], &[109.0], Lower, 0.08), Verdict::Regressed);
        assert_eq!(verdict(&[100.0], &[91.0], Lower, 0.08), Verdict::Improved);
        assert_eq!(verdict(&[100.0], &[91.0], Higher, 0.08), Verdict::Regressed);
        assert_eq!(verdict(&[100.0], &[109.0], Higher, 0.08), Verdict::Improved);
        // four runs a side whose quartiles lie 20% apart: no verdict either way
        let noisy = [90.0, 95.0, 105.0, 115.0];
        assert_eq!(verdict(&noisy, &[120.0], Lower, 0.08), Verdict::Unresolved);
        let steady = [99.0, 100.0, 100.0, 101.0];
        assert_eq!(verdict(&steady, &steady, Lower, 0.08), Verdict::Unchanged);
    }

    #[test]
    fn any_rise_in_failures_is_a_regression() {
        let f = |failed, correct| Failures {
            failed,
            attempted: 1_000_000,
            correct,
        };
        assert_eq!(failure_verdict(f(0, true), f(0, true)), Verdict::Unchanged);
        assert_eq!(failure_verdict(f(0, true), f(1, true)), Verdict::Regressed);
        assert_eq!(failure_verdict(f(0, true), f(0, false)), Verdict::Regressed);
        assert_eq!(failure_verdict(f(5, true), f(1, true)), Verdict::Improved);
    }
}
