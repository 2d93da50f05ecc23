//! `scrub_perf`: the repository's one layered end-to-end benchmark.
//!
//! ```text
//! scrub_perf run --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                [--events N] [--out DIR]
//! scrub_perf all [--seed N] [--seconds S] [--events N] [--out DIR]
//! scrub_perf compare <a.json> <b.json>
//! ```
//!
//! `run` drives one workload, checks every result row against the
//! benchmark's own oracle, prints every metric by name and unit, writes
//! `<out>/<workload>[.traced].json` (and the spans of a traced run to
//! `<out>/<workload>.trace.jsonl`), and ends its standard output with the
//! one-line JSON result `BENCHMARK.json`'s driver reads. `all` re-executes
//! itself once per workload and mode, so memory belongs to the workload,
//! and gathers the runs in `<out>/all.json`. See `README.md` beside this
//! file for the metric definitions.

mod compare;
mod direct;
mod layers;
mod platform;
mod report;
mod spec;
mod stats;
mod sysinfo;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use report::{Outcome, ResultFile, RunRecord, Segment};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// The metrics that depend on how far a run gets — `mem_peak_mb` (retained
/// rows grow) and `wire_bytes_per_event` (request ids grow, and with them
/// their varints) — are taken over this many timed segments, or the whole of
/// a shorter run, so that a faster box, which fits more simulated seconds
/// into `--seconds`, reports the same.
pub const FIXED_WORK_SEGMENTS: usize = 50;
const DEFAULT_SECONDS: f64 = 20.0;

pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    /// How long the timed section measures.
    pub seconds: f64,
    pub trace: bool,
    /// Pin the timed section to this many `log()` calls instead of a time,
    /// so counts and the digest repeat exactly.
    pub events: Option<u64>,
    pub out: PathBuf,
}

impl RunOpts {
    /// A traced run spends half its time on the main section and leaves the
    /// rest to the side passes.
    pub fn main_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Set up `SETUP_REPEATS` times over and keep the last instance; `setup_s`
/// is the median of the walls.
pub fn repeat_set_up<T>(out: &mut Outcome, mut set_up: impl FnMut() -> T) -> T {
    loop {
        let t0 = Instant::now();
        let built = set_up();
        out.setup_s.push(t0.elapsed().as_secs_f64());
        if out.setup_s.len() == SETUP_REPEATS {
            return built;
        }
    }
}

/// The timed section: whole segments until `--seconds` have passed or
/// `--events` are logged. A traced run records spans in every other
/// segment, so the same process yields the traced and the untraced rate.
pub fn timed_section(
    opts: &RunOpts,
    out: &mut Outcome,
    mut run_segment: impl FnMut(bool) -> Segment,
) {
    let t0 = Instant::now();
    let mut logged = 0;
    loop {
        let n = out.segments.len();
        let done = match opts.events {
            Some(events) => logged >= events,
            None => t0.elapsed().as_secs_f64() >= opts.main_seconds() && n >= 4,
        };
        if done {
            break;
        }
        let segment = run_segment(opts.trace && n.is_multiple_of(2));
        logged += segment.events;
        out.segments.push(segment);
        if n + 1 == FIXED_WORK_SEGMENTS {
            out.mem_peak_mb = sysinfo::peak_rss_mb();
        }
    }
    if out.segments.len() < FIXED_WORK_SEGMENTS {
        out.mem_peak_mb = sysinfo::peak_rss_mb();
    }
}

fn usage() -> String {
    "usage: scrub_perf run --workload <tap_fanout|agg_ingest|join_ingest|platform_sim> \
     [--seed N] [--seconds S] [--trace 0|1] [--events N] [--out DIR]\n       \
     scrub_perf all [--seed N] [--seconds S] [--events N] [--out DIR]\n       \
     scrub_perf compare <a.json> <b.json>"
        .to_string()
}

fn parse_opts(args: &[String]) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        events: None,
        out: PathBuf::from("target/scrub_perf"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--events" => opts.events = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--out" => opts.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

fn write_result(path: &Path, runs: Vec<RunRecord>) -> Result<(), String> {
    let file = ResultFile {
        machine: sysinfo::Machine::detect(),
        runs,
    };
    let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn read_result(path: &Path) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn result_path(out: &Path, workload: &str, trace: bool) -> PathBuf {
    out.join(format!(
        "{workload}{}.json",
        if trace { ".traced" } else { "" }
    ))
}

fn run(opts: &RunOpts) -> Result<bool, String> {
    if !spec::WORKLOADS.iter().any(|w| w.name == opts.workload) {
        return Err(format!("unknown workload {:?}\n{}", opts.workload, usage()));
    }
    let t0 = Instant::now();
    let mut outcome = match opts.workload.as_str() {
        "platform_sim" => platform::run(opts),
        direct => direct::run(direct, opts),
    };
    let record = RunRecord {
        workload: opts.workload.clone(),
        trace: opts.trace,
        seed: opts.seed,
        seconds: opts.seconds,
        events: opts.events,
        correct: outcome.correct(),
        attempted: outcome.attempted,
        failed: outcome.failed(),
        rows: outcome.rows,
        rows_digest: outcome.rows_digest.clone(),
        wall_s: t0.elapsed().as_secs_f64(),
        metrics: if opts.trace {
            report::per_layer(&outcome)
        } else {
            report::end_to_end(&outcome)
        },
        errors: std::mem::take(&mut outcome.errors),
    };
    report::print_table(&record);
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    if let (true, Some(tracer)) = (opts.trace, &outcome.tracer) {
        let path = opts.out.join(format!("{}.trace.jsonl", opts.workload));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let line = report::driver_line(&record);
    let correct = record.correct;
    write_result(
        &result_path(&opts.out, &opts.workload, opts.trace),
        vec![record],
    )?;
    println!("{line}");
    Ok(correct)
}

/// Every workload, untraced then traced, one process per run.
fn all(opts: &RunOpts, passthrough: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut correct = true;
    for w in &spec::WORKLOADS {
        for trace in [false, true] {
            let status = Command::new(&exe)
                .args(["run", "--workload", w.name])
                .args(["--trace", if trace { "1" } else { "0" }])
                .args(passthrough)
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            correct &= status.success();
            runs.extend(read_result(&result_path(&opts.out, w.name, trace))?.runs);
        }
    }
    let path = opts.out.join("all.json");
    write_result(&path, runs)?;
    println!("# all runs gathered in {}", path.display());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_opts(rest).and_then(|o| run(&o)),
        Some((cmd, rest)) if cmd == "all" => parse_opts(rest).and_then(|o| all(&o, rest)),
        Some((cmd, [a, b])) if cmd == "compare" => (|| {
            let (a, b) = (read_result(Path::new(a))?, read_result(Path::new(b))?);
            compare::compare(&a, &b)
        })(),
        _ => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_flags_parse() {
        let o = parse_opts(&args(
            "--workload agg_ingest --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("agg_ingest", 7, 12.0, true)
        );
        assert_eq!(o.main_seconds(), 6.0);
        let d = parse_opts(&args("--workload agg_ingest")).unwrap();
        assert_eq!(
            (d.seconds, d.trace, d.events),
            (DEFAULT_SECONDS, false, None)
        );
        assert!(parse_opts(&args("--trace 2")).is_err());
        assert!(parse_opts(&args("--seconds 0")).is_err());
        assert!(parse_opts(&args("--frobnicate 1")).is_err());
    }

    /// `BENCHMARK.json` restates `spec.rs` for the driver; keep them equal.
    #[test]
    fn benchmark_json_agrees_with_the_spec() {
        let text = include_str!("../../BENCHMARK.json");
        for w in &spec::WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{}\", \"why\": \"{}\"", w.name, w.why)),
                "workload {}",
                w.name
            );
        }
        for m in &spec::END_TO_END {
            let better = match m.better {
                spec::Better::Higher => "higher",
                spec::Better::Lower => "lower",
            };
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {:?}",
                m.name, m.unit, m.bound
            );
            assert!(text.contains(&entry), "missing {entry}");
        }
        for m in &spec::PER_LAYER {
            let better = match m.better {
                spec::Better::Higher => "higher",
                spec::Better::Lower => "lower",
            };
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                m.name, m.unit
            );
            assert!(text.contains(&entry), "missing {entry}");
        }
    }
}
