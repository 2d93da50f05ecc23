//! Run the experiments (E01–E22) and print the combined report — the data
//! behind EXPERIMENTS.md. Pass `--quick` for shorter runs, and
//! `--only <id>[,<id>…]` to run a subset: an id is `e16`, `E16` or the
//! module name `e16_chaos`.

fn main() {
    let quick = scrub_bench::quick_mode();
    let args: Vec<String> = std::env::args().collect();
    let only: Option<Vec<String>> =
        args.iter()
            .position(|a| a == "--only")
            .map(|i| match args.get(i + 1) {
                Some(ids) => ids.split(',').map(str::to_lowercase).collect(),
                None => {
                    eprintln!("usage: run_all [--quick] [--only <id>[,<id>...]]");
                    std::process::exit(2);
                }
            });
    let all: Vec<_> = scrub_bench::experiments::all()
        .into_iter()
        .filter(|(name, _)| {
            only.as_ref().is_none_or(|ids| {
                let short = name.split('_').next().unwrap_or(name);
                ids.iter().any(|id| id == name || id == short)
            })
        })
        .collect();
    if all.is_empty() {
        eprintln!(
            "no experiment matches --only {:?}",
            only.unwrap_or_default()
        );
        std::process::exit(2);
    }
    let mut passed = 0;
    let mut failed = Vec::new();
    let total = all.len();
    for (name, f) in all {
        eprintln!("running {name}...");
        let report = f(quick);
        print!("{report}");
        if report.pass {
            passed += 1;
        } else {
            failed.push(report.id);
        }
    }
    println!("==== SUMMARY ====");
    println!("{passed}/{total} experiments reproduce the paper's shape");
    if !failed.is_empty() {
        println!("mismatches: {failed:?}");
        std::process::exit(1);
    }
}
