//! End-to-end benchmark of the AQUA engine.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload read_query|write_commit|mixed_rw --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds a 2-shard durable store through `QueryService::open_sharded`,
//! drives one workload against it for `S` seconds, checks every answer,
//! and prints a table of metrics followed by one JSON result line:
//! end-to-end metrics with `--trace 0`, the per-layer breakdown of a
//! traced run with `--trace 1`. Stores live under `.e2e_bench_data/` in
//! the working directory and are removed at exit; a traced run writes
//! its spans to `.e2e_bench_out/spans-<workload>.jsonl`.

mod metrics;
mod population;
mod reads;
#[cfg(test)]
mod selftest;
mod trace;
mod workload;
mod writes;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER};
use workload::{Params, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 45.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// `--list-metrics`: every declared metric, one line each.
fn list_metrics() {
    for (section, decls) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for d in decls {
            println!(
                "{section}\t{}\t{}\t{:?}\t{:?}\t{}",
                d.name, d.unit, d.better, d.source, d.meaning
            );
        }
    }
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--list-metrics") {
        list_metrics();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            return ExitCode::from(2);
        }
    };
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let name = args.workload.name();
    let params = Params {
        sizes: population::FULL,
        seconds: args.seconds,
        setups: 3,
        dir: cwd
            .join(".e2e_bench_data")
            .join(format!("{name}-{}", std::process::id())),
        spans_out: Some(
            cwd.join(".e2e_bench_out")
                .join(format!("spans-{name}.jsonl")),
        ),
        plant_wrong_reference: false,
    };
    let out = match workload::run(args.workload, args.seed, args.trace, &params) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e_bench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let decls = if args.trace { PER_LAYER } else { END_TO_END };
    let sizes = params.sizes;
    println!(
        "# e2e_bench workload={name} seed={} seconds={} trace={} host={} nproc={} \
         paths={} tree_nodes={} list_notes={} shards={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host(),
        aqua_exec::available_threads(),
        sizes.paths,
        sizes.tree_nodes,
        sizes.list_notes,
        population::SHARDS,
    );
    print!("{}", out.report.table(decls));
    if let Some(f) = &out.first_failure {
        println!("# first failed op: {f}");
    }
    for e in &out.errors {
        println!("# CHECK FAILED: {e}");
    }
    let missing = out.report.missing(decls);
    let correct = out.errors.is_empty() && missing.is_empty();
    if !missing.is_empty() {
        println!("# missing metrics: {missing:?}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.report.json(decls)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
