//! The benchmark's own self-test, at a tiny size:
//! `cargo test --release --manifest-path e2e_bench/Cargo.toml`.

use std::path::PathBuf;

use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::population::Sizes;
use crate::reads::QuerySet;
use crate::workload::{run, Params, Workload};

const TINY: Sizes = Sizes {
    paths: 4,
    tree_nodes: 48,
    list_notes: 24,
};

fn params(tag: &str) -> Params {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".e2e_bench_data")
        .join(format!("selftest-{tag}-{}", std::process::id()));
    Params {
        sizes: TINY,
        seconds: 0.4,
        setups: 2,
        spans_out: Some(dir.with_extension("spans.jsonl")),
        dir,
        plant_wrong_reference: false,
    }
}

#[test]
fn every_named_metric_is_emitted() {
    for w in Workload::ALL {
        for traced in [false, true] {
            let p = params(&format!("{}-{traced}", w.name()));
            let out = run(w, 7, traced, &p).expect("run");
            let _ = std::fs::remove_file(p.spans_out.as_ref().unwrap());
            assert!(out.errors.is_empty(), "{}: {:?}", w.name(), out.errors);
            assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.first_failure);
            assert!(out.attempted > 0);
            let decls = if traced { PER_LAYER } else { END_TO_END };
            assert_eq!(
                out.report.missing(decls),
                Vec::<&str>::new(),
                "{}",
                w.name()
            );
            if !traced {
                for d in END_TO_END {
                    assert!(out.report.values[d.name].value > 0.0, "{} is 0", d.name);
                }
            }
        }
    }
}

#[test]
fn a_planted_wrong_reference_is_caught() {
    let mut p = params("planted");
    p.plant_wrong_reference = true;
    let out = run(Workload::ReadQuery, 7, false, &p).expect("run");
    assert!(
        out.errors
            .iter()
            .any(|e| e.contains("differs from the plain-scan reference")),
        "{:?}",
        out.errors
    );
}

#[test]
fn another_seed_changes_inputs_not_metric_names() {
    let env = aqua_pattern::parser::PredEnv::with_default_attr("pitch");
    let texts = |seed| -> Vec<String> {
        QuerySet::new(seed, TINY, &env)
            .expect("queries")
            .queries
            .into_iter()
            .map(|q| q.text)
            .collect()
    };
    assert_ne!(texts(1), texts(2), "the seed must change the queries");
    let keys = |seed| -> Vec<&'static str> {
        let p = params(&format!("seed{seed}"));
        let out = run(Workload::ReadQuery, seed, false, &p).expect("run");
        out.report.values.keys().copied().collect()
    };
    assert_eq!(keys(1), keys(2));
    assert_eq!(keys(1).len(), END_TO_END.len());
}

#[test]
fn benchmark_json_declares_the_same_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let better = match d.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
            d.name, d.unit
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json declares metrics the benchmark does not report"
    );
    // Every workload BENCHMARK.json names is one the benchmark runs.
    let workloads = json
        .split("\"workloads\"")
        .nth(1)
        .expect("a workloads list");
    let workloads = &workloads[..workloads.find(']').expect("a closed list")];
    let named: Vec<&str> = workloads
        .split("\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').expect("a closed name")])
        .collect();
    assert!(named.len() >= 2, "{named:?}");
    for n in named {
        assert!(Workload::parse(n).is_some(), "unknown workload {n}");
    }
}
