//! The benchmark's own checks: its output names match `BENCHMARK.json`,
//! its correctness gate trips on a wrong reference, its references are
//! thread-count independent and reproduce `fig09_overall`, and it refuses
//! to measure under fault injection.
//!
//! Run with `cargo test --release --manifest-path hostbench/Cargo.toml`;
//! a debug build simulates the epochs tens of times slower.

use fastgl_baselines::SystemKind;
use fastgl_bench::experiments::fig09_overall::epoch_time;
use fastgl_bench::scale::BenchScale;
use fastgl_core::TrainingSystem;
use fastgl_gnn::ModelKind;
use fastgl_hostbench::workload::{generate_bundle, sim_setup};
use fastgl_hostbench::{pinned_reference, Knobs, Prepared, Workload, PINNED_SEED};
use std::process::{Command, Output as ProcessOutput};

fn bench(args: &[&str]) -> ProcessOutput {
    Command::new(env!("CARGO_BIN_EXE_fastgl-hostbench"))
        .args(args)
        .env_remove("FASTGL_FAULTS")
        .output()
        .expect("benchmark binary runs")
}

fn stdout(out: &ProcessOutput) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

/// The last line of a run's standard output: its result object.
fn result_line(out: &ProcessOutput) -> String {
    stdout(out)
        .lines()
        .last()
        .expect("a result line")
        .to_string()
}

/// The keys of the `metrics` object of a result line.
fn metric_names(result: &str) -> Vec<String> {
    let metrics = &result[result.find("\"metrics\"").expect("metrics key")..];
    // Each chunk but the last ends with the quoted name of the next metric.
    let chunks: Vec<&str> = metrics.split(": {\"value\"").collect();
    chunks[..chunks.len() - 1]
        .iter()
        .map(|chunk| chunk.rsplit('"').nth(1).expect("quoted name").to_string())
        .collect()
}

/// The metric names `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn fits_name_grammar(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn printed_metrics_are_declared_and_well_named() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = bench(&[
            "--workload",
            "products-fastgl",
            "--seconds",
            "0.5",
            "--trace",
            trace,
        ]);
        assert!(out.status.success(), "{}", stdout(&out));
        let printed = metric_names(&result_line(&out));
        assert_eq!(printed, declared(section), "trace {trace}");
        for name in &printed {
            assert!(fits_name_grammar(name), "{name}");
        }
    }
    for w in Workload::ALL {
        assert!(declared("workloads").contains(&w.name().to_string()), "{w}");
    }
}

#[test]
fn a_perturbed_reference_fails_the_run() {
    let out = bench(&[
        "--workload",
        "products-fastgl",
        "--seconds",
        "0.5",
        "--perturb-reference",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    let rate: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("error_rate="))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("an error_rate line");
    assert!(rate > 0.0, "{text}");
    let result = result_line(&out);
    assert!(result.contains("\"correct\": false"), "{result}");
    assert!(!result.contains("\"failed\": 0,"), "{result}");
}

#[test]
fn fault_injection_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_fastgl-hostbench"))
        .args(["--workload", "igb-dgl", "--seconds", "0.5"])
        .env("FASTGL_FAULTS", "pcie_stall@batch=1")
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(!stdout(&out).contains("\"correct\""));
}

#[test]
fn pinned_references_hold_at_one_and_two_threads() {
    for w in Workload::ALL {
        let pinned = pinned_reference(w.name(), PINNED_SEED).expect("pinned");
        let (prepared, warm, _) = Prepared::setup(w, PINNED_SEED, Knobs { threads: 2 });
        assert_eq!(Some(&warm), pinned.first(), "{w} warm-up");
        for threads in [1, 2] {
            assert_eq!(
                prepared.reference(threads),
                pinned,
                "{w} at {threads} threads"
            );
        }
    }
}

#[test]
fn simulated_workloads_reproduce_fig09_cells() {
    let scale = BenchScale::default_profile();
    let knobs = Knobs { threads: 2 };
    for (w, kind) in [
        (Workload::ProductsFastgl, SystemKind::FastGl),
        (Workload::IgbDgl, SystemKind::Dgl),
    ] {
        let (name, dataset, config, policy) = sim_setup(w, &scale, knobs);
        let data = generate_bundle(&scale, dataset);
        assert_eq!(data.graph, scale.bundle(dataset).graph, "{w} input");
        let mut sys = fastgl_core::Pipeline::new(name, config, policy);
        let stats = sys.run_epochs(&data, 2);
        let cell = epoch_time(&scale, kind, ModelKind::Gcn, dataset);
        assert_eq!(stats.total().as_secs_f64(), cell, "{w}");
    }
}
