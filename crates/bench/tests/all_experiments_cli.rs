//! End-to-end tests of the `all_experiments` entry point's argument
//! handling: every id is checked against the registry before anything
//! runs, so a typo fails loudly instead of running nothing and exiting 0.

use fastgl_bench::experiments;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run(results: &Path, ids: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(ids)
        .env("FASTGL_QUICK", "1")
        .env("FASTGL_RESULTS_DIR", results)
        .env_remove("FASTGL_TELEMETRY")
        .output()
        .expect("all_experiments spawns")
}

fn fresh_dir(stem: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fastgl_all_experiments_{stem}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn an_unknown_id_runs_nothing_and_lists_the_valid_ids() {
    let dir = fresh_dir("unknown");
    let out = run(&dir, &["tab03_memory_levels", "fig9"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment id(s): fig9\n"),
        "{stderr}"
    );
    for (id, _) in experiments::all() {
        assert!(stderr.contains(&format!("  {id}\n")), "{id} not listed");
    }
    assert!(out.stdout.is_empty(), "nothing may run");
    assert!(!dir.exists(), "nothing may be written");
}

#[test]
fn a_known_id_runs_only_that_experiment() {
    let dir = fresh_dir("known");
    let out = run(&dir, &["tab03_memory_levels"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("[tab03_memory_levels finished in"));
    assert_eq!(stdout.matches("finished in").count(), 1, "{stdout}");
    assert!(dir.join("tab03_memory_levels.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
