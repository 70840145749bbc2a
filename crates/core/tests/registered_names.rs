//! Lint: every counter and histogram name the runtime actually emits must
//! be registered in [`fastgl_telemetry::names`]. A typo'd or unregistered
//! name would silently fall out of `fastgl-insight`'s attribution tables,
//! so this test runs representative workloads — serial and pipelined,
//! clean and faulted, single- and multi-threaded — and asserts the drained
//! snapshot contains no stranger names.

use fastgl_core::system::TrainingSystem;
use fastgl_core::{FastGlConfig, Pipeline};
use fastgl_graph::{Dataset, DatasetBundle};
use fastgl_telemetry::names;
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Serializes tests: telemetry state and the thread override are global.
static LOCK: Mutex<()> = Mutex::new(());

fn data() -> DatasetBundle {
    Dataset::Products.generate_scaled(1.0 / 1024.0, 11)
}

fn config() -> FastGlConfig {
    FastGlConfig::default()
        .with_batch_size(32)
        .with_fanouts(vec![3, 5])
}

/// Runs `cfg` for two epochs under telemetry and returns the emitted
/// counter and histogram names.
fn emitted_names(cfg: FastGlConfig, threads: usize) -> BTreeSet<&'static str> {
    fastgl_telemetry::set_enabled(true);
    fastgl_telemetry::reset();
    fastgl_tensor::parallel::set_num_threads(threads);
    let bundle = data();
    let mut sys = Pipeline::fastgl(cfg);
    for epoch in 0..2 {
        sys.run_epoch(&bundle, epoch);
    }
    let snap = fastgl_telemetry::drain();
    fastgl_tensor::parallel::set_num_threads(0);
    fastgl_telemetry::set_enabled(false);
    snap.counters
        .keys()
        .chain(snap.histograms.keys())
        .copied()
        .collect()
}

#[test]
fn every_emitted_metric_name_is_registered() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let registry: BTreeSet<&str> = names::all().iter().copied().collect();
    let fault_plan: fastgl_core::FaultPlan =
        "pcie_stall@batch=0:3,transfer_error@batch=1:2,oom@epoch=0:0.5"
            .parse()
            .unwrap();
    for threads in [1usize, 8] {
        // Serial loop, pipelined loop, and a faulted pipelined loop cover
        // every counter/histogram emission site in the epoch runner.
        let configs = [
            config(),
            config().with_prefetch_windows(2),
            config()
                .with_prefetch_windows(2)
                .with_faults(fault_plan.clone()),
        ];
        for cfg in configs {
            let emitted = emitted_names(cfg, threads);
            assert!(!emitted.is_empty(), "expected telemetry output");
            let strangers: Vec<&str> = emitted
                .iter()
                .filter(|n| !registry.contains(*n))
                .copied()
                .collect();
            assert!(
                strangers.is_empty(),
                "unregistered metric names at {threads} threads: {strangers:?} \
                 — add them to fastgl_telemetry::names"
            );
        }
    }
}
