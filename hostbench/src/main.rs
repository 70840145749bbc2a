//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload products-fastgl --seed 64087 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1`, the per-layer ones
//! of the traced replay. The exit code is 0 only when every checked output
//! matched its reference. Two more flags serve the benchmark's own checks:
//! `--emit-reference` prints the reference outputs of the seed (the format
//! of `src/reference.txt`) and exits, and `--perturb-reference` corrupts
//! the reference so the correctness gate must trip.

use fastgl_hostbench::stats::{median, peak_rss_mb, tail, Stopwatch};
use fastgl_hostbench::trace::{train_epoch, LayerTrace, SimReplay, METRICS};
use fastgl_hostbench::workload::{count_mismatches, SetupTimes, EPOCH_CYCLE};
use fastgl_hostbench::{pinned_reference, Knobs, Output, Prepared, Workload, PINNED_SEED};
use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_reference: bool,
    perturb_reference: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: fastgl-hostbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--emit-reference] [--perturb-reference]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ProductsFastgl,
        seed: PINNED_SEED,
        seconds: 20.0,
        trace: false,
        emit_reference: false,
        perturb_reference: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--emit-reference" => args.emit_reference = true,
            "--perturb-reference" => args.perturb_reference = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Everything one run measured.
struct Run {
    prepared: Prepared,
    setups: Vec<SetupTimes>,
    /// Outputs of the warm-up operations (each set-up's operation 0).
    warmups: Vec<Output>,
    /// Outputs of the timed operations 1, 2, …
    outputs: Vec<Output>,
    /// Wall seconds of each timed operation.
    epoch_wall_s: Vec<f64>,
    /// The same, net of steal time.
    epoch_net_s: Vec<f64>,
    /// Net seconds of the whole timed loop.
    loop_net_s: f64,
}

/// Sets up once, then times operations for `seconds`.
fn measure(workload: Workload, seed: u64, knobs: Knobs, seconds: f64) -> Run {
    let (mut prepared, warm, times) = Prepared::setup(workload, seed, knobs);
    let (mut outputs, mut epoch_wall_s, mut epoch_net_s) = (Vec::new(), Vec::new(), Vec::new());
    let timed_loop = Stopwatch::start();
    while outputs.is_empty() || timed_loop.wall_s() < seconds {
        let op = Stopwatch::start();
        let out = prepared.run_op(outputs.len() as u64 + 1);
        let (wall, net) = op.elapsed();
        epoch_wall_s.push(wall);
        epoch_net_s.push(net);
        outputs.push(out);
    }
    Run {
        prepared,
        setups: vec![times],
        warmups: vec![warm],
        outputs,
        epoch_wall_s,
        epoch_net_s,
        loop_net_s: timed_loop.elapsed().1,
    }
}

/// Sets up `SETUPS - 1` more times, only to time set-up; their warm-up
/// outputs join the checked ones.
///
/// This runs after the peak RSS is read. Freed set-ups leave memory in the
/// worker threads' malloc arenas, and a later set-up raised the peak by
/// about 7 MiB in some runs and not in others.
fn time_more_setups(run: &mut Run, workload: Workload, seed: u64, knobs: Knobs) {
    for _ in 1..SETUPS {
        let (_, warm, times) = Prepared::setup(workload, seed, knobs);
        run.warmups.push(warm);
        run.setups.push(times);
    }
}

/// The reference outputs of one operation cycle: the pinned ones for the
/// pinned seed, else a fresh single-threaded system's.
fn reference(
    run: &Run,
    workload: Workload,
    seed: u64,
    perturb: bool,
) -> (Vec<Output>, &'static str) {
    let (mut reference, source) = match pinned_reference(workload.name(), seed) {
        Some(pinned) => (pinned, "pinned"),
        None => (run.prepared.reference(1), "threads=1 re-run"),
    };
    if perturb {
        match &mut reference[0] {
            Output::Sim { sample_ns, .. } => *sample_ns += 1,
            Output::Train { accuracy, .. } => *accuracy ^= 1,
        }
    }
    (reference, source)
}

/// The traced replays of a run, each checked against the untraced output
/// of the same operation, for `seconds`. Returns the traces, the number
/// of replays that failed a check, and what failed.
fn replay(run: &Run, seconds: f64) -> (Vec<LayerTrace>, u64, Vec<String>) {
    // The untraced output of each epoch index, to compare replays with.
    let untraced = |op: u64| -> &Output {
        let all = || run.warmups.iter().take(1).chain(&run.outputs).enumerate();
        match &run.prepared {
            Prepared::Sim(_) => all()
                .find(|(i, _)| *i as u64 % EPOCH_CYCLE == op % EPOCH_CYCLE)
                .map(|(_, o)| o)
                .unwrap_or(&run.warmups[0]),
            Prepared::Train(_) => &run.warmups[0],
        }
    };
    let mut sim_replay = None;
    let (mut traces, mut failed, mut errors) = (Vec::new(), 0, Vec::new());
    let start = Stopwatch::start();
    while traces.is_empty() || start.wall_s() < seconds {
        let op = traces.len() as u64 + 1;
        let (trace, errs) = match &run.prepared {
            Prepared::Sim(sim) => sim_replay.get_or_insert_with(|| SimReplay::new(sim)).epoch(
                sim,
                op % EPOCH_CYCLE,
                untraced(op),
            ),
            Prepared::Train(t) => train_epoch(t, untraced(op)),
        };
        traces.push(trace);
        failed += u64::from(!errs.is_empty());
        errors.extend(errs.into_iter().map(|e| format!("replay {op}: {e}")));
    }
    (traces, failed, errors)
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<bool, String> {
    if std::env::var_os("FASTGL_FAULTS").is_some() {
        return Err(
            "FASTGL_FAULTS is set: injected faults would change the measured work, \
                    and no config setting overrides it; unset it to benchmark"
                .into(),
        );
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let knobs = Knobs { threads };
    let workload = args.workload;
    println!(
        "hostbench workload={workload} seed={} seconds={} trace={} threads={threads} \
         prefetch_windows={} telemetry={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        Knobs::PREFETCH_WINDOWS,
        if Knobs::TELEMETRY { "on" } else { "off" },
    );

    if args.emit_reference {
        let (prepared, _, _) = Prepared::setup(workload, args.seed, knobs);
        for out in prepared.reference(1) {
            println!("{workload} {out}");
        }
        return Ok(true);
    }

    let timed_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut run = measure(workload, args.seed, knobs, timed_seconds);
    let (traces, failed_replays, replay_errors) = if args.trace {
        replay(&run, args.seconds / 2.0)
    } else {
        (Vec::new(), 0, Vec::new())
    };
    let (reference, source) = reference(&run, workload, args.seed, args.perturb_reference);
    let peak_rss_mb = peak_rss_mb()?;
    time_more_setups(&mut run, workload, args.seed, knobs);
    // Every warm-up is operation 0 of its set-up.
    let failed = run
        .warmups
        .iter()
        .filter(|w| Some(*w) != reference.first())
        .count() as u64
        + count_mismatches(&run.outputs, 1, &reference)
        + failed_replays;
    let attempted = (run.warmups.len() + run.outputs.len() + traces.len()) as u64;
    for e in &replay_errors {
        println!("check failed: {e}");
    }
    println!(
        "error_rate={} ({failed} of {attempted} checked operations differ from the {source} reference)",
        failed as f64 / attempted as f64
    );

    let setup_s = median(&run.setups.iter().map(|s| s.total).collect::<Vec<_>>());
    let generate_s = median(&run.setups.iter().map(|s| s.generate).collect::<Vec<_>>());
    let wall_p50 = median(&run.epoch_wall_s);
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        // Layer calls are too short to net out steal, so the traced run
        // compares wall with wall.
        let per_trace: Vec<Vec<f64>> = traces
            .iter()
            .map(|t| t.metrics(generate_s, wall_p50))
            .collect();
        let values: Vec<f64> = (0..METRICS.len())
            .map(|i| median(&per_trace.iter().map(|m| m[i]).collect::<Vec<_>>()))
            .collect();
        let value = |name: &str| values[METRICS.iter().position(|m| m.0 == name).expect("listed")];
        println!(
            "traced replays={} untraced epochs={} named-layer coverage={:.4}",
            traces.len(),
            run.outputs.len(),
            1.0 - value("epoch.unattributed_s") / value("epoch.traced_s")
        );
        METRICS
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    } else {
        let batches: u64 = run.outputs.iter().map(Output::batches).sum();
        let (tail_s, tail_pct) = tail(&run.epoch_net_s);
        let wall: f64 = run.epoch_wall_s.iter().sum();
        let steal = wall - run.epoch_net_s.iter().sum::<f64>();
        println!(
            "epochs={} epoch_s.tail is p{tail_pct:.1} (ten or more epochs beyond it{}); \
             times are net of steal, which took {:.1}% of the epochs' wall time \
             (wall epoch p50 {wall_p50:.6} s)",
            run.epoch_net_s.len(),
            if tail_pct > 50.0 {
                ""
            } else {
                "; too few epochs, the median stands in"
            },
            100.0 * steal / wall,
        );
        vec![
            ("batches_per_s", batches as f64 / run.loop_net_s, "1/s"),
            ("epoch_s.p50", median(&run.epoch_net_s), "s"),
            ("epoch_s.tail", tail_s, "s"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<24} {value:>16.6} {unit}");
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
