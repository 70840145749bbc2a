//! The `fastgl-sim` command line: bad input exits with an error message,
//! never a panic, and a small valid run prints its epoch statistics.

use std::process::{Command, Output};

fn sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fastgl-sim"))
        .args(args)
        .output()
        .expect("fastgl-sim starts")
}

#[test]
fn bad_input_is_an_error_not_a_panic() {
    for args in [
        &["--gpus", "0"][..],
        &["--epochs", "0"],
        &["--system", "gnnlab", "--gpus", "1"],
        &["--scale", "nan"],
        &["--scale", "inf"],
    ] {
        let out = sim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn small_run_prints_epoch_time() {
    let out = sim(&["--scale", "4096", "--epochs", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("epoch time"), "{stdout}");
}
