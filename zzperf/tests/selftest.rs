//! Self-tests of the benchmark itself, on short runs (`--seconds 1`):
//!
//! - the exact metrics — `residual_zz_weight`, `plan_duration_us`,
//!   `fidelity_mean` and the exact per-layer counts — repeat bit for bit
//!   across two runs of one seed, and change when the seed changes;
//! - every run passes its output checks;
//! - the traced run's per-layer self times account for its request time
//!   within the benchmark's bound.

use std::process::Command;
use std::sync::Mutex;

/// The largest end-to-end bound in `BENCHMARK.json`; the traced layers
/// must account for the request time within it.
const BOUND: f64 = 0.25;

/// Workloads run one at a time: each takes both cores, and the
/// accounting check compares request time with replayed work, which
/// another workload's load would skew.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

struct Output {
    exact: String,
    result: String,
}

fn run(workload: &str, seed: u64, trace: u8) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_zzperf"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = |prefix: &str| {
        stdout
            .lines()
            .rfind(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no line starting {prefix:?} in:\n{stdout}"))
            .to_string()
    };
    let result = line("{\"correct\"");
    assert!(
        result.starts_with("{\"correct\": true"),
        "{workload} seed {seed} trace {trace} failed its checks: {result}"
    );
    Output {
        exact: line("exact "),
        result,
    }
}

/// The value of metric `name` in a result line.
fn metric(result: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = result.find(&key).expect("metric present") + key.len();
    let end = start + result[start..].find(',').expect("value ends");
    result[start..end].parse().expect("a number")
}

fn check(workload: &str) {
    let _serial = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let plain = [
        run(workload, 1, 0),
        run(workload, 1, 0),
        run(workload, 2, 0),
    ];
    assert_eq!(
        plain[0].exact, plain[1].exact,
        "{workload}: one seed, two answers"
    );
    for name in ["residual_zz_weight", "plan_duration_us", "fidelity_mean"] {
        assert_ne!(
            metric(&plain[0].result, name),
            metric(&plain[2].result, name),
            "{workload}: {name} ignores the seed"
        );
    }

    let traced = [
        run(workload, 1, 1),
        run(workload, 1, 1),
        run(workload, 2, 1),
    ];
    assert_eq!(
        traced[0].exact, traced[1].exact,
        "{workload}: traced counts differ"
    );
    assert_ne!(
        traced[0].exact, traced[2].exact,
        "{workload}: traced counts ignore the seed"
    );
    for t in &traced {
        let accounted = metric(&t.result, "trace.accounted_pct") / 100.0;
        assert!(
            (accounted - 1.0).abs() <= BOUND,
            "{workload}: layer self times account for {:.1} % of request time",
            accounted * 100.0
        );
    }
}

#[test]
fn paper_eval_is_exact_and_accounted() {
    check("paper_eval");
}

#[test]
fn wire_mixed_is_exact_and_accounted() {
    check("wire_mixed");
}

#[test]
fn fleet_dispatch_is_exact_and_accounted() {
    check("fleet_dispatch");
}

#[test]
fn unknown_workloads_are_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_zzperf"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
