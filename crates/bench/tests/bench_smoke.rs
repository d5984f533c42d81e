//! Tier-1 smoke test for the unified benchmark runner: runs `bench_all`
//! for real (tiny iteration counts), validates the emitted JSON against
//! the schema, and asserts that every gate passed.

use std::fs::File;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};
use sting_bench::report::{BenchReport, SCHEMA};

/// How long `bench_all --smoke` may run.  A debug build takes about 9 s
/// alone on two cores; the deadline leaves room for a loaded tier-1 run,
/// and turns a row that hangs into a failure instead of a stuck suite.
const DEADLINE: Duration = Duration::from_secs(300);

/// Runs `bench_all` with its output in files, killing it at [`DEADLINE`]:
/// then the failure shows what it printed, so its last row names the
/// hang.
fn run_bench_all(args: &[&str]) -> std::process::Output {
    let (out_path, err_path) = (tmp("bench_all.stdout"), tmp("bench_all.stderr"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_bench_all"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .stdout(File::create(&out_path).expect("stdout file"))
        .stderr(File::create(&err_path).expect("stderr file"))
        .spawn()
        .expect("bench_all spawns");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("bench_all waits") {
            break status;
        }
        if started.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            panic!(
                "bench_all {args:?} still running after {DEADLINE:?}; killed\nstdout:\n{}\nstderr:\n{}",
                std::fs::read_to_string(&out_path).unwrap_or_default(),
                std::fs::read_to_string(&err_path).unwrap_or_default()
            );
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    std::process::Output {
        status,
        stdout: std::fs::read(&out_path).expect("stdout read back"),
        stderr: std::fs::read(&err_path).expect("stderr read back"),
    }
}

fn tmp(name: &str) -> String {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(name)
        .to_str()
        .expect("utf-8 tmpdir")
        .to_string()
}

#[test]
fn smoke_run_emits_schema_valid_report_with_sane_shape() {
    let out = tmp("smoke_report.json");
    let result = run_bench_all(&["--smoke", "--iters", "1500", "--reps", "1", "--out", &out]);
    assert!(
        result.status.success(),
        "bench_all --smoke failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&result.stdout),
        String::from_utf8_lossy(&result.stderr)
    );

    let text = std::fs::read_to_string(&out).expect("report written");
    assert!(text.contains(SCHEMA), "report carries the schema tag");
    let report = BenchReport::from_json(&text).expect("report parses against the schema");

    // Every Figure 6 row must be present with a full, ordered statistics
    // block and the paper's value attached.
    for (name, _) in sting_bench::PAPER_FIGURE6 {
        let row = report
            .row("figure6", name)
            .unwrap_or_else(|| panic!("missing figure6 row `{name}`"));
        assert!(row.samples >= 1, "{name}: no samples");
        assert!(row.min > 0.0, "{name}: zero min");
        assert!(
            row.min <= row.p50 && row.p50 <= row.p99,
            "{name}: min/p50/p99 out of order ({} / {} / {})",
            row.min,
            row.p50,
            row.p99
        );
        assert!(row.paper_us.is_some(), "{name}: paper value missing");
        assert_eq!(row.unit, "ns/iter");
    }

    // The suites the unified runner promises.
    for (suite, name) in [
        ("shape", "stealing-lifo-lazy"),
        ("shape", "farm-global-fifo"),
        ("shape", "tree-migrating-lifo"),
        ("shape", "steal-throughput-2vp-lockfree"),
        ("shape", "preemption-shielded"),
        ("shape", "tuple-locks-per-bucket"),
        ("shape", "mutex-spins-active-0"),
        ("shape", "mutex-spins-active-16"),
        ("shape", "mutex-spins-active-256"),
        ("overhead", "steal-throughput-metrics-on"),
        ("overhead", "steal-throughput-metrics-off"),
    ] {
        assert!(
            report.row(suite, name).is_some(),
            "missing {suite} row `{name}`"
        );
    }
    // The counter snapshots the shape rows record beside their times.
    for (suite, name) in [
        ("shape", "stealing-lifo-eager-steals"),
        ("shape", "stealing-fifo-eager-tcbs"),
        ("shape", "stealing-lazy-stealing-off-threads"),
        ("shape", "farm-global-fifo-blocks"),
        ("shape", "tree-migrating-lifo-migrations"),
        ("shape", "steal-throughput-2vp-lockfree-switches"),
        ("shape", "preemption-enabled-preemptions"),
        ("shape", "preemption-shielded-yields"),
        ("fork", "2vp-migrating-per-tree-wakes"),
        ("fork", "world-queued"),
        ("fleet", "routed-call-allocs"),
    ] {
        let row = report
            .row(suite, name)
            .unwrap_or_else(|| panic!("missing {suite} row `{name}`"));
        assert_eq!(row.unit, "count", "{suite} row `{name}`");
    }

    // Figure 6 shape orderings: every gating check must have passed (the
    // runner itself re-measures up to three times before giving up, and
    // exits non-zero — caught above — if they still fail).
    let gates: Vec<_> = report
        .checks
        .iter()
        .filter(|c| !c.name.starts_with("info:"))
        .collect();
    assert!(gates.len() >= 5, "expected the five ordering gates");
    for c in &gates {
        assert!(c.pass, "gate `{}` failed: {}", c.name, c.detail);
    }
    // The report-only rows still must be recorded, pass or fail.
    assert!(
        report.checks.iter().any(|c| c.name.starts_with("info:")),
        "info checks missing"
    );
}
