//! Runs the benchmark binary for one second per workload and checks what
//! it prints against `BENCHMARK.json`: the metric names, the seed contract,
//! and that the result checker is live.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;

const WORKLOADS: [&str; 4] = ["fork_tree", "tuple_farm", "echo_server", "scheme_mix"];

/// One benchmark process at a time: the tests check results, not speed, and
/// several runs sharing two cores could push an op past its deadline.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

struct Run {
    exit_code: Option<i32>,
    correct: bool,
    attempted: u64,
    failed: u64,
    metric_names: Vec<String>,
    input_hash: String,
}

fn tmp(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The text between `key` and the next `,` or `}` of a flat JSON field.
fn field<'a>(json: &'a str, key: &str) -> &'a str {
    let at = json
        .find(key)
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    let rest = &json[at + key.len()..];
    rest[..rest.find([',', '}']).unwrap()].trim()
}

fn run(workload: &str, seed: u64, trace: u8, programs: Option<&Path>) -> Run {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sting-benchmark"));
    cmd.args(["--workload", workload, "--seconds", "1"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .arg("--out")
        .arg(tmp(&format!("out-{workload}-{seed}-{trace}")));
    if let Some(dir) = programs {
        cmd.arg("--programs").arg(dir);
    }
    let out = cmd.output().expect("the benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout
        .lines()
        .last()
        .unwrap_or_else(|| panic!("{workload}: no output"));
    assert!(
        last.starts_with("{\"correct\": "),
        "{workload}: last line is not the result object: {last}"
    );
    // Keys of the `metrics` object: each is followed by its value object.
    let metric_names = last
        .split("\": {\"value\": ")
        .filter_map(|before| before.rsplit('"').next())
        .map(str::to_string)
        .take(last.matches("\": {\"value\": ").count())
        .collect();
    let input_hash = stdout
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{workload} input_hash ")))
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("{workload}: no input_hash line"))
        .to_string();
    Run {
        exit_code: out.status.code(),
        correct: field(last, "\"correct\": ") == "true",
        attempted: field(last, "\"attempted\": ").parse().unwrap(),
        failed: field(last, "\"failed\": ").parse().unwrap(),
        metric_names,
        input_hash,
    }
}

/// The `"name"` of every row of one array of `BENCHMARK.json`.
fn benchmark_json_names(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).unwrap();
    let start = json.find(&format!("\"{section}\": [")).unwrap();
    let body = &json[start..];
    let body = &body[..body.find(']').unwrap()];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_string())
        .collect()
}

fn assert_clean(r: &Run, what: &str) {
    assert!(r.attempted >= 1, "{what}: nothing attempted");
    assert_eq!(r.failed, 0, "{what}: failed ops");
    assert!(r.correct, "{what}: not correct");
    assert_eq!(r.exit_code, Some(0), "{what}: exit code");
}

#[test]
fn metric_names_are_those_of_benchmark_json() {
    let legal = |n: &String| {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let listed = benchmark_json_names(section);
        assert!(listed.iter().all(legal), "{section}: illegal name");
        assert_eq!(
            listed.len(),
            listed.iter().collect::<BTreeSet<_>>().len(),
            "{section}: a name is listed twice"
        );
        for w in WORKLOADS {
            let r = run(w, 1, trace, None);
            assert_clean(&r, &format!("{w} --trace {trace}"));
            assert_eq!(r.metric_names, listed, "{w} --trace {trace}");
        }
    }
    assert_eq!(
        benchmark_json_names("workloads"),
        WORKLOADS.map(str::to_string)
    );
}

#[test]
fn the_seed_and_nothing_else_decides_the_inputs() {
    for w in WORKLOADS {
        let (a, b, other) = (run(w, 1, 0, None), run(w, 1, 0, None), run(w, 2, 0, None));
        assert_eq!(a.input_hash, b.input_hash, "{w}: same seed, other inputs");
        assert_ne!(
            a.input_hash, other.input_hash,
            "{w}: other seed, same inputs"
        );
        assert_clean(&other, &format!("{w} --seed 2"));
    }
}

#[test]
fn a_wrong_expected_file_fails_ops() {
    let programs = tmp("wrong-programs");
    let shipped = Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    for entry in std::fs::read_dir(shipped).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, programs.join(path.file_name().unwrap())).unwrap();
    }
    std::fs::write(programs.join("fib.expected"), "6766\n").unwrap();
    let r = run("scheme_mix", 1, 0, Some(&programs));
    assert!(r.failed > 0, "the checker let a wrong result pass");
    assert!(r.failed < r.attempted, "only fib's results are wrong");
    assert!(!r.correct);
    assert_eq!(r.exit_code, Some(1));
}
