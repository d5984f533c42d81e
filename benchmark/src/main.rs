//! The repository benchmark.  One invocation runs one workload in this
//! process (so memory and counters are that workload's alone):
//!
//! ```text
//! sting-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off, over four
//! windows of `--seconds / 4`, each on a freshly set-up world.  `--trace 1`
//! measures the per-layer metrics: the probe loops, then an untraced and a
//! traced window of `--seconds / 2` each.
//! Every metric is printed as `workload metric value unit n=samples`; the
//! last line of standard output is the machine-readable result.  See
//! `README.md` for every definition.

mod env;
mod harness;
mod metrics;
mod probes;
mod spans;
mod workloads;

use harness::{
    median_f64, median_of, parallelism, ratio, status_kb, tail, Stop, Substrate, Window,
};
use metrics::{Metrics, END_TO_END, PER_LAYER};
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{Config, World};

/// Windows per untraced run, each on a fresh world.
const SEGMENTS: usize = 4;
/// Span slots of a traced run (40 bytes each, touched only when used).
const SPAN_CAPACITY: usize = 1 << 20;

pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    programs: PathBuf,
    /// Cargo build time as `run.sh` measured it; not part of `setup_s`.
    build_s: f64,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        out: here.join("out"),
        programs: here.join("programs"),
        build_s: 0.0,
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag}: missing value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| bad("1 to 60"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = value.into(),
            "--programs" => args.programs = value.into(),
            "--build-s" => args.build_s = value.parse().map_err(|_| bad("seconds"))?,
            "--commit" => args.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// What one run found, for the result line and the record file.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// A check on the world as a whole that did not hold.
    broken: Option<String>,
    input_hash: u64,
    backend: String,
    notes: Vec<String>,
}

/// Builds the world and times it.
fn set_up<W: World>(config: &Config) -> Result<(W, f64), String> {
    let t0 = Instant::now();
    let world = W::build(config)?;
    Ok((world, t0.elapsed().as_secs_f64()))
}

/// One timed window on `world`, the pending-timer count as its gauge.
fn timed_window<W: World + Sync>(world: &W, seconds: f64, traced: bool) -> Window {
    Window::measure(
        || world.timers_pending(),
        W::RSS_AFTER_OPS,
        || world.run(Stop::after(Duration::from_secs_f64(seconds)), traced),
    )
}

/// The rows read off public counters over the untraced window.
fn counter_rows(window: &Window, delta: &Substrate, out: &mut Metrics) {
    let ops = window.completed();
    let per_op = |n: u64| ratio(n as f64, ops as f64);
    let c = &delta.counters;
    out.set(
        "context.stack_recycle_share",
        ratio(c.stacks_recycled as f64, c.tcbs_allocated as f64),
        c.tcbs_allocated,
    );
    out.set(
        "tc.threads_per_s",
        c.determinations as f64 / window.wall_s,
        c.determinations,
    );
    out.set(
        "tc.steal_share",
        ratio(c.steals as f64, c.threads_created as f64),
        c.threads_created,
    );
    out.set(
        "tc.tcbs_per_thread",
        ratio(c.tcbs_allocated as f64, c.threads_created as f64),
        c.threads_created,
    );
    out.set(
        "vp.dispatch_p50_ns",
        delta.dispatch.p50() as f64,
        delta.dispatch.count,
    );
    out.set(
        "vp.context_switches_per_op",
        per_op(c.context_switches),
        ops,
    );
    out.set("vp.migrations_per_kop", 1e3 * per_op(c.migrations), ops);
    out.set("vp.preemptions_per_op", per_op(c.preemptions), ops);
    out.set(
        "machine.cpu_share",
        window.cpu_s / window.wall_s / harness::nproc() as f64,
        1,
    );
    out.set(
        "wait.wake_p50_ns",
        delta.wake.p50() as f64,
        delta.wake.count,
    );
    out.set("wait.blocks_per_op", per_op(c.blocks), ops);
    out.set(
        "wait.wakeups_per_block",
        ratio(c.wakeups as f64, c.blocks as f64),
        c.blocks,
    );
    out.set(
        "fleet.routed_ops_share",
        workloads::tuple_farm::routed_share(c.routed_ops, ops),
        c.routed_ops,
    );
    out.set("fleet.handoffs_per_kop", 1e3 * per_op(c.handoffs), ops);
    out.set(
        "reactor.syscalls_per_wake",
        ratio(delta.io_syscalls as f64, delta.io_wakes as f64),
        delta.io_wakes,
    );
    out.set("reactor.wakes_per_op", per_op(delta.io_wakes), ops);
    out.set(
        "areas.gc_pause_p99_ns",
        delta.gc_pause.p99() as f64,
        delta.gc_pause.count,
    );
    out.set("areas.gc_pauses_per_op", per_op(delta.gc_pause.count), ops);
}

/// The end-to-end run, tracing off: [`SEGMENTS`] windows, each on a world
/// set up for it, so `setup_s` has that many samples and a world that
/// settles into an unlucky state (see README, "What the benchmark shows")
/// costs a quarter of the run's slices, not all of them.
fn untraced<W: World + Sync>(args: &Args, config: &Config) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let (mut setups, mut slices) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut broken) = (0, 0, None);
    let mut first = None;
    for _ in 0..SEGMENTS {
        let (world, setup_s) = set_up::<W>(config)?;
        setups.push(setup_s);
        let window = timed_window(&world, args.seconds as f64 / SEGMENTS as f64, false);
        // Memory is read in the first segment, in a process that has held
        // no earlier world.
        first.get_or_insert_with(|| {
            let peak_rss_kb = window.rss_kb_after_ops.unwrap_or_else(|| {
                notes.push(format!(
                    "the first window ended before {} ops had completed; \
                     peak_rss_mb was read at its end",
                    W::RSS_AFTER_OPS
                ));
                status_kb("VmHWM")
            });
            (peak_rss_kb, world.input_hash(), backend(&world))
        });
        slices.extend(window.per_slice());
        attempted += window.attempted();
        failed += window.failed();
        broken = broken.or(world.teardown().err());
    }
    let (peak_rss_kb, input_hash, backend) = first.expect("at least one segment");

    let mut m = Metrics::of(END_TO_END);
    let ops = attempted - failed;
    m.set("ops_per_s", median_of(&slices, |s| s.ops_per_s), ops);
    m.set(
        "op_latency_p50_us",
        median_of(&slices, |s| s.latency_p50_ns) / 1e3,
        ops,
    );
    m.set(
        "cpu_us_per_op",
        median_of(&slices, |s| s.cpu_us_per_op),
        ops,
    );
    m.set("peak_rss_mb", peak_rss_kb as f64 / 1024.0, 1);
    m.set("setup_s", median_f64(&mut setups), setups.len() as u64);
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        broken,
        input_hash,
        backend,
        notes,
    })
}

/// The per-layer run: probes, an untraced window for the counters, a traced
/// window for the spans.
fn traced<W: World + Sync>(args: &Args, config: &Config, spans: &Spans) -> Result<Outcome, String> {
    let mut layer = Metrics::of(PER_LAYER);
    let mut notes = Vec::new();
    let half = args.seconds as f64 / 2.0;

    let programs = workloads::scheme_mix::load_programs(&args.programs)?;
    let t0 = Instant::now();
    probes::run_all(&programs, &mut layer)?;
    notes.push(format!("probes took {:.2} s", t0.elapsed().as_secs_f64()));

    let (world, _) = set_up::<W>(config)?;
    world.setup_metrics(&mut layer);
    let (input_hash, backend) = (world.input_hash(), backend(&world));
    let before = Substrate::read(&world.vms());
    let plain = timed_window(&world, half, false);
    let delta = Substrate::read(&world.vms()).since(&before);
    counter_rows(&plain, &delta, &mut layer);
    layer.set("timers.pending_peak", plain.gauge_peak as f64, 1);
    let aged = world.teardown().err();

    // The traced window gets a world as fresh as the untraced one had:
    // where throughput drifts as a world ages, a second window on the same
    // world would book the drift as tracing overhead.
    let (world, _) = set_up::<W>(config)?;
    let traced = timed_window(&world, half, true);
    let read = spans.read();
    world.traced_metrics(&traced, &read, &mut layer);

    let mut latencies = plain.latencies_ns();
    let (q, p) = tail(&mut latencies);
    notes.push(format!(
        "harness.op_latency_p99_us is the p{:.2} of {} samples",
        q * 100.0,
        latencies.len()
    ));
    layer.set("harness.op_latency_p99_us", p / 1e3, plain.attempted());
    layer.set(
        "harness.samples",
        plain.attempted() as f64,
        plain.attempted(),
    );
    layer.set(
        "harness.trace_overhead_share",
        1.0 - ratio(traced.ops_per_s(), plain.ops_per_s()),
        traced.attempted(),
    );
    let kept = read.iter().flatten().count();
    layer.set(
        "harness.op_self_share",
        spans::op_self_share(&read),
        kept as u64,
    );
    layer.set("harness.build_s", args.build_s, 1);
    layer.set(
        "harness.generator_late_share",
        plain.generator_late_share(),
        plain.attempted(),
    );

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join(format!("trace-{}.json", args.workload));
    spans::write_json(
        &path,
        &args.workload,
        world.spanned_one_in(),
        spans.dropped(),
        &read,
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!(
        "traced window: one op in {} spanned, {kept} spans kept, {} dropped, written to {}",
        world.spanned_one_in(),
        spans.dropped(),
        path.display()
    ));

    Ok(Outcome {
        metrics: layer,
        attempted: plain.attempted() + traced.attempted(),
        failed: plain.failed() + traced.failed(),
        broken: aged.or(world.teardown().err()),
        input_hash,
        backend,
        notes,
    })
}

/// The reactor backend the world's I/O driver resolved to.
fn backend<W: World>(world: &W) -> String {
    world
        .vms()
        .first()
        .map_or("unstarted", |vm| vm.io_driver().stats().backend)
        .to_string()
}

fn drive<W: World + Sync>(args: &Args) -> Result<Outcome, String> {
    let spans = args.trace.then(|| Arc::new(Spans::new(SPAN_CAPACITY)));
    let config = Config {
        seed: args.seed,
        programs: args.programs.clone(),
        spans: spans.clone(),
    };
    match &spans {
        None => untraced::<W>(args, &config),
        Some(spans) => traced::<W>(args, &config, spans),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(o: &Outcome) -> String {
    let rows: Vec<String> = o
        .metrics
        .rows()
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.broken.is_none(),
        o.attempted,
        o.failed,
        rows.join(", ")
    )
}

/// The record `run.sh` gathers into `out/result.json`: the result plus the
/// sample counts and the environment it was measured in.
fn record(args: &Args, env: &env::Env, o: &Outcome) -> String {
    let rows: Vec<String> = o
        .metrics
        .rows()
        .iter()
        .map(|m| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                json_string(m.name),
                m.value,
                json_string(m.unit),
                m.samples
            )
        })
        .collect();
    let notes: Vec<String> = o.notes.iter().map(|n| json_string(n)).collect();
    format!(
        "{{\n  \"workload\": {},\n  \"trace\": {},\n  \"seed\": {},\n  \"input_hash\": \"{:016x}\",\n  \
         \"window_s\": {},\n  \"threads\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"failed_share\": {},\n  \"broken\": {},\n  \"reactor_backend\": {},\n  \"environment\": {},\n  \
         \"notes\": [{}],\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        json_string(&args.workload),
        args.trace,
        args.seed,
        o.input_hash,
        if args.trace {
            format!("[{0}, {0}]", args.seconds as f64 / 2.0)
        } else {
            format!("{:?}", [args.seconds as f64 / SEGMENTS as f64; SEGMENTS])
        },
        parallelism(),
        o.failed == 0 && o.broken.is_none(),
        o.attempted,
        o.failed,
        ratio(o.failed as f64, o.attempted as f64),
        o.broken.as_deref().map_or("null".into(), json_string),
        json_string(&o.backend),
        env.to_json(&args.commit),
        notes.join(", "),
        rows.join(",\n")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sting-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let env = env::Env::capture();
    env.warn_if_loaded();

    let outcome = match args.workload.as_str() {
        "fork_tree" => drive::<workloads::fork_tree::ForkTree>(&args),
        "tuple_farm" => drive::<workloads::tuple_farm::TupleFarm>(&args),
        "echo_server" => drive::<workloads::echo_server::EchoServer>(&args),
        _ => drive::<workloads::scheme_mix::SchemeMix>(&args),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sting-benchmark: {e}");
            return ExitCode::from(2);
        }
    };

    let w = &args.workload;
    println!(
        "{w} input_hash {:016x} - seed={}",
        outcome.input_hash, args.seed
    );
    for m in outcome.metrics.rows() {
        println!("{w} {} {} {} n={}", m.name, m.value, m.unit, m.samples);
    }
    println!(
        "{w} failed_share {} ratio n={}",
        ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.attempted
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    if let Some(broken) = &outcome.broken {
        eprintln!("sting-benchmark: {broken}");
    }

    let path = args
        .out
        .join(format!("{w}-trace{}.json", u8::from(args.trace)));
    if let Err(e) = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, record(&args, &env, &outcome)))
    {
        eprintln!("sting-benchmark: {}: {e}", path.display());
        return ExitCode::from(2);
    }

    println!("{}", result_line(&outcome));
    if outcome.failed == 0 && outcome.broken.is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
