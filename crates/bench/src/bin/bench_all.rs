//! Unified benchmark runner: Figure 6 and every shape experiment, in one
//! process, with a schema-versioned JSON report.
//!
//! ```text
//! cargo run --release -p sting-bench --bin bench_all            # full run
//! cargo run --release -p sting-bench --bin bench_all -- --smoke # CI tier
//! ```
//!
//! The report goes to `target/BENCH.json` unless `--out` names another
//! path.  Timed rows are reported, never gated against an earlier run: a
//! speed claim is a parent-against-change comparison on the repository
//! benchmark.
//!
//! Exit status: 0 on success, 1 when any check whose name does not start
//! with `info:` fails (Figure 6's after three attempts; the gates that need
//! a second core carry `info:` on the smoke tier and on a box that has no
//! second core to give), 2 on usage or I/O errors.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use sting::core::CounterSnapshot;
use sting::prelude::*;
use sting_bench::report::{BenchReport, BenchRow, Check};
use sting_bench::shapes::{self, Scale};
use sting_bench::{
    dist::Dist, figure6_checks, figure6_gates_pass, measure_figure6, render_figure6,
};

/// Counts allocations per OS thread, for the `fork:allocs-per-thread<=1`
/// and `scheme:call-does-not-malloc` gates.
#[global_allocator]
static ALLOCATOR: sting_bench::CountingAllocator = sting_bench::CountingAllocator;

/// E8 tree depth: the `fork_tree` benchmark's, at every scale.
const FORK_DEPTH: u32 = 10;

/// E5 lock-and-release rounds per thread, at every scale.
const MUTEX_ROUNDS: usize = 200;

struct Args {
    smoke: bool,
    iters: Option<u64>,
    reps: Option<u64>,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        iters: None,
        reps: None,
        out: "target/BENCH.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--iters" => args.iters = Some(value("--iters")?.parse().map_err(|e| format!("{e}"))?),
            "--reps" => args.reps = Some(value("--reps")?.parse().map_err(|e| format!("{e}"))?),
            "--out" => args.out = value("--out")?,
            "--help" | "-h" => {
                return Err("usage: bench_all [--smoke] [--iters N] [--reps N] \
                            [--out PATH (default target/BENCH.json)]"
                    .to_string());
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// Times `reps` runs of `workload`, each on a fresh VM from `mk`; only the
/// workload is timed (VM construction and shutdown are excluded).  Also
/// returns each run's counters.
fn run_reps(
    reps: u64,
    mk: impl Fn() -> Arc<Vm>,
    workload: impl Fn(&Arc<Vm>),
) -> (Dist, Vec<CounterSnapshot>) {
    let mut samples = Vec::with_capacity(reps as usize);
    let mut counts = Vec::with_capacity(reps as usize);
    for _ in 0..reps.max(1) {
        let vm = mk();
        let start = Instant::now();
        workload(&vm);
        samples.push(start.elapsed().as_nanos() as f64);
        counts.push(vm.counters().snapshot());
        vm.shutdown();
    }
    (Dist::from_samples(samples), counts)
}

type Counter = fn(&CounterSnapshot) -> u64;

/// The counters a shape row reports beside its time, and how to read each.
const COUNTS: [(&str, Counter); 9] = [
    ("threads", |c| c.threads_created),
    ("tcbs", |c| c.tcbs_allocated),
    ("steals", |c| c.steals),
    ("blocks", |c| c.blocks),
    ("yields", |c| c.yields),
    ("preemptions", |c| c.preemptions),
    ("switches", |c| c.context_switches),
    ("migrations", |c| c.migrations),
    ("wakes", |c| c.worker_wakes),
];

/// [`run_reps`] over a fleet: one `shards`-shard fleet (4 VPs total,
/// untraced) and one sharded space serve every rep, with a warm-up run
/// first — a cold fleet's first workload pays worker spin-up and stack
/// allocation, which would drown the short tree rows.
fn run_fleet_reps(reps: u64, shards: usize, workload: impl Fn(&Fleet, &ShardedSpace)) -> Dist {
    let fleet = shapes::shard_fleet(shards, 4, false);
    let ts = ShardedSpace::new(&fleet);
    workload(&fleet, &ts); // warm-up: workers spun up, stacks pooled
    let mut samples = Vec::with_capacity(reps as usize);
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        workload(&fleet, &ts);
        samples.push(start.elapsed().as_nanos() as f64);
    }
    fleet.shutdown();
    Dist::from_samples(samples)
}

/// Steal-throughput ns/dispatch over `reps` timed hammers (after one
/// warm-up hammer) on a single VM, and each timed hammer's counters.
fn steal_throughput(
    vm: &Arc<Vm>,
    reps: u64,
    threads: i64,
    yields: i64,
) -> (Dist, Vec<CounterSnapshot>) {
    shapes::steal_hammer(vm, threads, yields); // warm-up: stacks pooled, workers awake
    let expected: i64 = (0..threads).sum();
    let mut samples = Vec::with_capacity(reps as usize);
    let mut counts = Vec::with_capacity(reps as usize);
    for _ in 0..reps.max(1) {
        let before = vm.counters().snapshot();
        let start = Instant::now();
        let sum = shapes::steal_hammer(vm, threads, yields);
        let t = start.elapsed();
        counts.push(vm.counters().snapshot().since(&before));
        assert_eq!(sum, expected);
        samples.push(t.as_nanos() as f64 / shapes::steal_dispatches(threads, yields));
    }
    (Dist::from_samples(samples), counts)
}

/// A run's rows, each printed as it is added.
struct Rows(Vec<BenchRow>);

impl Rows {
    /// Adds the row of `d`.
    fn add(&mut self, suite: &str, name: &str, unit: &str, d: &Dist) {
        self.push(BenchRow::from_dist(suite, name, unit, d));
    }

    fn push(&mut self, row: BenchRow) {
        print_row(&row);
        self.0.push(row);
    }

    /// Adds one `count` row per [`COUNTS`] entry, `<name>-<counter>`, a
    /// sample per snapshot in `runs` divided by `per`, and prints their
    /// medians on one line.
    fn counts(&mut self, suite: &str, name: &str, runs: &[CounterSnapshot], per: f64) {
        let mut line = String::new();
        for (counter, read) in COUNTS {
            let d = Dist::from_samples(runs.iter().map(|c| read(c) as f64 / per).collect());
            line += &format!(" {counter}={}", (d.p50() * 1e3).round() / 1e3);
            let name = format!("{name}-{counter}");
            self.0.push(BenchRow::from_dist(suite, &name, "count", &d));
        }
        println!("  {:<41}{line}", "");
    }

    /// The median of row `(suite, name)`, or NaN when there is none.
    fn p50(&self, suite: &str, name: &str) -> f64 {
        let row = self.0.iter().find(|r| r.suite == suite && r.name == name);
        row.map_or(f64::NAN, |r| r.p50)
    }
}

fn print_row(r: &BenchRow) {
    // Rows in ms or µs are small numbers; show their fraction.
    let digits = if r.mean < 1000.0 { 2 } else { 0 };
    println!(
        "  {:<12} {:<28} {:>12.digits$} {:>12.digits$} {:>12.digits$} {:>12.digits$}  {}",
        r.suite, r.name, r.min, r.mean, r.p50, r.p99, r.unit
    );
}

fn main() -> ExitCode {
    // Hidden mode: the server benchmark re-executes this binary as its
    // echo client so the held connections live in their own fd table.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().is_some_and(|a| a == "--echo-client") {
        return match sting_bench::server::echo_client_main(&raw[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let mut scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    if let Some(iters) = args.iters {
        scale.figure6_iters = iters;
    }
    if let Some(reps) = args.reps {
        scale.reps = reps;
    }
    let reps = scale.reps;
    let mode = if args.smoke { "smoke" } else { "full" };
    println!(
        "bench_all — mode={mode}, figure6 iters={}, reps={reps}",
        scale.figure6_iters
    );

    let mut rows = Rows(Vec::new());
    let mut checks: Vec<Check> = Vec::new();

    // --- Figure 6, with up to three attempts to clear the ordering gates
    // (a background hiccup on a shared machine can invert the closest
    // pair; a genuine regression fails all three). ---
    for attempt in 1..=3 {
        eprintln!("figure6 (attempt {attempt}):");
        let f6 = measure_figure6(scale.figure6_iters);
        let f6_checks = figure6_checks(&f6);
        if attempt == 3 || figure6_gates_pass(&f6_checks) {
            println!("{}", render_figure6(&f6));
            rows.0.extend(f6.iter().map(|r| {
                BenchRow::from_dist("figure6", r.name, "ns/iter", &r.dist).with_paper_us(r.paper_us)
            }));
            checks.extend(f6_checks);
            break;
        }
        eprintln!("  ordering gate failed; re-measuring");
    }

    // --- E1: stealing vs scheduling policy ---
    println!("shape: stealing (primes limit {})", scale.primes_limit);
    for cfg in shapes::STEALING_CONFIGS {
        let limit = scale.primes_limit;
        let (d, counts) = run_reps(
            reps,
            || shapes::stealing_vm(cfg),
            |vm| shapes::primes_futures(vm, limit, cfg.lazy, cfg.stealable),
        );
        let name = format!("stealing-{}", cfg.name);
        rows.add("shape", &name, "ns/run", &d);
        rows.counts("shape", &name, &counts, 1.0);
    }
    // §4.1.1's claim as two counts on the 1-VP rows, which repeat exactly
    // from run to run: under LIFO a toucher finds its future still queued
    // and steals it, under FIFO the future has mostly run already; and each
    // steal runs a thread on its toucher's TCB, so stealing keeps the TCB
    // count far below the thread count.
    let count = |config: &str| rows.p50("shape", &format!("stealing-{config}"));
    let [lifo, fifo] = [count("lifo-eager-steals"), count("fifo-eager-steals")];
    checks.push(Check {
        name: "shape:lifo-steals>=4x-fifo".to_string(),
        pass: lifo >= 4.0 * fifo.max(1.0),
        detail: format!(
            "eager primes on 1 VP: {lifo} steals under LIFO vs {fifo} under FIFO (gate: LIFO >= 4 x max(FIFO, 1))"
        ),
    });
    // Lazy futures under LIFO, stealable or not: the rows differ in stealing alone.
    let [with, without] = [count("lifo-lazy-tcbs"), count("lazy-stealing-off-tcbs")];
    checks.push(Check {
        name: "shape:stealing-throttles-tcbs".to_string(),
        pass: 4.0 * with <= without,
        detail: format!(
            "lazy primes on 1 VP: {with} TCBs with stealing vs {without} with stealing off (gate <= 1/4)"
        ),
    });

    // --- E2: policy / program-structure matching ---
    println!(
        "shape: policies (farm {} jobs, tree depth {})",
        scale.farm_jobs, scale.tree_depth
    );
    type PolicyVm = (&'static str, fn() -> Arc<Vm>);
    let policy_vms: [PolicyVm; 3] = [
        ("global-fifo", shapes::global_queue_vm),
        ("local-lifo", || shapes::local_queue_vm(false)),
        ("migrating-lifo", || shapes::local_queue_vm(true)),
    ];
    for (policy, mk) in policy_vms {
        let (jobs, depth) = (scale.farm_jobs, scale.tree_depth);
        let farm = run_reps(reps, mk, |vm| shapes::farm_workload(vm, jobs));
        let tree = run_reps(reps, mk, |vm| shapes::tree_workload(vm, depth));
        for (shape, (d, counts)) in [("farm", farm), ("tree", tree)] {
            let name = format!("{shape}-{policy}");
            rows.add("shape", &name, "ns/run", &d);
            rows.counts("shape", &name, &counts, 1.0);
        }
    }

    // --- E2 addendum: manager-kept vs substrate-kept ready queue, and
    // the substrate-kept one under a priority policy, where the hammer's
    // priorities spread over every band and the multi-level scan and
    // occupancy bitmask do the work rather than band 0 alone.
    println!(
        "shape: steal-throughput ({} threads x {} yields)",
        scale.steal_threads, scale.steal_yields
    );
    type Policy = fn() -> Box<dyn sting::core::PolicyManager>;
    for vps in [1usize, 2, 4] {
        for (order, tier, policy) in [
            ("", "locked", shapes::manager_kept_fifo as Policy),
            ("", "lockfree", shapes::migrating_fifo),
            ("prio-", "deque", shapes::migrating_priority),
        ] {
            let vm = shapes::steal_vm(vps, policy);
            let (d, counts) = steal_throughput(&vm, reps, scale.steal_threads, scale.steal_yields);
            vm.shutdown();
            let name = format!("steal-throughput-{order}{vps}vp-{tier}");
            rows.add("shape", &name, "ns/dispatch", &d);
            rows.counts("shape", &name, &counts, 1.0);
        }
    }

    // --- E4: preemption inside critical sections ---
    println!(
        "shape: preemption ({} workers x {} rounds)",
        scale.preempt_workers, scale.preempt_rounds
    );
    for (name, shield) in [("enabled", false), ("shielded", true)] {
        let (workers, rounds) = (scale.preempt_workers, scale.preempt_rounds);
        let (d, counts) = run_reps(reps, shapes::preemption_vm, |vm| {
            shapes::preemption_run(vm, workers, rounds, shield);
        });
        let name = format!("preemption-{name}");
        rows.add("shape", &name, "ns/run", &d);
        rows.counts("shape", &name, &counts, 1.0);
    }

    // --- E5: active/passive spinning mutexes, swept over the active-spin
    // count under four-thread contention on one VP ---
    println!("shape: mutex spins (4 threads x {MUTEX_ROUNDS} rounds on 1 VP)");
    for active in [0u32, 16, 256] {
        let (d, _) = run_reps(
            reps,
            || VmBuilder::new().vps(1).build(),
            |vm| shapes::mutex_contention(vm, active, MUTEX_ROUNDS),
        );
        rows.add(
            "shape",
            &format!("mutex-spins-active-{active}"),
            "ns/run",
            &d,
        );
    }

    // A claim about a second VP (or shard) needs a second core: where two
    // plain OS threads do not run side by side either (one processor, or a
    // sandbox that rations two to one core's worth), and on the smoke
    // tier, which runs beside the rest of tier 1, the scaling gates below
    // are advisory.
    let second_core = shapes::second_core_speedup();
    let advisory = if args.smoke || second_core < 1.6 {
        "info:"
    } else {
        ""
    };

    // --- E3: tuple-space locking granularity ---
    println!(
        "shape: tuple-locks ({} keys x {} rounds)",
        scale.tuple_keys, scale.tuple_rounds
    );
    let mut locks_p50 = [0.0f64; 2]; // [per-bucket, global-lock]
    for (slot, (name, buckets)) in locks_p50
        .iter_mut()
        .zip([("per-bucket", 64usize), ("global-lock", 1)])
    {
        let (keys, rounds) = (scale.tuple_keys, scale.tuple_rounds);
        let samples = (0..reps.max(1))
            .map(|_| {
                let vm = VmBuilder::new().vps(2).processors(2).build();
                let ts = TupleSpace::with_kind(SpaceKind::Hashed { buckets });
                let t = shapes::tuple_locks_workload(&vm, &ts, keys, rounds);
                vm.shutdown();
                t.as_nanos() as f64
            })
            .collect();
        let d = Dist::from_samples(samples);
        *slot = d.p50();
        rows.add("shape", &format!("tuple-locks-{name}"), "ns/run", &d);
    }
    checks.push(Check {
        name: format!("{advisory}shape:tuple-locks-per-bucket-beats-global-lock"),
        pass: locks_p50[0] < locks_p50[1],
        detail: format!(
            "4 workers on 2 VPs, same chains: {:.0} ns with a lock a bin vs {:.0} ns with one lock ({:.2}x; this box's second core {second_core:.2}x)",
            locks_p50[0],
            locks_p50[1],
            locks_p50[1] / locks_p50[0]
        ),
    });

    // Counts, so enforced on any box: a tuple-space call allocates the
    // caller's vectors and the `Arc` of the tuple a `put` stores, nothing
    // else (ROADMAP item 5).
    let (put_get_allocs, rd_allocs) = {
        let vm = VmBuilder::new().vps(1).build();
        let allocs = shapes::tuple_call_allocs(&vm);
        vm.shutdown();
        allocs
    };
    checks.push(Check {
        name: "tuple:put-get-allocs<=2".to_string(),
        pass: put_get_allocs <= 2.0,
        detail: format!(
            "put of a fresh vector + get through a reused template, beside 10 000 bystanders: {put_get_allocs:.2} Rust-heap allocations a round (the vector and the stored tuple's Arc)"
        ),
    });
    checks.push(Check {
        name: "tuple:rd-allocs<=1".to_string(),
        pass: rd_allocs <= 1.0,
        detail: format!(
            "rd through a template built per call: {rd_allocs:.2} Rust-heap allocations a round (the template's vector)"
        ),
    });

    // --- E7: sharded fleets over the partitioned tuple-space fabric.
    // Total VPs (4) and total work stay fixed as the shard count rises,
    // so the rows isolate what partitioning buys: per-partition locks,
    // shorter waiter chains, and shard-local wake-ups. ---
    let shard_counts: &[usize] = if args.smoke { &[1, 2] } else { &[1, 2, 4] };
    println!(
        "shard: farm {} jobs / tree depth {} across {:?} shards (4 VPs total)",
        scale.shard_jobs, scale.shard_tree_depth, shard_counts
    );
    let mut shard_farm_p50: Vec<f64> = Vec::new();
    for &shards in shard_counts {
        let jobs = scale.shard_jobs;
        let d = run_fleet_reps(reps, shards, |fleet, ts| {
            shapes::shard_farm_workload(fleet, ts, jobs, 16);
        });
        shard_farm_p50.push(d.p50());
        rows.add("shard", &format!("farm-{shards}shard"), "ns/run", &d);
        let depth = scale.shard_tree_depth;
        let d = run_fleet_reps(reps, shards, |fleet, _ts| {
            shapes::shard_tree_workload(fleet, depth);
        });
        rows.add("shard", &format!("tree-{shards}shard"), "ns/run", &d);
    }
    // The scaling claim is a full-scale gate (4 shards, 2000 jobs); the
    // smoke tier runs only the 1- and 2-shard rows alongside the rest of
    // tier 1, so there the ratio is recorded but only advisory.
    let top = *shard_counts.last().unwrap();
    let speedup = shard_farm_p50[0] / shard_farm_p50[shard_farm_p50.len() - 1];
    let (gate, bar) = if args.smoke {
        ("info:shard:farm-2shard>=1.2x-1shard".to_string(), 1.2)
    } else {
        (format!("{advisory}shard:farm-4shard>=1.6x-1shard"), 1.6)
    };
    checks.push(Check {
        name: gate,
        pass: speedup >= bar,
        detail: format!(
            "farm p50 {:.0} ns at 1 shard vs {:.0} ns at {top} shards ({:.2}x, 4 VPs total)",
            shard_farm_p50[0],
            shard_farm_p50[shard_farm_p50.len() - 1],
            speedup
        ),
    });
    // Fleet-wide trace audit over the merged rings: the multi-shard farm
    // must leave no lost wake-up, leaked waiter, or post-cancel wake
    // across any shard's ring once the Lamport merge orders them.
    {
        let fleet = shapes::shard_fleet(top, 4, true);
        let ts = ShardedSpace::new(&fleet);
        shapes::shard_farm_workload(&fleet, &ts, scale.shard_jobs, 16);
        let report = fleet.trace_audit();
        let bad = report
            .findings
            .iter()
            .filter(|f| {
                matches!(
                    f.kind,
                    sting::core::audit::FindingKind::WaiterLeak
                        | sting::core::audit::FindingKind::LostWakeup
                        | sting::core::audit::FindingKind::WakeAfterCancel
                )
            })
            .count();
        checks.push(Check {
            name: format!("shard:merged-audit-clean@{top}shard"),
            pass: bad == 0,
            detail: format!(
                "{bad} wake/waiter violations in the merged {top}-shard farm trace ({} findings total)",
                report.findings.len()
            ),
        });
        fleet.shutdown();
    }

    // A fleet of single-VP shards uses every worker: two shards each
    // running one compute-bound thread take the wall time of one.  (Both
    // shards' VPs have index 0; mapped by that index they shared worker 0
    // and took twice as long.)
    let spins = if args.smoke { 20_000_000 } else { 100_000_000 };
    println!("fleet: two single-VP shards on two workers ({spins} spins a thread)");
    let fleet = shapes::two_shard_fleet();
    shapes::fleet_busy_shards(&fleet, 2, spins / 10); // warm-up: workers awake
    let mut busy_p50 = [0.0f64; 2];
    for (slot, (name, busy)) in busy_p50
        .iter_mut()
        .zip([("one-shard-busy", 1), ("two-shards-busy", 2)])
    {
        let samples = (0..reps.max(1))
            .map(|_| shapes::fleet_busy_shards(&fleet, busy, spins).as_nanos() as f64)
            .collect();
        let d = Dist::from_samples(samples);
        *slot = d.p50();
        rows.add("fleet", name, "ns/run", &d);
    }
    fleet.shutdown();
    checks.push(Check {
        name: format!("{advisory}fleet:two-shards-two-workers"),
        pass: busy_p50[1] <= 1.4 * busy_p50[0],
        detail: format!(
            "two busy shards: {:.0} ns vs {:.0} ns for one ({:.2}x; gate <= 1.40x, one worker for both 2.00x, this box's second core {second_core:.2}x)",
            busy_p50[1],
            busy_p50[0],
            busy_p50[1] / busy_p50[0]
        ),
    });

    // --- E8: fork scaling.  The `fork_tree` benchmark's tree (eager depth
    // 10, 2047 threads, per-VP LIFO) on one VP, on two VPs that share
    // nothing (two pinned trees, no stealing), migrating, and lazy; then a
    // world driven long enough for leaked queue entries to show. ---
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "fork: scaling (depth {FORK_DEPTH}, {} reps, {cpus} cpus, two OS threads run {second_core:.2}x one)",
        scale.fork_reps
    );
    let mut fork_p50 = [0.0f64; 3]; // [1vp, 2vp-pinned, 2vp-migrating]
    let mut wakes_per_fork = 0.0;
    // The pinned rows run sixteen trees per VP per rep — long enough for
    // the OS to spread the workers over its cores — the other two one tree
    // at a time, as the `fork_tree` benchmark does.
    for (i, (name, vps, migrating, trees, lazy)) in [
        ("1vp", 1, false, 32, false),
        ("2vp-pinned", 2, false, 32, false),
        ("2vp-migrating", 2, true, 1, false),
        ("lazy", 2, true, 1, true),
    ]
    .into_iter()
    .enumerate()
    {
        let vm = shapes::fork_vm(vps, migrating);
        let reps = if trees > 1 {
            scale.fork_reps / 8
        } else {
            scale.fork_reps
        };
        let before = vm.counters().snapshot();
        let d = shapes::fork_tree_cost(&vm, reps, trees, FORK_DEPTH, lazy);
        let counted = vm.counters().snapshot().since(&before);
        vm.shutdown();
        if let Some(slot) = fork_p50.get_mut(i) {
            *slot = d.p50();
        }
        if name == "2vp-migrating" {
            wakes_per_fork = counted.worker_wakes as f64 / counted.threads_created.max(1) as f64;
        }
        rows.add("fork", name, "ns/tree", &d);
        // The warm-up run is counted too.
        let trees_run = ((d.len() + 1) * trees) as f64;
        rows.counts("fork", &format!("{name}-per-tree"), &[counted], trees_run);
        if name == "1vp" {
            // E8's per-thread budget row: one eager thread, forked, absorbed
            // by its toucher and determined on one VP.
            let per = d.scale(1.0 / shapes::tree_threads(FORK_DEPTH) as f64);
            rows.add("fork", "1vp-per-thread", "ns/thread", &per);
        }
    }
    // A count, so enforced on any box: the thread record, which holds its
    // body in place, is a fork's only allocation.
    let allocs_per_thread = {
        let vm = shapes::fork_vm(1, false);
        let allocs = shapes::tree_allocs_per_thread(&vm, FORK_DEPTH);
        vm.shutdown();
        allocs
    };
    checks.push(Check {
        name: "fork:allocs-per-thread<=1".to_string(),
        pass: allocs_per_thread <= 1.0,
        detail: format!(
            "one eager tree on 1 VP, counted on its worker: {allocs_per_thread:.2} Rust-heap allocations per forked thread (the thread record)"
        ),
    });
    checks.push(Check {
        name: format!("{advisory}fork:two-pinned-vps-beat-one-vp"),
        pass: fork_p50[1] <= 0.7 * fork_p50[0],
        detail: format!(
            "pinned trees: {:.0} ns/tree on 2 VPs vs {:.0} on 1 VP ({:.2}x; gate <= 0.70x, share-nothing 0.50x, this box's second core {second_core:.2}x)",
            fork_p50[1],
            fork_p50[0],
            fork_p50[1] / fork_p50[0]
        ),
    });
    // Forks stay on the forking VP; the idle sibling is woken by the push
    // that gives it something to steal and takes the oldest subtree, so a
    // second VP can only help the tree.
    checks.push(Check {
        name: format!("{advisory}fork:migrating-tree-no-slower-than-one-vp"),
        pass: fork_p50[2] <= fork_p50[0],
        detail: format!(
            "one migrating tree on 2 VPs: {:.0} ns vs {:.0} ns/tree on 1 VP ({:.2}x; this box's second core {second_core:.2}x)",
            fork_p50[2],
            fork_p50[0],
            fork_p50[2] / fork_p50[0]
        ),
    });
    // A count, so enforced on any box: a fork wakes a parked worker only
    // when that worker has something to steal and nobody is looking yet.
    checks.push(Check {
        name: "machine:wakes-per-fork<=0.05".to_string(),
        pass: wakes_per_fork <= 0.05,
        detail: format!(
            "one migrating tree on 2 VPs: {wakes_per_fork:.4} worker wake-ups per fork"
        ),
    });
    let residue = shapes::fork_world_residue(scale.fork_world, FORK_DEPTH);
    for (name, unit, value) in [
        ("world-trees", "count", residue.trees as f64),
        ("world-queued", "count", residue.queued as f64),
        ("world-rss-growth", "MB", residue.grown as f64 / 1e6),
    ] {
        rows.add("fork", name, unit, &Dist::from_samples(vec![value]));
    }
    checks.push(Check {
        name: "fork:queue-stays-bounded".to_string(),
        pass: residue.bounded(),
        detail: format!(
            "{} eager trees in {:?}: {} ready-queue entries left (gate <= 64), resident memory {:+.2} MB over the last {:.1} s (gate < 1 MB/s + 8 MB)",
            residue.trees,
            scale.fork_world,
            residue.queued,
            residue.grown as f64 / 1e6,
            residue.over.as_secs_f64()
        ),
    });

    // --- The Scheme machine's hot paths, and the two count gates on them
    // (a reference to a global allocates nothing after the first; a
    // closure call never reaches the Rust allocator). ---
    println!("scheme: machine hot paths");
    for (name, unit, d) in sting_bench::scheme::rows(args.smoke, reps) {
        rows.add("scheme", name, unit, &d);
    }
    checks.extend(sting_bench::scheme::gates());

    // --- Server: connection-per-thread echo under the reactor ---
    let sscale = if args.smoke {
        sting_bench::server::ServerScale::smoke()
    } else {
        sting_bench::server::ServerScale::full()
    };
    println!(
        "server: echo ({} connections on {} vps, {} echoes)",
        sscale.conns, sscale.vps, sscale.echoes
    );
    match sting_bench::server::run(&sscale) {
        Ok((srows, schecks)) => {
            for r in srows {
                rows.push(r);
            }
            checks.extend(schecks);
        }
        Err(e) => checks.push(Check {
            name: "server:echo-bench-epoll".to_string(),
            pass: false,
            detail: e,
        }),
    }

    // --- Metrics overhead: the same steal-throughput hammer with the
    // latency histograms enabled (the default) vs disabled.  The two VMs
    // are hammered in alternation so clock drift and thermal effects hit
    // both settings equally, and both get a warm-up hammer first. ---
    // The 1vp configuration is the right probe: multi-VP runs settle into
    // per-VM migration modes whose throughput gap dwarfs any plausible
    // instrumentation cost, while the single-VP run is stable and still
    // crosses the instrumented enqueue/dispatch path on every yield.
    println!("overhead: metrics on vs off (1vp lock-free steal-throughput, interleaved)");
    let mk = |metrics_on: bool| {
        let vm = VmBuilder::new()
            .vps(1)
            .processors(1)
            .policy(|_| policies::local_fifo().migrating(true).boxed())
            .build();
        vm.metrics().set_enabled(metrics_on);
        vm
    };
    let vm_on = mk(true);
    let vm_off = mk(false);
    // Always full-size: the smoke hammer is too short (~1k dispatches) to
    // resolve a couple of percent above OS jitter, and this pair of rows
    // is the one the ±2% claim rests on.
    let (threads, yields) = (256i64, 64i64);
    shapes::steal_hammer(&vm_on, threads, yields);
    shapes::steal_hammer(&vm_off, threads, yields);
    let mut on_samples = Vec::new();
    let mut off_samples = Vec::new();
    for _ in 0..reps.max(9) {
        for (vm, samples) in [(&vm_on, &mut on_samples), (&vm_off, &mut off_samples)] {
            let start = Instant::now();
            shapes::steal_hammer(vm, threads, yields);
            samples.push(
                start.elapsed().as_nanos() as f64 / shapes::steal_dispatches(threads, yields),
            );
        }
    }
    vm_on.shutdown();
    vm_off.shutdown();
    for (name, samples) in [
        ("steal-throughput-metrics-on", on_samples),
        ("steal-throughput-metrics-off", off_samples),
    ] {
        let d = Dist::from_samples(samples);
        rows.add("overhead", name, "ns/dispatch", &d);
    }
    // The ratio itself comes from a tighter probe: a batched yield loop on
    // a single VP crosses the same instrumented enqueue->dispatch path on
    // every iteration, and comparing the minimum per-batch cost between
    // interleaved metrics-on/metrics-off VMs isolates the instrumentation
    // from the OS jitter that dominates the whole-hammer timings above.
    let yield_iters = scale.figure6_iters.max(10_000);
    let mut per_setting = [f64::INFINITY; 2];
    for _round in 0..3 {
        for (i, metrics_on) in [true, false].into_iter().enumerate() {
            let vm = mk(metrics_on);
            let d = sting_bench::on_thread(&vm, move |cx| {
                sting_bench::time_per_iter(yield_iters, || cx.yield_now())
            });
            vm.shutdown();
            per_setting[i] = per_setting[i].min(d.min());
        }
    }
    let ratio = if per_setting[1] > 0.0 {
        per_setting[0] / per_setting[1]
    } else {
        f64::NAN
    };
    for (i, name) in [("yield-metrics-on"), ("yield-metrics-off")]
        .into_iter()
        .enumerate()
    {
        let d = Dist::from_samples(vec![per_setting[i]]);
        rows.add("overhead", name, "ns/yield", &d);
    }
    checks.push(Check {
        name: "info:metrics-overhead<=2%".to_string(),
        pass: ratio <= 1.02,
        detail: format!(
            "best per-yield dispatch {:.1} ns with metrics vs {:.1} ns without ({:+.2}%)",
            per_setting[0],
            per_setting[1],
            (ratio - 1.0) * 100.0
        ),
    });

    // --- Report ---
    let report = BenchReport {
        config: vec![
            ("mode".to_string(), mode.to_string()),
            ("figure6_iters".to_string(), scale.figure6_iters.to_string()),
            ("reps".to_string(), reps.to_string()),
            ("cpus".to_string(), cpus.to_string()),
            (
                "second_core_speedup".to_string(),
                format!("{second_core:.2}"),
            ),
        ],
        rows: rows.0,
        checks,
    };
    println!("\nchecks:");
    for c in &report.checks {
        println!(
            "  [{}] {} ({})",
            if c.pass { "pass" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    let out = std::path::Path::new(&args.out);
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(out, report.to_json()));
    if let Err(e) = written {
        eprintln!("failed to write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    println!("report written to {}", args.out);

    // One rule: every check not marked `info:` is a gate.
    let mut failed = false;
    for c in report
        .checks
        .iter()
        .filter(|c| !c.pass && !c.name.starts_with("info:"))
    {
        eprintln!("FAIL: {} ({})", c.name, c.detail);
        failed = true;
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
