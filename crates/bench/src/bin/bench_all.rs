//! Unified benchmark runner: Figure 6 + every shape experiment + the
//! storage-model rows, in one process, with a schema-versioned JSON report
//! and a regression gate against a committed baseline.
//!
//! ```text
//! cargo run --release -p sting-bench --bin bench_all            # full run
//! cargo run --release -p sting-bench --bin bench_all -- --smoke # CI tier
//! cargo run --release -p sting-bench --bin bench_all -- \
//!     --against BENCH_PR20.json --threshold 0.10                # regress?
//! ```
//!
//! Exit status: 0 on success, 1 when any check whose name does not start
//! with `info:` fails (Figure 6's after three attempts; the gates that need
//! a second core carry `info:` on the smoke tier and on a box that has no
//! second core to give), or `--against` finds a row slowed past the
//! threshold, 2 on usage or I/O errors.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use sting::prelude::*;
use sting_bench::report::{compare, BenchReport, BenchRow, Check};
use sting_bench::shapes::{self, Scale};
use sting_bench::{
    dist::Dist, figure6_checks, figure6_gates_pass, measure_figure6, render_figure6,
};

/// Counts allocations per OS thread, for the `fork:allocs-per-thread<=2`
/// and `scheme:call-does-not-malloc` gates.
#[global_allocator]
static ALLOCATOR: sting_bench::CountingAllocator = sting_bench::CountingAllocator;

/// E8 tree depth: the `fork_tree` benchmark's, at every scale.
const FORK_DEPTH: u32 = 10;

struct Args {
    smoke: bool,
    iters: Option<u64>,
    reps: Option<u64>,
    out: String,
    against: Option<String>,
    threshold: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        iters: None,
        reps: None,
        out: "BENCH_PR20.json".to_string(),
        against: None,
        threshold: 0.10,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--iters" => args.iters = Some(value("--iters")?.parse().map_err(|e| format!("{e}"))?),
            "--reps" => args.reps = Some(value("--reps")?.parse().map_err(|e| format!("{e}"))?),
            "--out" => args.out = value("--out")?,
            "--against" => args.against = Some(value("--against")?),
            "--threshold" => {
                args.threshold = value("--threshold")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: bench_all [--smoke] [--iters N] [--reps N] [--out PATH] \
                            [--against BASELINE.json] [--threshold FRACTION]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// Times `reps` runs of `workload`, each on a fresh VM from `mk`; only the
/// workload is timed (VM construction and shutdown are excluded).
fn run_reps(reps: u64, mk: impl Fn() -> Arc<Vm>, workload: impl Fn(&Arc<Vm>)) -> Dist {
    let mut samples = Vec::with_capacity(reps as usize);
    for _ in 0..reps.max(1) {
        let vm = mk();
        let start = Instant::now();
        workload(&vm);
        samples.push(start.elapsed().as_nanos() as f64);
        vm.shutdown();
    }
    Dist::from_samples(samples)
}

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
/// warm-up hammer) on a single VM.
fn steal_throughput(vm: &Arc<Vm>, reps: u64, threads: i64, yields: i64) -> Dist {
    shapes::steal_hammer(vm, threads, yields); // warm-up: stacks pooled, workers awake
    let expected: i64 = (0..threads).sum();
    let mut samples = Vec::with_capacity(reps as usize);
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let sum = shapes::steal_hammer(vm, threads, yields);
        let t = start.elapsed();
        assert_eq!(sum, expected);
        samples.push(t.as_nanos() as f64 / shapes::steal_dispatches(threads, yields));
    }
    Dist::from_samples(samples)
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

    // Load the baseline before measuring anything: a missing or
    // schema-incompatible file should fail in milliseconds, not after the
    // whole suite has run.
    let baseline = match &args.against {
        None => None,
        Some(path) => {
            match std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|t| BenchReport::from_json(&t))
            {
                Ok(b) => Some(b),
                Err(e) => {
                    eprintln!("failed to load baseline {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    };

    let mut rows: Vec<BenchRow> = Vec::new();
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
            rows.extend(f6.iter().map(|r| {
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
        let d = run_reps(
            reps,
            || shapes::stealing_vm(cfg, false),
            |vm| shapes::primes_futures(vm, limit, cfg.lazy, cfg.stealable),
        );
        let row = BenchRow::from_dist("shape", &format!("stealing-{}", cfg.name), "ns/run", &d);
        print_row(&row);
        rows.push(row);
    }

    // --- E2: policy / program-structure matching ---
    println!(
        "shape: policies (farm {} jobs, tree depth {})",
        scale.farm_jobs, scale.tree_depth
    );
    type PolicyVm = (&'static str, fn() -> Arc<Vm>);
    let policy_vms: [PolicyVm; 3] = [
        ("global-fifo", || shapes::global_queue_vm(false)),
        ("local-lifo", || shapes::local_queue_vm(false, false)),
        ("migrating-lifo", || shapes::local_queue_vm(true, false)),
    ];
    for (policy, mk) in policy_vms {
        let jobs = scale.farm_jobs;
        let d = run_reps(reps, mk, |vm| shapes::farm_workload(vm, jobs));
        let row = BenchRow::from_dist("shape", &format!("farm-{policy}"), "ns/run", &d);
        print_row(&row);
        rows.push(row);
        let depth = scale.tree_depth;
        let d = run_reps(reps, mk, |vm| shapes::tree_workload(vm, depth));
        let row = BenchRow::from_dist("shape", &format!("tree-{policy}"), "ns/run", &d);
        print_row(&row);
        rows.push(row);
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
            let vm = shapes::steal_vm(vps, false, policy);
            let d = steal_throughput(&vm, reps, scale.steal_threads, scale.steal_yields);
            vm.shutdown();
            let name = format!("steal-throughput-{order}{vps}vp-{tier}");
            let row = BenchRow::from_dist("shape", &name, "ns/dispatch", &d);
            print_row(&row);
            rows.push(row);
        }
    }

    // --- E4: preemption inside critical sections ---
    println!(
        "shape: preemption ({} workers x {} rounds)",
        scale.preempt_workers, scale.preempt_rounds
    );
    for (name, shield) in [("enabled", false), ("shielded", true)] {
        let (workers, rounds) = (scale.preempt_workers, scale.preempt_rounds);
        let d = run_reps(
            reps,
            || shapes::preemption_vm(false),
            |vm| shapes::preemption_run(vm, workers, rounds, shield),
        );
        let row = BenchRow::from_dist("shape", &format!("preemption-{name}"), "ns/run", &d);
        print_row(&row);
        rows.push(row);
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
        let row = BenchRow::from_dist("shape", &format!("tuple-locks-{name}"), "ns/run", &d);
        print_row(&row);
        rows.push(row);
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

    // --- The keyed index: a literal-keyed probe beside 10 000 bystanders
    // (the repository benchmark's probe shape) against the same probe in
    // an otherwise empty space.  An index that visits only its own chain
    // makes the bystanders free. ---
    let probe_ops = if args.smoke { 20_000 } else { 200_000 };
    println!("tuple: probe beside 10 000 bystanders ({probe_ops} ops)");
    let mut probe_p50 = [[0.0f64; 2]; 2]; // [beside-10k, alone][put+try_get, try_rd]
    for (i, (name, bystanders)) in [("probe-beside-10k", 10_000), ("probe-alone", 0)]
        .into_iter()
        .enumerate()
    {
        let (pairs, reads): (Vec<f64>, Vec<f64>) = (0..reps.max(1))
            .map(|_| shapes::tuple_probe_beside(bystanders, probe_ops))
            .unzip();
        for (j, (op, samples)) in [("put-try-get", pairs), ("try-rd", reads)]
            .into_iter()
            .enumerate()
        {
            let d = Dist::from_samples(samples);
            probe_p50[i][j] = d.p50();
            let row = BenchRow::from_dist("tuple", &format!("{name}:{op}"), "ns/op", &d);
            print_row(&row);
            rows.push(row);
        }
    }
    // A clock ratio, so reported only: the claim behind it is enforced as
    // a count on every box by the keyed index's own unit test.
    checks.push(Check {
        name: "info:tuple:probe-beside-10k".to_string(),
        pass: (0..2).all(|op| probe_p50[0][op] <= 2.0 * probe_p50[1][op]),
        detail: format!(
            "beside 10 000 bystanders: put+try_get {:.0} ns, try_rd {:.0} ns; alone: {:.0} ns, {:.0} ns (bystanders cost < 2x; enforced as a count by sting_tuple::hashed::tests::a_keyed_hit_costs_one_lock_and_its_own_chain: <= 2 visits, one bin lock, no hash)",
            probe_p50[0][0], probe_p50[0][1], probe_p50[1][0], probe_p50[1][1]
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
        let row = BenchRow::from_dist("shard", &format!("farm-{shards}shard"), "ns/run", &d);
        print_row(&row);
        rows.push(row);
        let depth = scale.shard_tree_depth;
        let d = run_fleet_reps(reps, shards, |fleet, _ts| {
            shapes::shard_tree_workload(fleet, depth);
        });
        let row = BenchRow::from_dist("shard", &format!("tree-{shards}shard"), "ns/run", &d);
        print_row(&row);
        rows.push(row);
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
        let row = BenchRow::from_dist("fleet", name, "ns/run", &d);
        print_row(&row);
        rows.push(row);
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
        let row = BenchRow::from_dist("fork", name, "ns/tree", &d);
        print_row(&row);
        rows.push(row);
        if name == "1vp" {
            // E8's per-thread budget row: one eager thread, forked, absorbed
            // by its toucher and determined on one VP.
            let per = d.scale(1.0 / shapes::tree_threads(FORK_DEPTH) as f64);
            let row = BenchRow::from_dist("fork", "1vp-per-thread", "ns/thread", &per);
            print_row(&row);
            rows.push(row);
        }
    }
    // A count, so enforced on any box: the thread object and its thunk are
    // a fork's only allocations.
    let allocs_per_thread = {
        let vm = shapes::fork_vm(1, false);
        let allocs = shapes::tree_allocs_per_thread(&vm, FORK_DEPTH);
        vm.shutdown();
        allocs
    };
    checks.push(Check {
        name: "fork:allocs-per-thread<=2".to_string(),
        pass: allocs_per_thread <= 2.0,
        detail: format!(
            "one eager tree on 1 VP, counted on its worker: {allocs_per_thread:.2} Rust-heap allocations per forked thread (the thread and its thunk)"
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

    // --- Storage model: scavenge pauses and allocation churn ---
    println!(
        "gc ({} collections, {} conses)",
        scale.gc_collections, scale.gc_conses
    );
    let d = shapes::gc_minor_pauses(scale.gc_collections);
    let row = BenchRow::from_dist("gc", "minor-pause-64k-nursery", "ns/collection", &d);
    print_row(&row);
    rows.push(row);
    let d = shapes::gc_alloc_churn(scale.gc_conses);
    let row = BenchRow::from_dist("gc", "alloc-churn-16k-nursery", "ns/cons", &d);
    print_row(&row);
    rows.push(row);

    // --- The Scheme machine's hot paths, and the two count gates on them
    // (a reference to a global allocates nothing after the first; a
    // closure call never reaches the Rust allocator). ---
    println!("scheme: machine hot paths");
    for (name, unit, d) in sting_bench::scheme::rows(args.smoke, reps) {
        let row = BenchRow::from_dist("scheme", name, unit, &d);
        print_row(&row);
        rows.push(row);
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
            for r in &srows {
                print_row(r);
            }
            rows.extend(srows);
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
        VmBuilder::new()
            .vps(1)
            .processors(1)
            .policy(|_| policies::local_fifo().migrating(true).boxed())
            .metrics(metrics_on)
            .build()
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
        let row = BenchRow::from_dist("overhead", name, "ns/dispatch", &d);
        print_row(&row);
        rows.push(row);
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
        let row = BenchRow::from_dist("overhead", name, "ns/yield", &d);
        print_row(&row);
        rows.push(row);
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
        rows,
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
    if let Err(e) = std::fs::write(&args.out, report.to_json()) {
        eprintln!("failed to write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    println!("report written to {}", args.out);

    // One rule: every check not marked `info:` is a gate.
    let mut failed = false;
    for c in report.checks.iter().filter(|c| !c.pass) {
        if !c.name.starts_with("info:") {
            eprintln!("FAIL: {} ({})", c.name, c.detail);
            failed = true;
        }
    }

    // --- Baseline comparison ---
    if let Some(baseline) = &baseline {
        let path = args.against.as_deref().unwrap_or_default();
        let regressions = compare(baseline, &report, args.threshold);
        if regressions.is_empty() {
            println!(
                "no regressions vs {path} (threshold {:.0}%)",
                args.threshold * 100.0
            );
        } else {
            eprintln!(
                "REGRESSIONS vs {path} (p50 and min both grew more than {:.0}%):",
                args.threshold * 100.0
            );
            for r in &regressions {
                eprintln!(
                    "  {}/{}: {:.0} ns -> {:.0} ns ({:+.1}%)",
                    r.suite,
                    r.name,
                    r.base_p50,
                    r.new_p50,
                    (r.ratio - 1.0) * 100.0
                );
            }
            failed = true;
        }
    }

    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
