//! Shared workloads behind the shape-experiment binaries and `bench_all`.
//!
//! Each shape experiment used to live entirely inside its binary; the
//! workloads now live here so the unified runner (`bench_all`) and the
//! individual `shape_*` binaries measure exactly the same code, and so the
//! smoke tier can shrink iteration counts without forking the logic.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;
use sting::areas::{Heap, HeapConfig, Val as AreaVal, Word};
use sting::core::pm::{EnqueueState, RunItem};
use sting::core::policies::{self, GlobalQueue};
use sting::core::vp::Vp;
use sting::core::PolicyManager;
use sting::prelude::*;

use crate::dist::Dist;

/// Iteration scales for one `bench_all` run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Figure 6 iteration budget per row (rows still apply their own caps).
    pub figure6_iters: u64,
    /// Whole-workload repetitions per shape row.
    pub reps: u64,
    /// E1 primes sieve upper bound.
    pub primes_limit: i64,
    /// E2 farm job count.
    pub farm_jobs: usize,
    /// E2 tree depth.
    pub tree_depth: u32,
    /// Steal-throughput threads hammered onto VP 0.
    pub steal_threads: i64,
    /// Yields per steal-throughput thread.
    pub steal_yields: i64,
    /// E4 preemption workers.
    pub preempt_workers: usize,
    /// E4 rounds per worker.
    pub preempt_rounds: usize,
    /// E3 tuple-space key count.
    pub tuple_keys: i64,
    /// E3 rounds per worker.
    pub tuple_rounds: i64,
    /// Minor collections timed for the GC pause row.
    pub gc_collections: u64,
    /// Cons cells allocated for the GC churn row.
    pub gc_conses: u64,
    /// E7 sharded-farm job count (split across the fleet's shards).
    pub shard_jobs: usize,
    /// E7 sharded-tree depth.
    pub shard_tree_depth: u32,
    /// E8 timed runs per fork-scaling row (the tree is always depth 10,
    /// the `fork_tree` benchmark's).
    pub fork_reps: u64,
    /// E8 how long the ageing fork-tree world is driven.
    pub fork_world: Duration,
}

impl Scale {
    /// The full-run scale (matches the standalone binaries' defaults).
    pub fn full() -> Scale {
        Scale {
            figure6_iters: 20_000,
            reps: 5,
            primes_limit: 2_000,
            farm_jobs: 2_000,
            tree_depth: 10,
            steal_threads: 256,
            steal_yields: 64,
            preempt_workers: 4,
            preempt_rounds: 150,
            tuple_keys: 256,
            tuple_rounds: 20,
            gc_collections: 2_000,
            gc_conses: 2_000_000,
            shard_jobs: 2_000,
            shard_tree_depth: 10,
            fork_reps: 200,
            fork_world: Duration::from_secs(10),
        }
    }

    /// The CI smoke scale: every row still runs, in well under a minute.
    pub fn smoke() -> Scale {
        Scale {
            figure6_iters: 2_000,
            reps: 2,
            primes_limit: 400,
            farm_jobs: 200,
            tree_depth: 6,
            steal_threads: 64,
            steal_yields: 16,
            preempt_workers: 2,
            preempt_rounds: 10,
            tuple_keys: 64,
            tuple_rounds: 3,
            gc_collections: 200,
            gc_conses: 100_000,
            shard_jobs: 400,
            shard_tree_depth: 6,
            fork_reps: 30,
            fork_world: Duration::from_secs(1),
        }
    }
}

// --- E1: stealing vs scheduling policy (Figure 3 primes) ---

/// Runs the Figure 3 primes-sieve futures workload.
pub fn primes_futures(vm: &Arc<Vm>, limit: i64, lazy: bool, stealable: bool) {
    vm.run(move |cx| {
        let mut primes = Future::spawn(cx, |_| Value::list([Value::Int(2)]));
        let mut i = 3i64;
        while i <= limit {
            let prev = primes.clone();
            let body = move |cx: &Cx| {
                let mut j = 3i64;
                while j * j <= i {
                    if i % j == 0 {
                        return prev.force(cx);
                    }
                    j += 2;
                }
                Value::cons(Value::Int(i), prev.force(cx))
            };
            primes = if lazy {
                Future::delay(&cx.vm(), body)
            } else {
                Future::spawn(cx, body)
            };
            if !stealable {
                // Ablation: forbid the §4.1.1 optimization entirely.
                primes.thread().set_stealable(false);
            }
            i += 2;
        }
        primes.force(cx)
    })
    .unwrap();
}

/// One E1 configuration row.
#[derive(Debug, Clone, Copy)]
pub struct StealingConfig {
    /// Display/report name.
    pub name: &'static str,
    /// LIFO (true) or FIFO local queues.
    pub lifo: bool,
    /// Lazy (delayed) or eager futures.
    pub lazy: bool,
    /// Whether futures may be stolen via `touch`.
    pub stealable: bool,
    /// VP count (1 = the paper's single-queue setting).
    pub vps: usize,
}

/// The E1 configuration sweep, in report order.
pub const STEALING_CONFIGS: &[StealingConfig] = &[
    StealingConfig {
        name: "lifo-eager",
        lifo: true,
        lazy: false,
        stealable: true,
        vps: 1,
    },
    StealingConfig {
        name: "fifo-eager",
        lifo: false,
        lazy: false,
        stealable: true,
        vps: 1,
    },
    StealingConfig {
        name: "lifo-lazy",
        lifo: true,
        lazy: true,
        stealable: true,
        vps: 1,
    },
    StealingConfig {
        name: "fifo-lazy",
        lifo: false,
        lazy: true,
        stealable: true,
        vps: 1,
    },
    StealingConfig {
        name: "lazy-stealing-off",
        lifo: true,
        lazy: true,
        stealable: false,
        vps: 1,
    },
    StealingConfig {
        name: "4vp-migrating-lifo",
        lifo: true,
        lazy: true,
        stealable: true,
        vps: 4,
    },
];

/// Builds the VM for one E1 configuration.
pub fn stealing_vm(cfg: &StealingConfig, trace: bool) -> Arc<Vm> {
    let StealingConfig { lifo, vps, .. } = *cfg;
    let migrating = vps > 1;
    VmBuilder::new()
        .vps(vps)
        .processors(vps)
        .policy(move |_| {
            if lifo {
                policies::local_lifo().migrating(migrating).boxed()
            } else {
                policies::local_fifo().migrating(migrating).boxed()
            }
        })
        .trace(trace)
        .build()
}

// --- E2: policy / program-structure matching ---

/// Master/slave farm: 8 long-lived workers pulling from a shared channel.
pub fn farm_workload(vm: &Arc<Vm>, jobs: usize) {
    let ch = Channel::unbounded();
    for i in 0..jobs {
        ch.send(Value::Int(i as i64)).unwrap();
    }
    ch.close();
    let workers: Vec<_> = (0..8)
        .map(|_| {
            let ch = ch.clone();
            vm.fork(move |cx| {
                let mut acc = 0i64;
                while let Some(v) = ch.recv() {
                    let mut x = v.as_int().unwrap();
                    for _ in 0..200 {
                        x = x.wrapping_mul(1103515245).wrapping_add(12345);
                    }
                    acc ^= x;
                    cx.checkpoint();
                }
                acc
            })
        })
        .collect();
    for w in workers {
        w.join_blocking().unwrap();
    }
}

/// Result-parallel binary tree: `2^depth` leaves, one thread per node.
pub fn tree_workload(vm: &Arc<Vm>, depth: u32) {
    let expect = 1i64 << depth;
    let got = vm
        .run(move |cx| fork_node(cx, depth, false))
        .unwrap()
        .as_int()
        .unwrap();
    assert_eq!(got, expect);
}

/// 4-VP VM scheduled from one global FIFO queue.
pub fn global_queue_vm(trace: bool) -> Arc<Vm> {
    let q = GlobalQueue::fifo();
    VmBuilder::new()
        .vps(4)
        .policy(move |_| q.policy())
        .trace(trace)
        .build()
}

/// 4-VP VM with per-VP LIFO queues, optionally migrating for balance.
pub fn local_queue_vm(migrate: bool, trace: bool) -> Arc<Vm> {
    VmBuilder::new()
        .vps(4)
        .policy(move |_| make_local(migrate))
        .trace(trace)
        .build()
}

fn make_local(migrate: bool) -> Box<dyn PolicyManager> {
    policies::local_lifo().migrating(migrate).boxed()
}

// --- E2 addendum: manager-kept vs substrate-kept ready queue ---

/// E2b's manager-kept side: a migrating FIFO written the way §3.3 says a
/// policy manager is — it keeps its own queue, so every operation on it
/// runs under the VP's policy lock.
#[derive(Default)]
struct ManagerFifo(VecDeque<RunItem>);

impl PolicyManager for ManagerFifo {
    fn get_next_thread(&mut self, _vp: &Vp) -> Option<RunItem> {
        self.0.pop_front()
    }
    fn enqueue_thread(&mut self, _vp: &Vp, item: RunItem, _state: EnqueueState) {
        self.0.push_back(item);
    }
    fn vp_idle(&mut self, vp: &Vp) -> Option<RunItem> {
        let vm = vp.vm();
        let n = vm.vp_count();
        (1..n).find_map(|d| vm.vps()[(vp.index() + d) % n].try_offer_migration(vp))
    }
    fn offer_migration(&mut self, _vp: &Vp) -> Option<RunItem> {
        // The newest fresh thread: the end the owner reaches last.
        let newest = self.0.iter().rposition(RunItem::is_fresh)?;
        self.0.remove(newest)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn name(&self) -> &'static str {
        "manager-fifo"
    }
}

/// [`steal_vm`] policy: a user-written migrating FIFO on the policy tier.
pub fn manager_kept_fifo() -> Box<dyn PolicyManager> {
    Box::new(ManagerFifo::default())
}

/// [`steal_vm`] policy: the shipped migrating FIFO, on the deque tier.
pub fn migrating_fifo() -> Box<dyn PolicyManager> {
    policies::local_fifo().migrating(true).boxed()
}

/// [`steal_vm`] policy: the shipped migrating priority queue, whose
/// threads spread over the deque tier's bands.
pub fn migrating_priority() -> Box<dyn PolicyManager> {
    policies::priority_high().migrating(true).boxed()
}

/// Builds a steal-throughput VM: one OS worker per VP, every VP scheduled
/// by a policy of `policy`'s making.
pub fn steal_vm(vps: usize, trace: bool, policy: fn() -> Box<dyn PolicyManager>) -> Arc<Vm> {
    VmBuilder::new()
        .vps(vps)
        // One OS worker per VP: without it a single worker drives every VP
        // and the queues are never contended.
        .processors(vps)
        .policy(move |_| policy())
        .trace(trace)
        .build()
}

/// Forks `threads` yielding threads onto VP 0 and joins them all; returns
/// the checksum so the work cannot be optimized away.  The threads'
/// priorities cycle through the bands: a priority policy dispatches and
/// steals across all of them, a FIFO keeps them in one.
pub fn steal_hammer(vm: &Arc<Vm>, threads: i64, yields: i64) -> i64 {
    let ts: Vec<_> = (0..threads)
        .map(|i| {
            ThreadBuilder::new(vm)
                .priority(i as i32 % sting::core::deque::BANDS as i32)
                .on_vp(0)
                .spawn(move |cx| {
                    for _ in 0..yields {
                        cx.yield_now();
                    }
                    i
                })
                .expect("VP 0 exists")
        })
        .collect();
    ts.iter()
        .map(|t| t.join_blocking().unwrap().as_int().unwrap())
        .sum()
}

/// Dispatches performed by one [`steal_hammer`] run (one per yield plus
/// the initial dispatch, per thread) — the divisor for ns/dispatch rows.
pub fn steal_dispatches(threads: i64, yields: i64) -> f64 {
    (threads * (yields + 1)) as f64
}

// --- E4: preemption inside critical sections ---

/// Builds the single-VP VM the preemption experiment uses; its threads
/// keep the default quantum, one 500 µs slice.
pub fn preemption_vm(trace: bool) -> Arc<Vm> {
    VmBuilder::new().vps(1).processors(1).trace(trace).build()
}

/// Runs the lock-convoy workload; `shield` wraps the critical section in
/// `without-preemption`.
pub fn preemption_run(vm: &Arc<Vm>, workers: usize, rounds: usize, shield: bool) {
    let m = Mutex::new(64, 2);
    let ts: Vec<_> = (0..workers)
        .map(|_| {
            let m = m.clone();
            vm.fork(move |cx| {
                let mut acc = 0u64;
                for _ in 0..rounds {
                    let mut section = || {
                        m.with(|| {
                            // A critical section long enough that a 500 µs
                            // slice regularly expires inside it.
                            for i in 0..40_000u64 {
                                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                                if i % 512 == 0 {
                                    cx.checkpoint();
                                }
                            }
                        });
                    };
                    if shield {
                        cx.without_preemption(&mut section);
                    } else {
                        section();
                    }
                    cx.checkpoint();
                }
                acc as i64
            })
        })
        .collect();
    for t in ts {
        t.join_blocking().unwrap();
    }
}

// --- E3: tuple-space locking granularity ---

/// Versions of each key kept resident by [`tuple_locks_workload`]: the
/// length of the chain a removal searches while it holds its bin's lock.
const TUPLE_LOCKS_VERSIONS: i64 = 64;

/// Preloads `keys` keys × 64 versions (`[key version value]`) and drives 4
/// workers over disjoint key ranges, each removing and re-depositing the
/// version that sits deepest in its key's chain.  The keyed index gives
/// one bin and 64 bins the same chains to search, so what differs is only
/// what the paper's claim is about: whether two VPs searching different
/// keys hold one lock or two.  Returns the time the workers took (the
/// preload, which nothing contends for, is not counted).
pub fn tuple_locks_workload(vm: &Arc<Vm>, ts: &TupleSpace, keys: i64, rounds: i64) -> Duration {
    for k in 0..keys {
        for version in 0..TUPLE_LOCKS_VERSIONS {
            ts.put(vec![Value::Int(k), Value::Int(version), Value::Int(0)]);
        }
    }
    let start = std::time::Instant::now();
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let ts = ts.clone();
            vm.fork(move |cx| {
                // Each worker owns a quarter of the key space.
                let lo = keys / 4 * w;
                let hi = keys / 4 * (w + 1);
                for r in 0..rounds {
                    // Re-deposits go to the chain's end, so counting the
                    // versions down keeps each round's match deep.
                    let version = TUPLE_LOCKS_VERSIONS - 1 - r % TUPLE_LOCKS_VERSIONS;
                    for k in lo..hi {
                        let b = ts.get(&Template::new(vec![lit(k), lit(version), formal()]));
                        let v = b[0].as_int().unwrap();
                        ts.put(vec![Value::Int(k), Value::Int(version), Value::Int(v + r)]);
                    }
                    cx.checkpoint();
                }
                0i64
            })
        })
        .collect();
    for w in workers {
        w.join_blocking().unwrap();
    }
    start.elapsed()
}

/// Non-blocking ops in a 64-bin space beside `bystanders` tuples of other
/// keys — the shape of the repository benchmark's `tuple.put_try_get_ns`
/// and `tuple.try_rd_ns` probes.  Returns ns per `put` + `try_get` pair
/// and ns per `try_rd`, each over `ops` operations.
pub fn tuple_probe_beside(bystanders: i64, ops: u64) -> (f64, f64) {
    let ts = TupleSpace::new();
    for b in 0..bystanders {
        ts.put(vec![
            Value::Int(1_000_000 + b),
            Value::Int(b),
            Value::Int(b * 7),
        ]);
    }
    ts.put(vec![Value::Int(1), Value::Int(0), Value::Int(42)]);
    let per_op = |start: std::time::Instant| start.elapsed().as_nanos() as f64 / ops as f64;
    let jobs = Template::new(vec![lit(2i64), formal(), formal()]);
    let start = std::time::Instant::now();
    for i in 0..ops {
        ts.put(vec![Value::Int(2), Value::Int(i as i64), Value::Int(0)]);
        std::hint::black_box(ts.try_get(&jobs));
    }
    let put_try_get = per_op(start);
    let config = Template::new(vec![lit(1i64), lit(0i64), formal()]);
    let start = std::time::Instant::now();
    for _ in 0..ops {
        std::hint::black_box(ts.try_rd(&config));
    }
    (put_try_get, per_op(start))
}

// --- E7: sharded fleets over the partitioned tuple-space fabric ---

/// A 2-shard × 1-VP fleet on two workers whose threads stay where they
/// are forked (no migration): the smallest fleet that needs both workers.
pub fn two_shard_fleet() -> Fleet {
    Fleet::builder()
        .shards(2)
        .vps_per_shard(1)
        .processors(2)
        .policy(|_, _| policies::local_fifo().boxed())
        .build()
}

/// Wall time for the first `busy` shards of `fleet` to run one
/// compute-bound thread each (`spins` steps, no checkpoint).  Shards that
/// have a worker each finish two such threads in the time of one.
pub fn fleet_busy_shards(fleet: &Fleet, busy: usize, spins: u64) -> Duration {
    let start = std::time::Instant::now();
    let threads: Vec<_> = (0..busy)
        .map(|shard| {
            fleet.shard(shard).fork(move |_cx| {
                let mut x = 1u64;
                for i in 0..spins {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                std::hint::black_box(x) as i64
            })
        })
        .collect();
    for t in threads {
        t.join_blocking().expect("a spinning thread returns");
    }
    start.elapsed()
}

/// Builds a fleet of `shards` shards holding the *total* VP count fixed
/// (`shards × vps_per_shard == total_vps`), so multi-shard rows measure
/// partitioning — smaller wake herds, per-partition locks, shorter waiter
/// chains — rather than extra hardware.
pub fn shard_fleet(shards: usize, total_vps: usize, trace: bool) -> Fleet {
    assert_eq!(total_vps % shards, 0, "shards must divide total_vps");
    let mut b = Fleet::builder()
        .shards(shards)
        .vps_per_shard(total_vps / shards)
        .trace(trace);
    if trace {
        // The farm's wake sweeps are event-dense; keep the rings deep
        // enough that the merged audit sees whole episodes.
        b = b.trace_capacity(1 << 16);
    }
    b.build()
}

/// Two keys per shard — a job key and an ack key — whose arity-2 tuples
/// both route to that shard's own partition: the per-shard mailboxes of
/// [`shard_farm_workload`].  Routing is a stable hash, so scanning small
/// integers finds the pairs almost immediately.
pub fn shard_keys(ts: &ShardedSpace) -> Vec<(i64, i64)> {
    let mut keys: Vec<Vec<i64>> = vec![Vec::new(); ts.partitions()];
    let mut missing = 2 * keys.len();
    for k in 0..i64::MAX {
        let owner = ts.partition_of_tuple(&[Value::Int(k), Value::Int(0)]);
        if keys[owner].len() < 2 {
            keys[owner].push(k);
            missing -= 1;
            if missing == 0 {
                break;
            }
        }
    }
    keys.into_iter().map(|ks| (ks[0], ks[1])).collect()
}

/// The farm over the sharded space: one logical job pool, `workers`
/// long-lived workers, every job acknowledged through the space.
/// Sharding partitions the pool — per shard, one master deposits a job
/// under the shard's job key and blocks for its ack (a window of one, so
/// consumers genuinely park between jobs) while `workers / shards`
/// workers block-`get` jobs, crunch them, and deposit acks, all forked
/// on the owning shard.  Total jobs and total workers stay fixed as the
/// shard count varies, so rows are comparable; what shrinks with more
/// shards is the *interference* — each deposit's wake sweep and
/// blocked-chain scan cover only that shard's workers instead of the
/// whole farm's.
pub fn shard_farm_workload(fleet: &Fleet, ts: &ShardedSpace, jobs: usize, workers: usize) {
    let shards = fleet.len();
    assert!(
        workers.is_multiple_of(shards)
            && jobs.is_multiple_of(workers)
            && jobs.is_multiple_of(shards),
        "shards must divide workers and jobs"
    );
    let keys = shard_keys(ts);
    let per_shard = jobs / shards;
    let per_worker = jobs / workers;
    let mut threads = Vec::new();
    for (s, &(job_key, ack_key)) in keys.iter().enumerate() {
        let master = ts.clone();
        threads.push(fleet.shard(s).fork(move |cx| {
            let acks = Template::new(vec![lit(Value::Int(ack_key)), formal()]);
            let mut acc = 0i64;
            for i in 0..per_shard {
                master.put(vec![Value::Int(job_key), Value::Int(i as i64)]);
                acc ^= master.get(&acks)[0].as_int().unwrap();
                cx.checkpoint();
            }
            acc
        }));
        for _ in 0..workers / shards {
            let worker = ts.clone();
            threads.push(fleet.shard(s).fork(move |cx| {
                let t = Template::new(vec![lit(Value::Int(job_key)), formal()]);
                for _ in 0..per_worker {
                    let mut x = worker.get(&t)[0].as_int().unwrap();
                    for _ in 0..32 {
                        x = x.wrapping_mul(1103515245).wrapping_add(12345);
                    }
                    worker.put(vec![Value::Int(ack_key), Value::Int(x)]);
                    cx.checkpoint();
                }
                0i64
            }));
        }
    }
    for t in threads {
        t.join_blocking().unwrap();
    }
    assert!(ts.is_empty(), "farm jobs or acks lost or duplicated");
}

/// The result-parallel tree with its top `log2(shards)` levels split
/// across the fleet: each shard computes an independent subtree, so fork
/// and touch traffic stays shard-local below the roots.
pub fn shard_tree_workload(fleet: &Fleet, depth: u32) {
    let shards = fleet.len();
    assert!(
        shards.is_power_of_two() && depth >= shards.trailing_zeros(),
        "shards must be a power of two no deeper than the tree"
    );
    let sub = depth - shards.trailing_zeros();
    let roots: Vec<_> = (0..shards)
        .map(|s| fleet.shard(s).fork(move |cx| fork_node(cx, sub, false)))
        .collect();
    let total: i64 = roots
        .into_iter()
        .map(|t| t.join_blocking().unwrap().as_int().unwrap())
        .sum();
    assert_eq!(total, 1i64 << depth);
}

// --- E8: fork scaling — what a second VP does to thread cost ---

/// The `fork_tree` benchmark's machine: per-VP LIFO queues (depth-first,
/// so nearly every thread is absorbed by its toucher), one OS worker per
/// VP, stealing between VPs on or off.
pub fn fork_vm(vps: usize, migrating: bool) -> Arc<Vm> {
    VmBuilder::new()
        .vps(vps)
        .processors(vps)
        .policy(move |_| policies::local_lifo().migrating(migrating).boxed())
        .name("fork-scaling")
        .build()
}

/// One node of the result-parallel tree, eager (`fork`) or lazy
/// (`delayed`): shared by E2, E7 and E8.
fn fork_node(cx: &Cx, depth: u32, lazy: bool) -> i64 {
    if depth == 0 {
        return 1;
    }
    let child = move |cx: &Cx| fork_node(cx, depth - 1, lazy);
    let (l, r) = if lazy {
        (cx.delayed(child), cx.delayed(child))
    } else {
        (cx.fork(child), cx.fork(child))
    };
    cx.touch(&l).unwrap().as_int().unwrap() + cx.touch(&r).unwrap().as_int().unwrap()
}

/// Runs `trees` result-parallel trees of `depth` at once, tree `i` rooted
/// on VP `i mod vps`, and waits for them all; every sum is checked.  With
/// migration off each tree stays on the VP it was rooted on — two pinned
/// trees on two VPs share nothing but the machine.
pub fn fork_trees(vm: &Arc<Vm>, trees: usize, depth: u32, lazy: bool) {
    let roots: Vec<_> = (0..trees)
        .map(|i| {
            vm.fork_on(i % vm.vp_count(), move |cx| fork_node(cx, depth, lazy))
                .expect("vp index in range")
        })
        .collect();
    for root in roots {
        assert_eq!(root.join_blocking().unwrap().as_int(), Some(1i64 << depth));
    }
}

/// Threads in one tree of `depth`, its root included.
pub fn tree_threads(depth: u32) -> u64 {
    (1 << (depth + 1)) - 1
}

/// Rust-heap allocations per forked thread of one eager tree of `depth`
/// on a one-VP `vm`, counted on the worker that runs it, unpreempted, after
/// a warm-up tree: the `Arc<Thread>` and the boxed thunk make 2.  Reads 0
/// in a binary whose global allocator is not a
/// [`CountingAllocator`](crate::CountingAllocator).
pub fn tree_allocs_per_thread(vm: &Arc<Vm>, depth: u32) -> f64 {
    let allocs = crate::on_thread(vm, move |cx| {
        fork_node(cx, depth, false);
        cx.without_preemption(|| {
            let before = crate::allocations();
            fork_node(cx, depth, false);
            crate::allocations() - before
        })
    });
    allocs as f64 / (tree_threads(depth) - 1) as f64
}

/// ns per tree over `reps` timed runs of [`fork_trees`] on one long-lived
/// `vm` (after a warm-up run: workers awake, stacks pooled).
pub fn fork_tree_cost(vm: &Arc<Vm>, reps: u64, trees: usize, depth: u32, lazy: bool) -> Dist {
    fork_trees(vm, trees, depth, lazy);
    crate::dist::time_runs(reps, || fork_trees(vm, trees, depth, lazy)).scale(1.0 / trees as f64)
}

/// How much faster this box finishes two compute-bound OS threads side by
/// side than one after the other (2.0 on two free cores, 1.0 on one): the
/// yardstick for any claim about a second VP.  Shared sandboxes advertise
/// two processors and then ration them to one core's worth of cycles.
pub fn second_core_speedup() -> f64 {
    fn churn() -> Duration {
        let start = std::time::Instant::now();
        let mut x = 1u64;
        for i in 0..30_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        start.elapsed()
    }
    let alone = churn();
    let start = std::time::Instant::now();
    let sibling = std::thread::spawn(churn);
    churn();
    sibling.join().expect("churn thread");
    2.0 * alone.as_secs_f64() / start.elapsed().as_secs_f64()
}

/// Resident set size of this process in bytes (`/proc/self/statm`), or 0
/// where that is not available.
pub fn resident_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4096)
}

/// What an ageing eager `fork_tree` world left behind; see
/// [`fork_world_residue`].
#[derive(Debug, Clone, Copy)]
pub struct Residue {
    /// Ready-queue entries still held once the workers have settled.
    pub queued: usize,
    /// Resident-memory growth over the second half of the run, in bytes.
    pub grown: u64,
    /// Length of that second half.
    pub over: Duration,
    /// Trees completed.
    pub trees: u64,
}

impl Residue {
    /// Queues hold (next to) nothing and memory is flat: under 1 MB/s, give
    /// or take the few megabytes in which allocator arenas and TCB stacks
    /// arrive.  (The leak this guards against — a dead queue entry per
    /// absorbed thread — ran at 80–140 MB/s.)
    pub fn bounded(&self) -> bool {
        self.queued <= 64 && (self.grown as f64) < 1e6 * self.over.as_secs_f64() + 8e6
    }
}

/// Drives one eager tree at a time on a 2-VP migrating machine for `wall`
/// and reports what is left: the ready-queue entries still held
/// (`Σ Vp::queue_len()`), and resident-memory growth over the second half
/// of the run (the first half fills stack pools and allocator arenas).
pub fn fork_world_residue(wall: Duration, depth: u32) -> Residue {
    let vm = fork_vm(2, true);
    let start = std::time::Instant::now();
    let (mut trees, mut settled) = (0, None);
    while start.elapsed() < wall {
        fork_trees(&vm, 1, depth, false);
        trees += 1;
        if settled.is_none() && start.elapsed() >= wall / 2 {
            settled = Some((start.elapsed(), resident_bytes()));
        }
    }
    let (since, rss) = settled.unwrap_or((Duration::ZERO, resident_bytes()));
    let (grown, over) = (
        resident_bytes().saturating_sub(rss),
        start.elapsed() - since,
    );
    // Husks the last tree left go at their VP's next look at its queue;
    // what must not be there is anything left by the thousands of trees
    // before it.
    let queued = || vm.vps().iter().map(|vp| vp.queue_len()).sum::<usize>();
    let settle = std::time::Instant::now();
    while queued() > 0 && settle.elapsed() < Duration::from_millis(20) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let queued = queued();
    vm.shutdown();
    Residue {
        queued,
        grown,
        over,
        trees,
    }
}

// --- Storage model: scavenge pauses and allocation churn ---

/// Times `collections` minor scavenges of a 64k-word nursery holding a
/// rooted ~1k-pair survivor set; returns per-collection ns.
pub fn gc_minor_pauses(collections: u64) -> Dist {
    let mut heap = Heap::new(HeapConfig {
        young_words: 64 * 1024,
        old_trigger_words: usize::MAX / 2,
    });
    let mut roots: Vec<Word> = Vec::new();
    for i in 0..1000 {
        let gc = heap.cons(AreaVal::Int(i), AreaVal::Nil, &mut roots);
        roots.push(gc.word());
    }
    let mut samples = Vec::with_capacity(collections as usize);
    for _ in 0..collections.max(1) {
        let start = std::time::Instant::now();
        heap.collect_minor(&mut roots);
        samples.push(start.elapsed().as_nanos() as f64);
    }
    Dist::from_samples(samples)
}

/// Allocates `conses` pairs through a small (16k-word) nursery so the
/// allocator regularly scavenges; returns amortized ns per cons, sampled
/// in batches.
pub fn gc_alloc_churn(conses: u64) -> Dist {
    let mut heap = Heap::new(HeapConfig {
        young_words: 16 * 1024,
        old_trigger_words: usize::MAX / 2,
    });
    let mut roots: Vec<Word> = Vec::new();
    let mut i = 0i64;
    crate::dist::time_per_iter(conses, || {
        let _ = heap.cons(AreaVal::Int(i), AreaVal::Nil, &mut roots);
        i += 1;
    })
}
