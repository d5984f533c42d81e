//! Sharded tuple-space fabric: routing determinism, cross-shard routed
//! `put`/`get`, the wild slow path, and deposit conservation when routed
//! requests time out or their thread is terminated mid-protocol.

use std::time::{Duration, Instant};
use sting_core::audit::FindingKind;
use sting_core::fleet::Fleet;
use sting_core::tc;
use sting_tuple::{formal, lit, ShardedSpace, Template};
use sting_value::Value;

fn fleet(shards: usize) -> Fleet {
    Fleet::builder()
        .shards(shards)
        .trace(true)
        .trace_capacity(1 << 15)
        .build()
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A key whose template `[lit(k), formal()]` has a *single* candidate
/// partition (its literal-keyed and arity-only partitions coincide), plus
/// that owning shard — callers fork the getter on a different shard so
/// the op takes the routed tier.
fn exclusive_key(space: &ShardedSpace) -> (i64, usize) {
    for k in 0..10_000i64 {
        let t = Template::new(vec![lit(Value::Int(k)), formal()]);
        if let Some(parts) = space.partitions_of_template(&t) {
            if let [owner] = parts.as_slice() {
                return (k, *owner);
            }
        }
    }
    panic!("no single-partition key found");
}

fn assert_fleet_clean(fleet: &Fleet) {
    let report = fleet.trace_audit();
    for f in &report.findings {
        assert!(
            !matches!(
                f.kind,
                FindingKind::WaiterLeak | FindingKind::LostWakeup | FindingKind::WakeAfterCancel
            ),
            "sharded-space violation:\n{report}"
        );
    }
}

/// Off-fleet callers use direct shared-memory access; routing is
/// deterministic and every tuple lands in the partition the router names.
#[test]
fn routing_is_deterministic_and_partitioned() {
    let fleet = fleet(4);
    let ts = ShardedSpace::new(&fleet);
    assert_eq!(ts.partitions(), 4);
    for k in 0..64i64 {
        let fields = vec![Value::Int(k), Value::sym("payload")];
        let dest = ts.partition_of_tuple(&fields);
        assert!(dest < 4);
        assert_eq!(dest, ts.partition_of_tuple(&fields), "routing not stable");
        ts.put(fields);
    }
    assert_eq!(ts.len(), 64);
    for k in 0..64i64 {
        let t = Template::new(vec![lit(Value::Int(k)), formal()]);
        let b = ts.try_get(&t).expect("tuple routed away from its template");
        assert_eq!(b[0], Value::sym("payload"));
    }
    assert!(ts.is_empty());
    fleet.shutdown();
}

/// A blocking `get` on shard 0 for a partition owned by shard 1 takes the
/// routed tier: the owner registers the episode, a later owner-side
/// deposit wakes the requester across the fabric, and the op is counted
/// as routed.
#[test]
fn routed_get_crosses_shards() {
    let fleet = fleet(2);
    let ts = ShardedSpace::new(&fleet);
    let (k, owner) = exclusive_key(&ts);
    let other = (owner + 1) % 2;
    let routed_before: u64 = fleet
        .shards()
        .iter()
        .map(|vm| vm.counters().snapshot().routed_ops)
        .sum();
    let getter = {
        let ts = ts.clone();
        fleet.shard(other).fork(move |_cx| {
            assert_ne!(tc::current_shard(), Some(owner));
            let b = ts.get(&Template::new(vec![lit(Value::Int(k)), formal()]));
            b[0].clone()
        })
    };
    wait_until("routed getter to register on the owner", || {
        ts.blocked() >= 1
    });
    let putter = {
        let ts = ts.clone();
        fleet.shard(owner).fork(move |_cx| {
            ts.put(vec![Value::Int(k), Value::Int(99)]);
            0i64
        })
    };
    putter.join_blocking().unwrap();
    assert_eq!(getter.join_blocking(), Ok(Value::Int(99)));
    let routed_after: u64 = fleet
        .shards()
        .iter()
        .map(|vm| vm.counters().snapshot().routed_ops)
        .sum();
    assert!(routed_after > routed_before, "no op was counted as routed");
    assert!(ts.is_empty(), "tuple double-delivered or stranded");
    assert_eq!(ts.blocked(), 0, "waiter leaked on the owner partition");
    assert_fleet_clean(&fleet);
    fleet.shutdown();
}

/// Cross-shard deposits ship to the owner and still satisfy a local
/// reader there; `rd` leaves the tuple in place.
#[test]
fn routed_put_lands_on_owner_partition() {
    let fleet = fleet(2);
    let ts = ShardedSpace::new(&fleet);
    let (k, owner) = exclusive_key(&ts);
    let other = (owner + 1) % 2;
    let t = Template::new(vec![lit(Value::Int(k)), formal()]);
    let putter = {
        let ts = ts.clone();
        fleet.shard(other).fork(move |_cx| {
            ts.put(vec![Value::Int(k), Value::sym("shipped")]);
            0i64
        })
    };
    putter.join_blocking().unwrap();
    let reader = {
        let (ts, t) = (ts.clone(), t.clone());
        fleet.shard(owner).fork(move |_cx| ts.rd(&t)[0].clone())
    };
    assert_eq!(reader.join_blocking(), Ok(Value::sym("shipped")));
    assert_eq!(ts.len(), 1, "rd must not remove");
    assert_eq!(
        ts.partition_len(owner),
        1,
        "routed deposit landed on the wrong partition"
    );
    assert_fleet_clean(&fleet);
    fleet.shutdown();
}

/// A formals-only template has no owner; the wild slow path scans and
/// blocks on every partition and still sees deposits from any shard.
#[test]
fn wild_template_scans_every_partition() {
    let fleet = fleet(4);
    let ts = ShardedSpace::new(&fleet);
    let getter = {
        let ts = ts.clone();
        fleet
            .shard(0)
            .fork(move |_cx| ts.get(&Template::any(2))[1].clone())
    };
    wait_until("wild getter to register everywhere", || ts.blocked() >= 1);
    let putter = {
        let ts = ts.clone();
        fleet.shard(2).fork(move |_cx| {
            ts.put(vec![Value::Int(1234), Value::sym("found")]);
            0i64
        })
    };
    putter.join_blocking().unwrap();
    assert_eq!(getter.join_blocking(), Ok(Value::sym("found")));
    assert!(ts.is_empty());
    assert_eq!(ts.blocked(), 0, "wild registrations leaked");
    assert_fleet_clean(&fleet);
    fleet.shutdown();
}

/// Satellite: deposit conservation under abandonment.  Routed getters
/// with aggressive timeouts race owner-side deposits; every tuple is
/// consumed by exactly one getter or still in the space — an owner
/// closure that loses the reply-cell race must not strand a removal, and
/// a wasted wake is re-donated.
#[test]
fn routed_timeout_conserves_deposits() {
    let fleet = fleet(2);
    let ts = ShardedSpace::new(&fleet);
    let (k, owner) = exclusive_key(&ts);
    let other = (owner + 1) % 2;
    const DEPOSITS: usize = 100;
    let consumers: Vec<_> = (0..6)
        .map(|i| {
            let ts = ts.clone();
            fleet.shard(other).fork(move |cx| {
                let t = Template::new(vec![lit(Value::Int(k)), formal()]);
                let mut got = 0i64;
                for round in 0..30usize {
                    let dur = Duration::from_millis(if (i + round) % 2 == 0 { 1 } else { 40 });
                    if ts.get_timeout(&t, dur).is_some() {
                        got += 1;
                    }
                    cx.checkpoint();
                }
                got
            })
        })
        .collect();
    let producer = {
        let ts = ts.clone();
        fleet.shard(owner).fork(move |cx| {
            for i in 0..DEPOSITS {
                ts.put(vec![Value::Int(k), Value::Int(i as i64)]);
                cx.yield_now();
            }
            0i64
        })
    };
    producer.join_blocking().unwrap();
    let consumed: i64 = consumers
        .into_iter()
        .map(|t| t.join_blocking().unwrap().as_int().unwrap())
        .sum();
    assert_eq!(
        consumed as usize + ts.len(),
        DEPOSITS,
        "tuples lost or duplicated under routed timeout races"
    );
    assert_eq!(ts.blocked(), 0, "waiter leaked");
    assert_fleet_clean(&fleet);
    fleet.shutdown();
}

/// The owner closure must register its waiter *before* probing: with the
/// old probe-then-register order, a deposit landing in that window found
/// no waiter to wake (the requester was already parked) and the only
/// matching tuple sat unobserved — `get` hung and `get_timeout` returned
/// `None` despite a present match.  Owner-local puts on a second VP of
/// the owner shard race the closure directly; every round must complete.
#[test]
fn routed_get_never_misses_a_concurrent_deposit() {
    let fleet = Fleet::builder()
        .shards(2)
        .vps_per_shard(2)
        // Two OS workers even on a 1-CPU host: the probe→register window
        // only opens when the owner's pump and the putter's VP run on
        // different workers, so kernel preemption can split them.
        .processors(2)
        .trace(true)
        .trace_capacity(1 << 15)
        .build();
    let ts = ShardedSpace::new(&fleet);
    let (k, owner) = exclusive_key(&ts);
    let other = (owner + 1) % 2;
    for round in 0..100i64 {
        let getter = {
            let ts = ts.clone();
            fleet.shard(other).fork(move |_cx| {
                let t = Template::new(vec![lit(Value::Int(k)), formal()]);
                ts.get_timeout(&t, Duration::from_secs(30))
                    .expect("deposit missed: owner closure lost the register/deposit race")[0]
                    .clone()
            })
        };
        // Deliberately unsynchronized with the getter's registration —
        // the deposit races the owner closure's probe.
        let putter = {
            let ts = ts.clone();
            fleet.shard(owner).fork(move |_cx| {
                ts.put(vec![Value::Int(k), Value::Int(round)]);
                0i64
            })
        };
        putter.join_blocking().unwrap();
        assert_eq!(getter.join_blocking(), Ok(Value::Int(round)));
        assert!(ts.is_empty(), "tuple stranded after round {round}");
    }
    assert_eq!(ts.blocked(), 0, "waiter leaked");
    assert_fleet_clean(&fleet);
    fleet.shutdown();
}

/// Satellite: terminating a thread parked in a *routed* get cancels its
/// shipped episode without losing the next deposit's wake — the peer
/// blocked on the same remote partition still completes, and both shards
/// audit clean.
#[test]
fn terminate_routed_getter_leaves_peer_and_tuples_intact() {
    let fleet = fleet(2);
    let ts = ShardedSpace::new(&fleet);
    let (k, owner) = exclusive_key(&ts);
    let other = (owner + 1) % 2;
    let fork_getter = || {
        let ts = ts.clone();
        fleet.shard(other).fork(move |_cx| {
            let b = ts.get(&Template::new(vec![lit(Value::Int(k)), formal()]));
            b[0].clone()
        })
    };
    let victim = fork_getter();
    let peer = fork_getter();
    wait_until("both routed getters to register", || ts.blocked() == 2);
    tc::thread_terminate(&victim, Value::sym("killed")).unwrap();
    assert_eq!(victim.join_blocking(), Ok(Value::sym("killed")));
    wait_until("victim episode to die", || ts.blocked() < 2);
    // This one deposit's wake must skip the dead registration.
    let putter = {
        let ts = ts.clone();
        fleet.shard(owner).fork(move |_cx| {
            ts.put(vec![Value::Int(k), Value::Int(7)]);
            0i64
        })
    };
    putter.join_blocking().unwrap();
    assert_eq!(peer.join_blocking(), Ok(Value::Int(7)), "wake-up lost");
    assert!(ts.is_empty(), "tuple double-delivered or stranded");
    assert_fleet_clean(&fleet);
    fleet.shutdown();
}

/// Resident set size of this process, in bytes.
fn resident_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("procfs");
    let pages: u64 = statm.split(' ').nth(1).unwrap().parse().unwrap();
    pages * 4096
}

/// A `tuple_farm`-shaped world — 2 shards × 1 VP, a master and four
/// workers a shard, 10 000 bystanders, one job in five served by the other
/// shard — driven for `run`.  Returns the reader registrations held at the
/// end and the resident-set growth per second over the second half.
fn drive_farm(run: Duration) -> (usize, f64) {
    const BYSTANDERS: i64 = 10_000;
    const CONFIGS: i64 = 16;
    const OUTSTANDING: usize = 8;
    let fleet = Fleet::builder().shards(2).vps_per_shard(1).build();
    let ts = ShardedSpace::new(&fleet);
    // Per shard, first fields its own partition owns: job, ack, config.
    let mut next = 0i64;
    let mut key_on = |shard: usize, arity: usize| loop {
        let mut probe = vec![Value::Int(next)];
        probe.resize(arity, Value::Int(0));
        next += 1;
        if ts.partition_of_tuple(&probe) == shard {
            return next - 1;
        }
    };
    let keys: Vec<[i64; 3]> = (0..2)
        .map(|s| [key_on(s, 4), key_on(s, 3), key_on(s, 3)])
        .collect();
    for b in 0..BYSTANDERS {
        ts.put(vec![
            Value::Int(1_000_000 + b),
            Value::Int(b),
            Value::Int(b * 7),
        ]);
    }
    for k in &keys {
        for i in 0..CONFIGS {
            ts.put(vec![Value::Int(k[2]), Value::Int(i), Value::Int(i + 100)]);
        }
    }
    let preloaded = ts.len();
    for shard in 0..2 {
        for _ in 0..4 {
            let (ts, keys) = (ts.clone(), keys.clone());
            fleet.shard(shard).fork(move |_cx| -> i64 {
                let jobs = Template::new(vec![lit(keys[shard][0]), formal(), formal(), formal()]);
                loop {
                    let job = ts.get(&jobs);
                    let (master, k) = (job[0].as_int().unwrap() as usize, job[1].as_int().unwrap());
                    let config = ts.rd(&Template::new(vec![
                        lit(keys[shard][2]),
                        lit(k % CONFIGS),
                        formal(),
                    ]));
                    let answer = job[2].as_int().unwrap() ^ config[0].as_int().unwrap();
                    ts.put(vec![
                        Value::Int(keys[master][1]),
                        Value::Int(k),
                        Value::Int(answer),
                    ]);
                }
            });
        }
    }
    let t0 = Instant::now();
    let masters: Vec<_> = (0..2usize)
        .map(|shard| {
            let (ts, keys) = (ts.clone(), keys.clone());
            fleet.shard(shard).fork(move |_cx| {
                let acks = Template::new(vec![lit(keys[shard][1]), formal(), formal()]);
                let (mut issued, mut acked) = (0i64, 0i64);
                loop {
                    while t0.elapsed() < run && ((issued - acked) as usize) < OUTSTANDING {
                        let to = if issued % 5 == 4 { 1 - shard } else { shard };
                        ts.put(vec![
                            Value::Int(keys[to][0]),
                            Value::Int(shard as i64),
                            Value::Int(issued),
                            Value::Int(issued * 3),
                        ]);
                        issued += 1;
                    }
                    if issued == acked {
                        return acked;
                    }
                    let ack = ts
                        .get_timeout(&acks, Duration::from_secs(30))
                        .expect("a job came back");
                    let k = ack[0].as_int().unwrap();
                    assert_eq!(ack[1].as_int().unwrap(), (k * 3) ^ (k % CONFIGS + 100));
                    acked += 1;
                }
            })
        })
        .collect();
    std::thread::sleep(run / 2);
    let (half_way, at) = (resident_bytes(), t0.elapsed());
    let jobs: i64 = masters
        .into_iter()
        .map(|m| m.join_blocking().unwrap().as_int().unwrap())
        .sum();
    let growth = resident_bytes().saturating_sub(half_way) as f64;
    let growth_per_s = growth / (t0.elapsed() - at).as_secs_f64();
    assert!(jobs > 1_000, "only {jobs} jobs in {run:?}");
    assert_eq!(
        ts.len(),
        preloaded,
        "a job or an ack was lost or duplicated"
    );
    let registered = ts.registered();
    eprintln!(
        "farm: {jobs} jobs in {run:?}, {registered} registrations held, resident set {:+.2} MB/s",
        growth_per_s / 1e6
    );
    fleet.shutdown();
    (registered, growth_per_s)
}

/// Reader registrations stay with the readers: once the masters have
/// drained, what the space holds is its eight blocked workers (and at most
/// a few dead entries awaiting their prune) however many jobs went by.
#[test]
fn farm_shaped_world_holds_registrations_flat() {
    let (registered, _) = drive_farm(Duration::from_secs(2));
    assert!(registered <= 16, "{registered} registrations held");
}

/// The acceptance run (ISSUE 18): ten seconds, registrations and memory
/// both flat.  `ci.sh shard` runs it alone, in release; memory cannot be
/// judged while the other tests of this binary share the process.
#[test]
#[ignore = "10 s, and measures process memory: run alone (ci.sh shard)"]
fn farm_shaped_world_holds_memory_flat() {
    let (registered, growth_per_s) = drive_farm(Duration::from_secs(10));
    assert!(registered <= 16, "{registered} registrations held");
    assert!(
        growth_per_s < 1e6,
        "resident set grew {:.1} MB/s",
        growth_per_s / 1e6
    );
}

/// On two shards of two VPs each, a thread's routed `put` and its blocking
/// `get` of the same tuple, both owned by the other shard, meet: the get's
/// owner closure queues behind the deposit, so every round takes back the
/// tuple it just put.
#[test]
fn routed_put_then_get_on_multi_vp_shards_takes_back_the_tuple() {
    const ROUNDS: i64 = 2_000;
    let fleet = Fleet::builder()
        .shards(2)
        .vps_per_shard(2)
        .processors(2)
        .build();
    let ts = ShardedSpace::new(&fleet);
    let (k, owner) = exclusive_key(&ts);
    let other = (owner + 1) % 2;
    let mover = {
        let ts = ts.clone();
        fleet.shard(other).fork(move |_cx| {
            let template = Template::new(vec![lit(Value::Int(k)), formal()]);
            for i in 0..ROUNDS {
                ts.put(vec![Value::Int(k), Value::Int(i)]);
                let b = ts.get(&template);
                assert_eq!(b[0], Value::Int(i), "round {i} took another tuple");
            }
            ROUNDS
        })
    };
    wait_until("every routed put to meet its get", || mover.is_determined());
    assert_eq!(mover.join_blocking(), Ok(Value::Int(ROUNDS)));
    assert!(ts.is_empty(), "a tuple was left behind");
    assert_eq!(ts.blocked(), 0, "a waiter leaked on the owner partition");
    fleet.shutdown();
}
