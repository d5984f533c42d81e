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
    // One bin per partition, so the exact `blocked()` totals below hold:
    // a reader counts once per bin it registered in, and among 64 bins
    // this template's literal and arity-only bins differ.
    let ts = ShardedSpace::with_buckets(&fleet, 1);
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
