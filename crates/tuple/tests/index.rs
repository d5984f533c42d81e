//! The keyed index of the hashed representation: a key lives in one
//! place, a reader registers once, and the rare tuples and readers that
//! have no key (thread-headed tuples, wild templates) still meet everyone
//! they should.

use std::time::{Duration, Instant};
use sting_core::fleet::Fleet;
use sting_core::VmBuilder;
use sting_tuple::{formal, lit, ShardedSpace, SpaceKind, Template, TupleSpace};
use sting_value::Value;

fn ints(items: &[i64]) -> Vec<Value> {
    items.iter().map(|&i| Value::Int(i)).collect()
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Reproduction of "`tuple_farm` worlds grow ~33 MB/s": every block used
/// to leave one dead registration behind in the arity-only bin, which
/// nothing ever pruned.  Two threads hand a baton back and forth on one
/// literal key, blocking twice a round; the registrations the space holds
/// must stay within a small constant of the readers actually blocked.
#[test]
fn handoffs_on_one_key_hold_registrations_flat() {
    const HANDOFFS: i64 = 200_000;
    let vm = VmBuilder::new().vps(1).build();
    let ts = TupleSpace::with_kind(SpaceKind::Hashed { buckets: 64 });
    let (to, fro) = (
        Template::new(vec![lit(7), lit(0), formal()]),
        Template::new(vec![lit(7), lit(1), formal()]),
    );
    let echo = {
        let (ts, to) = (ts.clone(), to.clone());
        vm.fork(move |_cx| {
            for _ in 0..HANDOFFS / 2 {
                let baton = ts.get(&to);
                ts.put(vec![Value::Int(7), Value::Int(1), baton[0].clone()]);
            }
            0i64
        })
    };
    let most_held = {
        let ts = ts.clone();
        vm.fork(move |_cx| {
            let mut most_held = 0;
            for round in 0..HANDOFFS / 2 {
                ts.put(ints(&[7, 0, round]));
                assert_eq!(ts.get(&fro), ints(&[round]));
                if round % 64 == 0 {
                    let (held, live) = (ts.registered(), ts.blocked());
                    assert!(
                        held <= live + 4,
                        "round {round}: {held} registrations held for {live} blocked readers"
                    );
                    most_held = most_held.max(held);
                }
            }
            most_held as i64
        })
    };
    assert_eq!(echo.join_blocking(), Ok(Value::Int(0)));
    let most_held = most_held.join_blocking().unwrap().as_int().unwrap();
    assert!(most_held <= 6, "{most_held} registrations held at once");
    assert_eq!((ts.len(), ts.blocked()), (0, 0));
    vm.shutdown();
}

/// Tuples of one key come back oldest first, whatever else shares the
/// space (and the bin).
#[test]
fn equal_keys_are_served_oldest_first() {
    let ts = TupleSpace::with_kind(SpaceKind::Hashed { buckets: 2 });
    for i in 0..50 {
        ts.put(ints(&[5, i]));
        ts.put(ints(&[6 + i, i]));
    }
    let fives = Template::new(vec![lit(5), formal()]);
    assert_eq!(ts.try_rd(&fives), Some(ints(&[0]).into()));
    for i in 0..50 {
        assert_eq!(ts.try_get(&fives), Some(ints(&[i]).into()));
    }
    assert_eq!(ts.try_get(&fives), None);
    // A second literal narrows the match within the chain, still in order.
    ts.put(ints(&[5, 1, 10]));
    ts.put(ints(&[5, 2, 20]));
    ts.put(ints(&[5, 1, 11]));
    let ones = Template::new(vec![lit(5), lit(1), formal()]);
    assert_eq!(ts.try_get(&ones), Some(ints(&[10]).into()));
    assert_eq!(ts.try_get(&ones), Some(ints(&[11]).into()));
    assert_eq!(ts.try_get(&ones), None);
    assert_eq!(ts.len(), 51);
}

/// A thread-headed tuple has no key a literal template could find it by.
/// A reader registered *before* its deposit is woken by the deposit's
/// sweep, and a probe made *after* consults the arity-only chain because
/// the space counts such a tuple resident; once it is gone, the count
/// drops and probes stop looking.
#[test]
fn a_literal_template_meets_a_thread_headed_tuple() {
    let vm = VmBuilder::new().vps(2).build();
    let ts = TupleSpace::new();
    let sevens = Template::new(vec![lit(7), formal()]);
    let before = {
        let (ts, sevens) = (ts.clone(), sevens.clone());
        vm.fork(move |_cx| ts.get(&sevens)[0].clone())
    };
    wait_until("the reader to register", || ts.blocked() == 1);
    // A bystander of the same arity wakes nobody.
    ts.put(ints(&[8, 80]));
    assert_eq!(ts.blocked(), 1);
    let active = |head: i64, rest: i64| -> Vec<sting_core::Thunk> {
        vec![
            Box::new(move |_cx: &sting_core::Cx| Value::Int(head)),
            Box::new(move |_cx: &sting_core::Cx| Value::Int(rest)),
        ]
    };
    ts.spawn_on_vm(&vm, active(7, 70));
    assert_eq!(before.join_blocking(), Ok(Value::Int(70)));
    // (Each time the woken reader went on from its own chain to the
    // arity-only chain it left a registration behind; those are dead, and
    // go with the next sweep or when the list would have to grow.)
    assert_eq!((ts.len(), ts.blocked()), (1, 0));
    assert!(ts.registered() <= 4);
    ts.spawn_on_vm(&vm, active(6, 60));
    ts.spawn_on_vm(&vm, active(7, 71));
    let after = {
        let (ts, sevens) = (ts.clone(), sevens.clone());
        vm.fork(move |_cx| ts.try_get(&sevens).map_or(Value::Nil, |b| b[0].clone()))
    };
    assert_eq!(after.join_blocking(), Ok(Value::Int(71)));
    assert_eq!(
        ts.try_get(&sevens),
        None,
        "the `6` tuple is not a `7` tuple"
    );
    let keyed = |k: i64| Template::new(vec![lit(k), formal()]);
    assert_eq!(ts.try_get(&keyed(6)), Some(ints(&[60]).into()));
    assert_eq!(ts.try_get(&keyed(8)), Some(ints(&[80]).into()));
    assert!(ts.is_empty());
    vm.shutdown();
}

/// The same meeting across the partitions of a sharded space: the
/// thread-headed tuple lands in the partition its arity selects, the
/// reader waits in the partition its literal selects, and they differ.
/// The reader is tried on the owning shard (local tier) and on the other
/// (routed tier).
#[test]
fn a_literal_template_meets_a_thread_headed_tuple_across_partitions() {
    let fleet = Fleet::builder().shards(2).build();
    let ts = ShardedSpace::new(&fleet);
    let thread_field = |v: i64| fleet.shard(0).fork(move |_cx| v).to_value();
    let active_home = ts.partition_of_tuple(&[thread_field(0), Value::Int(0)]);
    let k = (0..)
        .find(|&k| ts.partition_of_tuple(&ints(&[k, 0])) != active_home)
        .unwrap();
    let owner = ts.partition_of_tuple(&ints(&[k, 0]));
    let keyed = Template::new(vec![lit(k), formal()]);
    for reader_shard in [owner, active_home] {
        let before = {
            let (ts, keyed) = (ts.clone(), keyed.clone());
            fleet
                .shard(reader_shard)
                .fork(move |_cx| ts.get(&keyed)[0].clone())
        };
        wait_until("the reader to register with its owner", || {
            ts.blocked() == 1
        });
        ts.put(vec![thread_field(k), Value::Int(70)]);
        assert_eq!(before.join_blocking(), Ok(Value::Int(70)));
        assert_eq!(ts.partitions_of_template(&keyed), Some(vec![owner]));
        // Deposited first, probed after — from off the fleet and from a
        // shard.
        ts.put(vec![thread_field(k), Value::Int(71)]);
        assert_eq!(ts.partition_len(active_home), 1);
        assert_eq!(
            ts.partitions_of_template(&keyed),
            Some(vec![owner, active_home]),
            "while one is resident, a probe looks where thread-headed tuples live"
        );
        assert_eq!(ts.try_rd(&keyed), Some(ints(&[71]).into()));
        let after = {
            let (ts, keyed) = (ts.clone(), keyed.clone());
            fleet
                .shard(reader_shard)
                .fork(move |_cx| ts.get(&keyed)[0].clone())
        };
        assert_eq!(after.join_blocking(), Ok(Value::Int(71)));
        assert!(ts.is_empty());
        assert_eq!(ts.blocked(), 0);
    }
    fleet.shutdown();
}

/// A wild reader (no literal first field) registers once, is counted
/// once, and is woken by a deposit of any key; a keyed reader beside it is
/// not disturbed by a deposit of another key.
#[test]
fn wild_and_keyed_readers_register_once_each() {
    let vm = VmBuilder::new().vps(2).build();
    let ts = TupleSpace::new();
    let wild = {
        let ts = ts.clone();
        vm.fork(move |_cx| ts.get(&Template::new(vec![formal(), lit(1)]))[0].clone())
    };
    let keyed = {
        let ts = ts.clone();
        vm.fork(move |_cx| ts.get(&Template::new(vec![lit(9), formal()]))[0].clone())
    };
    wait_until("both readers to block", || ts.blocked() == 2);
    assert_eq!(ts.registered(), 2);
    ts.put(ints(&[4, 1]));
    assert_eq!(wild.join_blocking(), Ok(Value::Int(4)));
    assert_eq!(ts.blocked(), 1);
    assert!(!keyed.is_determined());
    ts.put(ints(&[9, 90]));
    assert_eq!(keyed.join_blocking(), Ok(Value::Int(90)));
    assert_eq!((ts.len(), ts.blocked(), ts.registered()), (0, 0, 0));
    vm.shutdown();
}

/// A seeded random run of puts, removals and reads over 32 keys and three
/// arities: the hashed index and the bag (one list, scanned — the oracle)
/// must answer every operation alike.  Templates pin the first field, so
/// "oldest match" is the same tuple in both.
#[test]
fn the_index_answers_like_a_scan() {
    let hashed = TupleSpace::with_kind(SpaceKind::Hashed { buckets: 64 });
    let bag = TupleSpace::with_kind(SpaceKind::Bag);
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let (mut hits, mut misses) = (0, 0);
    for _ in 0..20_000 {
        let (key, arity) = (next(32) as i64, 1 + next(3) as usize);
        match next(8) {
            0 | 1 => {
                let mut fields = vec![Value::Int(key)];
                fields.extend((1..arity).map(|_| Value::Int(next(4) as i64)));
                hashed.put(fields.clone());
                bag.put(fields);
            }
            op => {
                let mut fields = vec![lit(key)];
                fields.extend((1..arity).map(|_| match next(3) {
                    0 => lit(next(4) as i64),
                    _ => formal(),
                }));
                let t = Template::new(fields);
                let (h, b) = if op < 6 {
                    (hashed.try_get(&t), bag.try_get(&t))
                } else {
                    (hashed.try_rd(&t), bag.try_rd(&t))
                };
                assert_eq!(h, b, "{t:?}");
                if h.is_some() {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
        }
        assert_eq!(hashed.len(), bag.len());
    }
    assert!(
        hits > 1_000 && misses > 1_000,
        "{hits} hits, {misses} misses"
    );
}
