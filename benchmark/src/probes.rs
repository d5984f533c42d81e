//! Isolated probe loops: each times one layer's public function in a tight
//! loop, away from the workloads, so a layer's own cost is visible beside
//! the end-to-end number it should move.  They run in the traced run only.

use crate::harness::{median, median_f64, now_ns};
use crate::metrics::Metrics;
use crate::workloads::scheme_mix::Program;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sting::analyze::analyze_source;
use sting::areas::{Heap, HeapConfig, Val, Word};
use sting::context::{Fiber, Stack, StackPool};
use sting::prelude::*;

/// Nanoseconds per iteration of `f`.
fn per_iter(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = now_ns();
    for i in 0..iters {
        f(i);
    }
    (now_ns() - start) as f64 / iters as f64
}

/// Runs `body` on a thread of `vm`; it returns the nanoseconds it timed.
fn timed_on(vm: &Arc<Vm>, body: impl FnOnce(&Cx) -> f64 + Send + 'static) -> f64 {
    vm.run(move |cx| body(cx))
        .ok()
        .and_then(|v| v.as_f64())
        .expect("a probe thread returns its timing")
}

fn context(out: &mut Metrics) {
    const SWITCHES: u64 = 1_000_000;
    let mut fiber = Fiber::new(Stack::new(64 * 1024), |sus, first: u64| {
        let mut x = first;
        for _ in 1..SWITCHES {
            x = sus.suspend(x);
        }
        x
    });
    let ns = per_iter(SWITCHES, |i| {
        std::hint::black_box(fiber.resume(i));
    });
    out.set("context.switch_ns", ns, SWITCHES);

    const STACKS: u64 = 2_000_000;
    let mut pool = StackPool::new(64 * 1024, 8);
    let warm = pool.take();
    pool.put(warm);
    let ns = per_iter(STACKS, |_| {
        let s = pool.take();
        pool.put(std::hint::black_box(s));
    });
    out.set("context.stack_take_put_ns", ns, STACKS);
}

/// `yield_now`, block/wake and the `sync` structures, on a 1-VP VM so no
/// second processor's timing leaks in.
fn scheduler_and_sync(out: &mut Metrics) {
    let vm = VmBuilder::new().vps(1).name("probe").build();

    const YIELDS: u64 = 500_000;
    let ns = timed_on(&vm, |cx| per_iter(YIELDS, |_| cx.yield_now()));
    out.set("vp.yield_ns", ns, YIELDS);

    // Ping-pong over two channels: every hand-off parks one thread and
    // wakes the other.
    const ROUNDS: u64 = 100_000;
    let (ping, pong) = (Channel::unbounded(), Channel::unbounded());
    let echo = {
        let (ping, pong) = (ping.clone(), pong.clone());
        vm.fork(move |_cx| {
            while let Some(v) = ping.recv() {
                if pong.send(v).is_err() {
                    break;
                }
            }
        })
    };
    let ns = timed_on(&vm, move |_cx| {
        let ns = per_iter(ROUNDS, |i| {
            ping.send(Value::Int(i as i64)).expect("channel is open");
            std::hint::black_box(pong.recv());
        });
        ping.close();
        ns
    });
    echo.join_blocking().expect("the echo thread returns");
    out.set("wait.block_wake_ns", ns / 2.0, 2 * ROUNDS);

    const LOCKS: u64 = 2_000_000;
    let ns = timed_on(&vm, |_cx| {
        let m = Mutex::new(16, 2);
        per_iter(LOCKS, |_| drop(std::hint::black_box(m.acquire())))
    });
    out.set("sync.mutex_lock_unlock_ns", ns, LOCKS);

    const MESSAGES: u64 = 1_000_000;
    let ns = timed_on(&vm, |_cx| {
        let ch = Channel::unbounded();
        per_iter(MESSAGES, |i| {
            ch.send(Value::Int(i as i64)).expect("channel is open");
            std::hint::black_box(ch.recv());
        })
    });
    out.set("sync.channel_send_recv_ns", ns, MESSAGES);

    // A timer armed and cancelled beside 1 000 pending deadlines, as each
    // echo-server wake does.
    const TIMERS: u64 = 500_000;
    let sleeper = vm.delayed(|_| 0i64);
    let far = Instant::now() + Duration::from_secs(3_600);
    let pending: Vec<_> = (0..1_000)
        .map(|i| {
            vm.timers()
                .add(far + Duration::from_millis(i), sleeper.clone())
        })
        .collect();
    let ns = per_iter(TIMERS, |_| {
        let id = vm.timers().add(far, sleeper.clone());
        vm.timers().cancel(id);
    });
    for id in pending {
        vm.timers().cancel(id);
    }
    out.set("timers.add_cancel_ns", ns, TIMERS);

    // Last on this VM: every future stolen by its toucher leaves a stale
    // entry on the ready queue, which an idle VP takes ~40 us each to
    // discard; shutting down drains them at once.
    const FUTURES: u64 = 100_000;
    let ns = timed_on(&vm, |cx| {
        per_iter(FUTURES, |i| {
            std::hint::black_box(Future::spawn(cx, move |_| i as i64).touch().ok());
        })
    });
    out.set("sync.future_spawn_touch_ns", ns, FUTURES);

    vm.shutdown();
}

/// Non-blocking tuple ops against a space holding 10 000 bystanders.
fn tuple(out: &mut Metrics) {
    let space = TupleSpace::new();
    for b in 0..10_000i64 {
        space.put(vec![
            Value::Int(1_000_000 + b),
            Value::Int(b),
            Value::Int(b * 7),
        ]);
    }
    space.put(vec![Value::Int(1), Value::Int(0), Value::Int(42)]);

    const OPS: u64 = 200_000;
    let jobs = Template::new(vec![lit(2i64), formal(), formal()]);
    let ns = per_iter(OPS, |i| {
        space.put(vec![Value::Int(2), Value::Int(i as i64), Value::Int(0)]);
        std::hint::black_box(space.try_get(&jobs));
    });
    out.set("tuple.put_try_get_ns", ns, OPS);

    let config = Template::new(vec![lit(1i64), lit(0i64), formal()]);
    let ns = per_iter(OPS, |_| {
        std::hint::black_box(space.try_rd(&config));
    });
    out.set("tuple.try_rd_ns", ns, OPS);
}

/// `Fabric::call` from shard 0 to shard 1 and back.
fn fleet(out: &mut Metrics) {
    const CALLS: u64 = 50_000;
    let fleet = Fleet::builder().name("probe-fleet").shards(2).build();
    let fabric = fleet.fabric().expect("two shards have a fabric").clone();
    let home = fleet.shard(0).clone();
    let ns = timed_on(fleet.shard(0), move |_cx| {
        let back = Channel::unbounded();
        per_iter(CALLS, |i| {
            let (fabric2, back2) = (fabric.clone(), back.clone());
            fabric.call(
                &home,
                1,
                Box::new(move |there| {
                    fabric2.call(
                        there,
                        0,
                        Box::new(move |_| {
                            let _ = back2.send(Value::Int(i as i64));
                        }),
                    );
                }),
            );
            std::hint::black_box(back.recv());
        })
    });
    out.set("fleet.call_rtt_ns", ns, CALLS);
    fleet.shutdown();
}

fn areas(out: &mut Metrics) {
    const CONSES: u64 = 2_000_000;
    let mut heap = Heap::new(HeapConfig {
        young_words: 16 * 1024,
        old_trigger_words: usize::MAX / 2,
    });
    let mut roots: Vec<Word> = Vec::new();
    let ns = per_iter(CONSES, |i| {
        std::hint::black_box(heap.cons(Val::Int(i as i64), Val::Nil, &mut roots));
    });
    out.set("areas.cons_ns", ns, CONSES);

    const COLLECTIONS: usize = 1_000;
    let mut heap = Heap::new(HeapConfig {
        young_words: 64 * 1024,
        old_trigger_words: usize::MAX / 2,
    });
    let mut roots: Vec<Word> = Vec::new();
    for i in 0..1_000 {
        let pair = heap.cons(Val::Int(i), Val::Nil, &mut roots);
        roots.push(pair.word());
    }
    let mut pauses: Vec<u64> = (0..COLLECTIONS)
        .map(|_| {
            let start = now_ns();
            heap.collect_minor(&mut roots);
            now_ns() - start
        })
        .collect();
    let max = pauses.iter().copied().max().unwrap_or(0);
    out.set(
        "areas.minor_pause_p50_us",
        median(&mut pauses) / 1e3,
        COLLECTIONS as u64,
    );
    out.set(
        "areas.minor_pause_max_us",
        max as f64 / 1e3,
        COLLECTIONS as u64,
    );
}

/// `analyze_source` over the six programs; every one is hazard-free, and a
/// verdict that says otherwise fails the run.
fn analyze(programs: &[Program], out: &mut Metrics) -> Result<(), String> {
    const REPEATS: usize = 5;
    let mut times = Vec::new();
    for _ in 0..REPEATS {
        for (name, p) in crate::workloads::scheme_mix::PROGRAMS.iter().zip(programs) {
            let start = now_ns();
            let report = analyze_source(&p.source).map_err(|e| format!("analyze {name}: {e}"))?;
            times.push((now_ns() - start) as f64 / 1e3);
            if !report.is_clean() {
                return Err(format!(
                    "analyze {name}: expected no hazards, got {:?}",
                    report.diagnostics
                ));
            }
        }
    }
    let n = times.len() as u64;
    out.set("analyze.verdict_us", median_f64(&mut times), n);
    Ok(())
}

pub fn run_all(programs: &[Program], out: &mut Metrics) -> Result<(), String> {
    context(out);
    scheduler_and_sync(out);
    tuple(out);
    fleet(out);
    areas(out);
    analyze(programs, out)
}
