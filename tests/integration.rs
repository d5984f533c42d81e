//! Cross-crate integration: the whole stack (substrate + sync + tuple +
//! scheme) cooperating in single scenarios.

use std::sync::Arc;
use std::time::Duration;
use sting::core::policies::{self, GlobalQueue};
use sting::prelude::*;

#[test]
fn rust_and_scheme_threads_share_one_machine() {
    let vm = VmBuilder::new().vps(2).build();
    let interp = Interp::new(vm.clone());
    let ts = TupleSpace::new();

    // A native Rust worker answering jobs...
    let ts2 = ts.clone();
    let worker = vm.fork(move |cx| loop {
        let b = ts2.get(&Template::new(vec![lit(Value::sym("square")), formal()]));
        let n = b[0].as_int().unwrap();
        if n < 0 {
            return 0i64;
        }
        ts2.put(vec![Value::sym("answer"), Value::Int(n), Value::Int(n * n)]);
        cx.checkpoint();
    });

    // ...serving a Scheme client through the same first-class tuple space.
    interp
        .globals()
        .set(Symbol::intern("the-ts"), ts.to_value());
    let v = interp
        .eval(
            r#"
(let loop ((n 0) (total 0))
  (if (= n 10)
      total
      (begin
        (ts-put the-ts (list 'square n))
        (let ((ans (ts-get the-ts (list 'answer n '?))))
          (loop (+ n 1) (+ total (car ans)))))))
"#,
        )
        .unwrap();
    assert_eq!(v.as_int(), Some((0..10i64).map(|n| n * n).sum()));

    ts.put(vec![Value::sym("square"), Value::Int(-1)]);
    worker.join_blocking().unwrap();
    vm.shutdown();
}

#[test]
fn two_languages_two_vms_one_physical_machine() {
    let machine = PhysicalMachine::new(2);
    let vm_a = VmBuilder::new().vps(1).machine(machine.clone()).build();
    let vm_b = VmBuilder::new().vps(1).machine(machine.clone()).build();
    let ia = Interp::new(vm_a.clone());
    let t = vm_b.fork(|_cx| 20i64);
    let a = ia.eval("(* 11 2)").unwrap().as_int().unwrap();
    let b = t.join_blocking().unwrap().as_int().unwrap();
    assert_eq!(a + b, 42);
    vm_a.shutdown();
    vm_b.shutdown();
}

#[test]
fn futures_streams_and_tuples_compose() {
    let vm = VmBuilder::new().vps(2).build();
    let r = vm.run(|cx| {
        let stream = Stream::new();
        let ts = TupleSpace::with_kind(SpaceKind::Queue);
        // Producer future feeds the stream.
        let s2 = stream.clone();
        let producer = Future::spawn(cx, move |_| {
            for i in 1..=20i64 {
                s2.attach(Value::Int(i));
            }
            s2.close();
            0i64
        });
        // A pipeline stage moves stream items into the tuple space.
        let (s3, ts2) = (stream.clone(), ts.clone());
        let stage = cx.fork(move |_| {
            let mut c = s3.cursor();
            while let Some(v) = c.next() {
                ts2.put(vec![v]);
            }
            0i64
        });
        // Consumer drains the queue-specialized space.
        let mut sum = 0i64;
        for _ in 0..20 {
            let b = ts.get(&Template::any(1));
            sum += b[0].as_int().unwrap();
        }
        producer.touch().unwrap();
        cx.wait(&stage).unwrap();
        sum
    });
    assert_eq!(r.unwrap().as_int(), Some(210));
    vm.shutdown();
}

#[test]
fn policy_choice_is_per_vp_and_observable() {
    let q = GlobalQueue::fifo();
    let vm = VmBuilder::new()
        .vps(3)
        .policy(move |i| match i {
            0 => q.policy(),
            1 => policies::local_lifo().boxed(),
            _ => policies::priority_high().boxed(),
        })
        .build();
    assert_eq!(vm.vp(0).unwrap().policy_name(), "global-fifo");
    assert_eq!(vm.vp(1).unwrap().policy_name(), "local-lifo");
    assert_eq!(vm.vp(2).unwrap().policy_name(), "priority-high");
    // Work runs fine on each.
    for vp in 0..3 {
        let t = vm.fork_on(vp, move |_| vp as i64).unwrap();
        assert_eq!(t.join_blocking().unwrap().as_int(), Some(vp as i64));
    }
    vm.shutdown();
}

#[test]
fn speculative_scheme_against_native() {
    // A Scheme thread and a native thread race through the same group
    // mechanism.
    let vm = VmBuilder::new().vps(2).build();
    let interp = Interp::new(vm.clone());
    let native: Arc<sting::core::Thread> = vm.fork(|cx| {
        cx.sleep(Duration::from_millis(400));
        Value::sym("native")
    });
    interp
        .globals()
        .set(Symbol::intern("rival"), native.to_value());
    let v = interp
        .eval("(cadr (wait-for-one! (list rival (fork-thread (lambda () 'scheme)))))")
        .unwrap();
    assert_eq!(v, Value::sym("scheme"));
    vm.shutdown();
}

#[test]
fn genealogy_spans_languages() {
    let vm = VmBuilder::new().vps(1).build();
    let interp = Interp::new(vm.clone());
    // A Scheme toplevel thread forks children; the genealogy tree records
    // them.
    let v = interp
        .eval(
            r#"
(let ((kids (map (lambda (k) (fork-thread (lambda () k))) '(1 2 3))))
  (apply + (wait-for-all kids)))
"#,
        )
        .unwrap();
    assert_eq!(v.as_int(), Some(6));
    // Root group saw all the threads.
    assert!(vm.counters().snapshot().threads_created >= 4);
    vm.shutdown();
}

#[test]
fn barriers_coordinate_native_workers() {
    let vm = VmBuilder::new().vps(2).processors(2).build();
    let barrier = Barrier::new(4);
    let ivar = IVar::new();
    let ts: Vec<_> = (0..4)
        .map(|k| {
            let b = barrier.clone();
            let iv = ivar.clone();
            vm.fork(move |_cx| {
                // Phase 1: everyone computes.
                let part = k * 10;
                if b.arrive() {
                    // One leader publishes after the barrier.
                    iv.put(Value::sym("phase2")).unwrap();
                }
                // Phase 2 gate.
                iv.get();
                part as i64
            })
        })
        .collect();
    let total: i64 = ts
        .iter()
        .map(|t| t.join_blocking().unwrap().as_int().unwrap())
        .sum();
    assert_eq!(total, 60);
    vm.shutdown();
}

#[test]
fn channels_bridge_os_and_green_threads() {
    let vm = VmBuilder::new().vps(1).build();
    let ch = Channel::bounded(4);
    let ch2 = ch.clone();
    let echo = vm.fork(move |_cx| {
        let mut n = 0i64;
        while let Some(v) = ch2.recv() {
            n += v.as_int().unwrap();
        }
        n
    });
    // Send from the plain OS thread (main).
    for i in 1..=10i64 {
        ch.send(Value::Int(i)).unwrap();
    }
    ch.close();
    assert_eq!(echo.join_blocking().unwrap().as_int(), Some(55));
    vm.shutdown();
}

/// The benchmark's probe, as a test: 25 000 `Future::spawn` + `touch`
/// pairs on one VP used to leave 25 000 dead ready-queue entries behind,
/// and the next fork waited ~1 s while an idle-looking VP discarded them
/// sixteen per tick.  The toucher now takes each entry with it — out of
/// band 0 under the default FIFO and `priority_high`, out of the top band
/// under `priority_low`.
#[test]
fn absorbed_futures_leave_nothing_in_the_ready_queue() {
    for order in [
        policies::local_fifo,
        policies::priority_high,
        policies::priority_low,
    ] {
        absorbed_futures_leave_nothing_under(order);
    }
}

fn absorbed_futures_leave_nothing_under(order: fn() -> policies::LocalQueue) {
    let vm = VmBuilder::new()
        .vps(1)
        .policy(move |_| order().migrating(true).boxed())
        .build();
    let total = vm
        .run(|cx| {
            (0..25_000i64)
                .map(|i| {
                    Future::spawn(cx, move |_| i)
                        .touch()
                        .unwrap()
                        .as_int()
                        .unwrap()
                })
                .sum::<i64>()
        })
        .unwrap();
    assert_eq!(total.as_int(), Some(24_999 * 25_000 / 2));
    assert!(vm.vp(0).unwrap().queue_len() <= 1);
    let forked = std::time::Instant::now();
    let waited = vm
        .run(move |_| forked.elapsed().as_micros() as i64)
        .unwrap();
    assert!(
        waited.as_int().unwrap() < 10_000,
        "the next fork waited {waited} us for its dispatch"
    );
    assert!(vm.vp(0).unwrap().queue_len() <= 1);
    vm.shutdown();
}
