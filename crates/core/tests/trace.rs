//! Integration tests for the scheduler flight recorder and the
//! MAX_STEAL_DEPTH fallback: long dependency chains of delayed futures
//! must complete with bounded steal nesting, and a multi-VP stealing run
//! must export well-formed chrome://tracing JSON containing the
//! scheduler events the run provoked.

use std::sync::Arc;
use std::time::{Duration, Instant};
use sting_core::tc::MAX_STEAL_DEPTH;
use sting_core::trace::EventKind;
use sting_core::{policies, Vm, VmBuilder};

/// Chains `n` delayed threads, each touching its predecessor, and touches
/// the head.  Under §4.1.1 every link is stolen onto the toucher's TCB,
/// so without the depth cap a long chain nests `n` stack frames deep.
fn touch_chain(vm: &Arc<Vm>, n: i64) -> i64 {
    vm.run(move |cx| {
        let mut prev = cx.delayed(|_| 0i64);
        for _ in 0..n {
            let p = prev.clone();
            prev = cx.delayed(move |cx| cx.touch(&p).unwrap().as_int().unwrap() + 1);
        }
        cx.touch(&prev).unwrap()
    })
    .unwrap()
    .as_int()
    .unwrap()
}

#[test]
fn steal_chain_deeper_than_max_depth_completes() {
    // Far more chained delayed futures than MAX_STEAL_DEPTH (32): the
    // toucher must bottom out at the cap and fall back to scheduling the
    // remainder instead of overflowing its machine stack.
    let chain = i64::from(MAX_STEAL_DEPTH) * 6 + 10;
    let vm = VmBuilder::new()
        .vps(1)
        .processors(1)
        .trace(true)
        .trace_capacity(64 * 1024)
        .build();
    assert_eq!(touch_chain(&vm, chain), chain);
    let snap = vm.counters().snapshot();
    assert!(
        snap.steals >= u64::from(MAX_STEAL_DEPTH),
        "the chain should be absorbed by stealing up to the cap (steals={})",
        snap.steals
    );
    // The flight recorder saw every steal; none may nest past the cap.
    let events = vm.tracer().snapshot();
    let max_depth = events
        .iter()
        .filter(|e| e.kind == EventKind::Steal)
        .map(|e| e.a)
        .max()
        .expect("steal events recorded");
    assert!(
        max_depth < MAX_STEAL_DEPTH,
        "steal nesting must stay below MAX_STEAL_DEPTH, saw depth {max_depth}"
    );
    vm.shutdown();
}

#[test]
fn tracing_is_off_by_default() {
    let vm = VmBuilder::new().vps(1).build();
    assert_eq!(touch_chain(&vm, 50), 50);
    assert_eq!(vm.tracer().recorded(), 0);
    assert_eq!(vm.tracer().snapshot().len(), 0);
    vm.shutdown();
}

#[test]
fn four_vp_stealing_run_exports_valid_chrome_json() {
    let vm = VmBuilder::new()
        .vps(4)
        .processors(4)
        .policy(|_| policies::local_lifo().migrating(true).boxed())
        .trace(true)
        .build();
    // Forked + delayed work across 4 VPs: dispatches, switches, steals.
    let total = vm
        .run(|cx| {
            let parts: Vec<_> = (0..4)
                .map(|i| {
                    cx.fork(move |cx| {
                        let mut acc = 0i64;
                        for j in 0..64 {
                            let d = cx.delayed(move |_| i * 64 + j);
                            acc += cx.touch(&d).unwrap().as_int().unwrap();
                        }
                        acc
                    })
                })
                .collect();
            parts
                .iter()
                .map(|t| cx.touch(t).unwrap().as_int().unwrap())
                .sum::<i64>()
        })
        .unwrap();
    assert_eq!(total.as_int(), Some((0..256).sum::<i64>()));
    // Two checkpointing spinners on each VP, each spinning past its 500 µs
    // slice, so a checkpoint preempts them; and every VP lane, not only
    // those the stealing run reached, carries their dispatches.
    let spinners: Vec<_> = (0..8)
        .map(|i| {
            vm.fork_on(i / 2, |cx| {
                let start = Instant::now();
                while start.elapsed() < Duration::from_millis(3) {
                    cx.checkpoint();
                }
                0i64
            })
            .unwrap()
        })
        .collect();
    for t in &spinners {
        t.join_blocking().unwrap();
    }
    let events = vm.tracer().snapshot();
    let json = vm.trace_export();
    vm.shutdown();

    assert!(
        events.iter().any(|e| e.kind == EventKind::Steal),
        "delayed futures should be stolen"
    );
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::Preempt && spinners.iter().any(|t| t.id().0 == e.thread)),
        "a spinner's preemption should be recorded with its id"
    );
    assert!(
        events.iter().any(|e| e.kind == EventKind::Dispatch),
        "forked threads should be dispatched"
    );
    let seen: Vec<u32> = events.iter().map(|e| e.vp).collect();
    assert!(
        (0..4).all(|vp| seen.contains(&vp)),
        "all four VP lanes should carry events"
    );

    // The export must be a syntactically valid JSON array mentioning the
    // provoked event kinds.
    json_check(&json);
    assert!(json.contains("\"steal"), "steal instants in export");
    assert!(json.contains("\"preempt"), "preempt instants in export");
    assert!(json.contains("\"ph\":\"M\""), "metadata events in export");
}

/// Minimal recursive-descent JSON syntax check (no external crates):
/// panics with a position on the first syntax error.
fn json_check(s: &str) {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i);
    skip_ws(b, &mut i);
    assert!(i == b.len(), "trailing garbage at byte {i}");

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) {
        assert!(*i < b.len(), "unexpected end of input");
        match b[*i] {
            b'{' => composite(b, i, b'}', true),
            b'[' => composite(b, i, b']', false),
            b'"' => string(b, i),
            b't' => literal(b, i, b"true"),
            b'f' => literal(b, i, b"false"),
            b'n' => literal(b, i, b"null"),
            b'-' | b'0'..=b'9' => number(b, i),
            c => panic!("unexpected byte {c:?} at {i:?}"),
        }
    }
    fn composite(b: &[u8], i: &mut usize, close: u8, keyed: bool) {
        *i += 1; // opener
        skip_ws(b, i);
        if *i < b.len() && b[*i] == close {
            *i += 1;
            return;
        }
        loop {
            skip_ws(b, i);
            if keyed {
                string(b, i);
                skip_ws(b, i);
                assert!(*i < b.len() && b[*i] == b':', "expected ':' at {i:?}");
                *i += 1;
                skip_ws(b, i);
            }
            value(b, i);
            skip_ws(b, i);
            assert!(*i < b.len(), "unterminated composite");
            match b[*i] {
                b',' => *i += 1,
                c if c == close => {
                    *i += 1;
                    return;
                }
                c => panic!("expected ',' or closer, got {c:?} at {i:?}"),
            }
        }
    }
    fn string(b: &[u8], i: &mut usize) {
        assert!(*i < b.len() && b[*i] == b'"', "expected string at {i:?}");
        *i += 1;
        while *i < b.len() {
            match b[*i] {
                b'"' => {
                    *i += 1;
                    return;
                }
                b'\\' => {
                    *i += 2;
                }
                0x00..=0x1f => panic!("unescaped control char at {i:?}"),
                _ => *i += 1,
            }
        }
        panic!("unterminated string");
    }
    fn number(b: &[u8], i: &mut usize) {
        if b[*i] == b'-' {
            *i += 1;
        }
        let start = *i;
        while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
            *i += 1;
        }
        assert!(*i > start, "empty number at {start:?}");
    }
    fn literal(b: &[u8], i: &mut usize, lit: &[u8]) {
        assert!(b[*i..].starts_with(lit), "bad literal at {i:?}");
        *i += lit.len();
    }
}
