//! `fork_tree`: one result-parallel tree of depth 10 per op — 2047 threads
//! forked, touched and determined, result 1024 — on a 2-VP VM.
//!
//! Why: the paper's Figure 6 rows (creation, fork-and-value, stealing,
//! context switch) at throughput scale; `tc`, `vp`, `deque` and `context`
//! do nearly all the work, `tuple`, `reactor` and `scheme` none.  The seed
//! picks eager (`cx.fork`, three ops in four) or lazy (`cx.delayed`,
//! absorbed by the toucher, one in four) per op, so a gain on the
//! enqueue/dispatch path that costs the steal path shows.  The mix is not
//! even because a lazy tree takes about half as long as an eager one: at
//! 50/50 the median op would sit in the gap between the two clusters and
//! jump between them from run to run.  The policy is pinned to migrating LIFO because the default
//! FIFO runs this tree breadth-first at ~40 ms/op and would hide every
//! hot-path change.

use super::{Config, World};
use crate::harness::{
    closed_loop, input_hash, median, now_ns, one_in_each_block, parallelism, OpRecord, Rng, Stop,
    Window, INPUTS_PER_THREAD, OP_DEADLINE,
};
use crate::metrics::Metrics;
use crate::spans::{durations_ns, Name, Span, SpanId, Spans, ROOT};
use std::sync::Arc;
use sting::core::{policies, ThreadResult};
use sting::prelude::*;

const DEPTH: u32 = 10;
const EXPECTED: i64 = 1 << DEPTH;
const WARMUP_OPS: usize = 100;
/// An op makes ~4 000 layer calls, so a traced window spans one op in this
/// many; the rest run the untraced code.
const SPAN_ONE_IN: usize = 32;

const EAGER: u8 = 0;
const LAZY: u8 = 1;

pub struct ForkTree {
    vm: Arc<Vm>,
    /// Per op: lazy (`true`) or eager.
    lazy: Vec<bool>,
    spans: Option<Arc<Spans>>,
}

fn tree(cx: &Cx, depth: u32, lazy: bool) -> i64 {
    if depth == 0 {
        return 1;
    }
    let child = move |cx: &Cx| tree(cx, depth - 1, lazy);
    let (l, r) = if lazy {
        (cx.delayed(child), cx.delayed(child))
    } else {
        (cx.fork(child), cx.fork(child))
    };
    value(cx.touch(&l)) + value(cx.touch(&r))
}

/// A subtree that failed reads as a wrong sum, never as a panic.
fn value(r: ThreadResult) -> i64 {
    r.ok().and_then(|v| v.as_int()).unwrap_or(i64::MIN / 4096)
}

/// [`tree`] with a span around every `fork` and `touch`.  A child's spans
/// name the fork span that created the child as their parent.
fn tree_traced(
    cx: &Cx,
    depth: u32,
    lazy: bool,
    spans: &Arc<Spans>,
    parent: SpanId,
    op: u64,
) -> i64 {
    if depth == 0 {
        return 1;
    }
    let fork = |cx: &Cx| {
        let start = now_ns();
        let id = spans.open();
        let s = spans.clone();
        let child = move |cx: &Cx| tree_traced(cx, depth - 1, lazy, &s, id, op);
        let t = if lazy {
            cx.delayed(child)
        } else {
            cx.fork(child)
        };
        spans.close(id, Name::Fork, start, parent, op);
        t
    };
    let touch = |cx: &Cx, t: &Arc<Thread>| {
        let start = now_ns();
        let r = cx.touch(t);
        spans.record(Name::Touch, start, parent, op);
        value(r)
    };
    let (l, r) = (fork(cx), fork(cx));
    touch(cx, &l) + touch(cx, &r)
}

impl World for ForkTree {
    const RSS_AFTER_OPS: u64 = 500;

    fn build(config: &Config) -> Result<ForkTree, String> {
        let mut rng = Rng::new(config.seed, 0);
        let lazy = one_in_each_block(&mut rng, INPUTS_PER_THREAD, 4);
        let vm = VmBuilder::new()
            .vps(parallelism())
            .policy(|_| policies::local_lifo().migrating(true).boxed())
            .name("fork-tree")
            .build();
        let world = ForkTree {
            vm,
            lazy,
            spans: config.spans.clone(),
        };
        let warm = world.run(Stop::Count(WARMUP_OPS), false);
        if warm.iter().any(|r| !r.ok) {
            return Err("fork_tree: a warm-up tree returned the wrong sum".into());
        }
        Ok(world)
    }

    fn input_hash(&self) -> u64 {
        input_hash(self.lazy.iter().map(|&l| u64::from(l)))
    }

    fn vms(&self) -> Vec<Arc<Vm>> {
        vec![self.vm.clone()]
    }

    /// One host thread drives the trees, as `Vm::run` does from `main`.
    fn run(&self, stop: Stop, traced: bool) -> Vec<OpRecord> {
        let spans = self.spans.as_ref().filter(|_| traced);
        closed_loop(1, stop, |_, i, out| {
            let lazy = self.lazy[i % self.lazy.len()];
            let start = now_ns();
            let op = i as u64;
            let root = match spans {
                Some(spans) if i.is_multiple_of(SPAN_ONE_IN) => {
                    let id = spans.open();
                    let s = spans.clone();
                    let t = self
                        .vm
                        .fork(move |cx| tree_traced(cx, DEPTH, lazy, &s, id, op));
                    let r = t.join_blocking_timeout(OP_DEADLINE);
                    spans.close(id, Name::Op, start, ROOT, op);
                    r
                }
                _ => self
                    .vm
                    .fork(move |cx| tree(cx, DEPTH, lazy))
                    .join_blocking_timeout(OP_DEADLINE),
            };
            let sum = root.and_then(Result::ok).and_then(|v| v.as_int());
            let kind = if lazy { LAZY } else { EAGER };
            out.push(OpRecord::new(start, now_ns(), kind, sum == Some(EXPECTED)));
        })
    }

    fn spanned_one_in(&self) -> u64 {
        SPAN_ONE_IN as u64
    }

    fn traced_metrics(&self, traced: &Window, spans: &[Option<Span>], out: &mut Metrics) {
        for (name, span) in [("tc.fork_ns", Name::Fork), ("tc.touch_ns", Name::Touch)] {
            let mut d = durations_ns(spans, span);
            out.set(name, median(&mut d), d.len() as u64);
        }
        for (name, kind) in [
            ("tc.tree_eager_p50_us", EAGER),
            ("tc.tree_lazy_p50_us", LAZY),
        ] {
            let mut l = traced.latencies_of_kind_ns(kind);
            out.set(name, median(&mut l) / 1e3, l.len() as u64);
        }
    }

    fn teardown(self) -> Result<(), String> {
        self.vm.shutdown();
        Ok(())
    }
}
