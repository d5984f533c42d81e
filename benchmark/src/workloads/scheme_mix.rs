//! `scheme_mix`: op = a fresh `Interp` on a shared 2-VP VM evaluating one
//! of six programs from `programs/`; the printed result is compared with a
//! hand-written `.expected` file.
//!
//! Why: the computation language is how the paper's users meet the
//! substrate.  Bytecode dispatch, preemption polls and `areas` scavenging
//! dominate, while native fork/touch cost is diluted — the prediction for
//! a `vp` fast-path change is "no move here".  The seed shuffles the
//! program order; each round of six runs every program once, so the mix
//! is the same on every seed and only the interleaving differs.

use super::{Config, World};
use crate::harness::{
    closed_loop, input_hash, median, now_ns, parallelism, OpRecord, Rng, Stop, Window,
    INPUTS_PER_THREAD,
};
use crate::metrics::Metrics;
use crate::spans::{durations_ns, Name, Span, Spans, ROOT};
use std::sync::Arc;
use sting::prelude::*;

pub const PROGRAMS: [&str; 6] = [
    "fib",
    "alloc-sort",
    "sieve-futures",
    "farm-ts",
    "mutex-counter",
    "speculative-race",
];
const WARMUP_OPS_PER_THREAD: usize = 12;

pub struct Program {
    pub source: String,
    pub expected: String,
}

pub struct SchemeMix {
    vm: Arc<Vm>,
    programs: Vec<Program>,
    /// Per load thread, per op: index into `programs`.
    order: Vec<Vec<u8>>,
    spans: Option<Arc<Spans>>,
}

pub fn load_programs(dir: &std::path::Path) -> Result<Vec<Program>, String> {
    PROGRAMS
        .iter()
        .map(|name| {
            let read = |ext: &str| {
                let path = dir.join(format!("{name}.{ext}"));
                std::fs::read_to_string(&path)
                    .map_err(|e| format!("scheme_mix: {}: {e}", path.display()))
            };
            Ok(Program {
                source: read("scm")?,
                expected: read("expected")?.trim().to_string(),
            })
        })
        .collect()
}

impl World for SchemeMix {
    const RSS_AFTER_OPS: u64 = 200;

    fn build(config: &Config) -> Result<SchemeMix, String> {
        let programs = load_programs(&config.programs)?;
        let order = (0..parallelism())
            .map(|t| {
                let mut rng = Rng::new(config.seed, t as u64);
                let mut order = Vec::with_capacity(INPUTS_PER_THREAD + PROGRAMS.len());
                while order.len() < INPUTS_PER_THREAD {
                    // Fisher–Yates over one round of the six programs.
                    let mut round: Vec<u8> = (0..PROGRAMS.len() as u8).collect();
                    for i in (1..round.len()).rev() {
                        round.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                    order.extend(round);
                }
                order
            })
            .collect();
        let vm = VmBuilder::new()
            .vps(parallelism())
            .name("scheme-mix")
            .build();
        let world = SchemeMix {
            vm,
            programs,
            order,
            spans: config.spans.clone(),
        };
        // The warm-up's results are not checked here: a wrong `.expected`
        // file must surface as failed ops in the timed window, where the
        // checker counts it, not abort the set-up.
        world.run(Stop::Count(WARMUP_OPS_PER_THREAD), false);
        Ok(world)
    }

    fn input_hash(&self) -> u64 {
        input_hash(self.order.iter().flatten().map(|&p| u64::from(p)))
    }

    fn vms(&self) -> Vec<Arc<Vm>> {
        vec![self.vm.clone()]
    }

    fn run(&self, stop: Stop, traced: bool) -> Vec<OpRecord> {
        let spans = self.spans.as_deref().filter(|_| traced);
        closed_loop(self.order.len(), stop, |t, i, out| {
            let which = self.order[t][i % self.order[t].len()];
            let program = &self.programs[which as usize];
            let op = (t as u64) << 48 | i as u64;
            let start = now_ns();
            let id = spans.map_or(ROOT, Spans::open);
            let interp = Interp::new(self.vm.clone());
            let mid = now_ns();
            let printed = interp.eval_to_string(&program.source);
            if let Some(spans) = spans {
                spans.close_at(spans.open(), Name::InterpNew, start, mid, id, op);
                spans.record(Name::Eval, mid, id, op);
                spans.close(id, Name::Op, start, ROOT, op);
            }
            let verified = printed.is_ok_and(|p| p == program.expected);
            out.push(OpRecord::new(start, now_ns(), which, verified));
        })
    }

    fn traced_metrics(&self, traced: &Window, spans: &[Option<Span>], out: &mut Metrics) {
        let mut new = durations_ns(spans, Name::InterpNew);
        out.set(
            "scheme.interp_new_us",
            median(&mut new) / 1e3,
            new.len() as u64,
        );
        for (which, name) in PROGRAMS.iter().enumerate() {
            let mut l = traced.latencies_of_kind_ns(which as u8);
            let row = format!("scheme.{name}_p50_us");
            out.set(&row, median(&mut l) / 1e3, l.len() as u64);
        }
    }

    fn teardown(self) -> Result<(), String> {
        self.vm.shutdown();
        Ok(())
    }
}
