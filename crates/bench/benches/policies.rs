//! E2: global vs local queues on farm and tree workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use sting::core::policies::{self, GlobalQueue};
use sting::prelude::*;

fn tree(vm: &Arc<Vm>, depth: u32) {
    fn go(cx: &Cx, depth: u32) -> i64 {
        if depth == 0 {
            1
        } else {
            let l = cx.fork(move |cx| go(cx, depth - 1));
            let r = cx.fork(move |cx| go(cx, depth - 1));
            cx.touch(&l).unwrap().as_int().unwrap() + cx.touch(&r).unwrap().as_int().unwrap()
        }
    }
    vm.run(move |cx| go(cx, depth)).unwrap();
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("policies_tree");
    g.sample_size(10);
    for name in ["global-fifo", "local-lifo", "migrating-lifo"] {
        g.bench_with_input(BenchmarkId::new("policy", name), &name, |b, &name| {
            b.iter(|| {
                let vm = match name {
                    "global-fifo" => {
                        let q = GlobalQueue::fifo();
                        VmBuilder::new().vps(2).policy(move |_| q.policy()).build()
                    }
                    "local-lifo" => VmBuilder::new()
                        .vps(2)
                        .policy(|_| policies::local_lifo().boxed())
                        .build(),
                    _ => VmBuilder::new()
                        .vps(2)
                        .policy(|_| policies::local_lifo().migrating(true).boxed())
                        .build(),
                };
                tree(&vm, 8);
                vm.shutdown();
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
