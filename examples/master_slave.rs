//! Master/slave computation over a first-class tuple space (§4.2): the
//! master deposits `("job" id payload)` tuples, a farm of workers removes
//! them associatively and publishes `("ack" id result)` tuples.  The VM
//! runs a **global FIFO** policy — the configuration the paper recommends
//! for worker farms (long-lived workers, perfect load sharing).
//!
//! Run with: `cargo run --release --example master_slave [jobs] [workers]`

use sting::core::policies::GlobalQueue;
use sting::prelude::*;

/// A deliberately uneven unit of work.
fn crunch(seed: i64) -> i64 {
    let mut x = seed;
    for _ in 0..(seed % 7 + 1) * 1000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    x & 0xFFFF
}

fn main() {
    let jobs: i64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let workers: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    let queue = GlobalQueue::fifo();
    let vm = VmBuilder::new()
        .vps(4)
        .policy(move |_| queue.policy())
        .name("master-slave")
        .build();

    let ts = TupleSpace::new();
    let job = Value::sym("job");
    let ack = Value::sym("ack");

    // The worker pool: long-lived threads that "rarely block" except to
    // take the next job.
    let pool: Vec<_> = (0..workers)
        .map(|w| {
            let ts = ts.clone();
            let (job, ack) = (job.clone(), ack.clone());
            vm.fork(move |cx| {
                let mut done = 0i64;
                loop {
                    let b = ts.get(&Template::new(vec![lit(job.clone()), formal(), formal()]));
                    let id = b[0].as_int().unwrap();
                    if id < 0 {
                        break; // poison pill
                    }
                    let payload = b[1].as_int().unwrap();
                    ts.put(vec![
                        ack.clone(),
                        Value::Int(id),
                        Value::Int(crunch(payload)),
                    ]);
                    cx.checkpoint();
                    done += 1;
                }
                println!("worker {w} processed {done} jobs");
                done
            })
        })
        .collect();

    let start = std::time::Instant::now();
    for id in 0..jobs {
        ts.put(vec![job.clone(), Value::Int(id), Value::Int(id * 17 + 3)]);
    }
    // Collect results (associative match on the id).
    let mut checksum = 0i64;
    for id in 0..jobs {
        let b = ts.get(&Template::new(vec![lit(ack.clone()), lit(id), formal()]));
        checksum ^= b[0].as_int().unwrap();
    }
    let elapsed = start.elapsed();

    for _ in 0..workers {
        ts.put(vec![job.clone(), Value::Int(-1), Value::Int(0)]);
    }
    let processed: i64 = pool
        .iter()
        .map(|t| t.join_blocking().unwrap().as_int().unwrap())
        .sum();

    let snap = vm.counters().snapshot();
    println!(
        "\n{jobs} jobs / {workers} workers on policy {} in {elapsed:?}",
        vm.vp(0).unwrap().policy_name()
    );
    println!(
        "checksum {checksum:#x}; {processed} jobs processed; blocks={} wakeups={}",
        snap.blocks, snap.wakeups
    );
    vm.shutdown();
}
