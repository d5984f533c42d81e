//! Shape experiment E3 (§4.2.1): "the implementation minimizes
//! synchronization overhead by associating a mutex with every hash bin
//! rather than having a global mutex on the entire hash table".
//!
//! We compare the per-bucket configuration against the one-bucket (global
//! lock) configuration under an associative load with many distinct keys
//! in flight and a 64-tuple chain to search per key.  Both configurations
//! search the same chains (the index is keyed inside a bin); only the
//! number of locks differs.  The workload lives in
//! [`sting_bench::shapes`] so the unified runner (`bench_all`) measures
//! the same code.
//!
//! Run with: `cargo run --release -p sting-bench --bin shape_tuple_locks`

use sting::prelude::*;
use sting_bench::shapes::tuple_locks_workload;

fn main() {
    let keys = 256i64;
    let rounds = 20i64;
    println!("E3 — tuple-space locking granularity ({keys} keys × {rounds} rounds × 4 workers)\n");
    for (name, buckets) in [
        // Untimed: the first run of a process pays for growing the heap
        // the later ones reuse.
        ("", 64usize),
        ("per-bucket (64 bins)", 64),
        ("global lock (1 bin)", 1),
    ] {
        let vm = VmBuilder::new().vps(2).processors(2).trace(true).build();
        let ts = TupleSpace::with_kind(SpaceKind::Hashed { buckets });
        let t = tuple_locks_workload(&vm, &ts, keys, rounds);
        if name.is_empty() {
            vm.shutdown();
            continue;
        }
        println!("{:<24} {:>10.2?}   ({} ops)", name, t, keys * rounds);
        if let Err(e) = sting_bench::export_trace(&vm, "shape_tuple_locks", name) {
            eprintln!("trace export failed for {name}: {e}");
        }
        vm.shutdown();
    }
    println!(
        "\nWith a second core to run on, workers searching different keys hold\n\
         different mutexes in the per-bucket configuration and serialize on one\n\
         in the global-lock configuration; on one core the two are equal."
    );
}
