//! `tuple_farm`: a master/worker farm over one `ShardedSpace` on a
//! 2-shard × 1-VP fleet.  Op = one job round trip: master `put (job …)` →
//! worker `get` → worker `rd (config …)` → worker `put (ack …)` → master
//! `get`; the ack must carry `f(payload, config)`.
//!
//! Why: blocking `get`, wake herds, `WakeBatch`, the hashed index under a
//! real working set (10 000 bystander tuples share the buckets) and the
//! cross-shard fabric are the work here.  `rd` beside `get`/`put` is the
//! reads-beside-writes pair; the seed sends one job in five to the other
//! shard's workers, so local and routed jobs are the fast-path/slow-path
//! pair.  Per shard: one master keeping 8 jobs outstanding, 4 workers, and
//! its own 16 `config` tuples (read-mostly state a user would replicate
//! per shard rather than route every read).

use super::{Config, World};
use crate::harness::{
    input_hash, median, note_ops_done, now_ns, one_in_each_block, OpRecord, Rng, Stop, Window,
    INPUTS_PER_THREAD, OP_DEADLINE,
};
use crate::metrics::Metrics;
use crate::spans::{durations_ns, Name, Span, SpanId, Spans, PARENT_IS_OP, ROOT};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use sting::prelude::*;

const BYSTANDERS: i64 = 10_000;
const CONFIGS: i64 = 16;
const WORKERS_PER_SHARD: usize = 4;
const OUTSTANDING: usize = 8;
const WARMUP_OPS_PER_MASTER: usize = 3_000;
/// A traced window spans one job in this many (by job number, so master
/// and worker agree): at ~90 000 jobs/s, six spans a job would overrun any
/// buffer worth keeping.
const SPAN_ONE_IN: i64 = 16;
/// Tuple-space calls one op makes: two puts, two gets, one rd.
const CALLS_PER_OP: f64 = 5.0;

const LOCAL: u8 = 0;
const ROUTED: u8 = 1;

/// One generated job: which shard's workers serve it, and its payload.
#[derive(Clone, Copy)]
struct Job {
    routed: bool,
    payload: i64,
}

/// First fields that route a tuple of the given arity to a shard's own
/// partition.  Routing is a stable hash of `(arity, field₀)`, so scanning
/// small integers finds them at once.
#[derive(Clone, Copy)]
struct Keys {
    job: i64,
    ack: i64,
    config: i64,
}

pub struct TupleFarm {
    fleet: Fleet,
    space: ShardedSpace,
    keys: Vec<Keys>,
    /// Per master.
    jobs: Vec<Vec<Job>>,
    spans: Option<Arc<Spans>>,
    /// Workers span their calls while this is set.
    tracing: Arc<AtomicBool>,
}

fn config_value(i: i64) -> i64 {
    i * 0x9E37 + 1
}

fn f(payload: i64, config: i64) -> i64 {
    let mut x = payload;
    for _ in 0..32 {
        x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
    }
    x ^ config
}

fn int(v: &Value) -> i64 {
    v.as_int().expect("farm tuples hold integers")
}

fn op_id(master: usize, k: i64) -> u64 {
    (master as u64) << 48 | k as u64
}

fn find_keys(space: &ShardedSpace) -> Vec<Keys> {
    let mut next = 0i64;
    let mut key = |shard: usize, arity: usize| loop {
        let mut probe = vec![Value::Int(next)];
        probe.resize(arity, Value::Int(0));
        next += 1;
        if space.partition_of_tuple(&probe) == shard {
            return next - 1;
        }
    };
    (0..space.partitions())
        .map(|s| Keys {
            job: key(s, 4),
            ack: key(s, 3),
            config: key(s, 3),
        })
        .collect()
}

/// A worker: serves jobs addressed to its shard until the fleet shuts down.
fn worker(
    space: &ShardedSpace,
    keys: &[Keys],
    shard: usize,
    spans: Option<&Spans>,
    tracing: &AtomicBool,
) -> ! {
    let jobs = Template::new(vec![lit(keys[shard].job), formal(), formal(), formal()]);
    // The clock is read only in a process that traces.
    let stamp = || spans.map_or(0, |_| now_ns());
    loop {
        let t0 = stamp();
        let job = space.get(&jobs);
        let t1 = stamp();
        let (master, k, payload) = (int(&job[0]) as usize, int(&job[1]), int(&job[2]));
        let config = space.rd(&Template::new(vec![
            lit(keys[shard].config),
            lit(k % CONFIGS),
            formal(),
        ]));
        let t2 = stamp();
        let result = f(payload, int(&config[0]));
        let t3 = stamp();
        space.put(vec![
            Value::Int(keys[master].ack),
            Value::Int(k),
            Value::Int(result),
        ]);
        if let Some(spans) = spans.filter(|_| k % SPAN_ONE_IN == 0 && tracing.load(Relaxed)) {
            // The get began before its job existed; it is clipped to the op
            // when self time is taken.
            let op = op_id(master, k);
            for (name, start, end) in [
                (Name::Get, t0, t1),
                (Name::Rd, t1, t2),
                (Name::Put, t3, now_ns()),
            ] {
                spans.close_at(spans.open(), name, start, end, PARENT_IS_OP, op);
            }
        }
    }
}

struct InFlight {
    k: i64,
    start_ns: u64,
    job: Job,
    span: SpanId,
}

/// A master: keeps [`OUTSTANDING`] jobs in flight until `stop`, then drains.
fn master(
    space: &ShardedSpace,
    keys: &[Keys],
    shard: usize,
    jobs: &[Job],
    stop: Stop,
    spans: Option<&Spans>,
) -> Vec<OpRecord> {
    let acks = Template::new(vec![lit(keys[shard].ack), formal(), formal()]);
    let other = (shard + 1) % keys.len();
    let mut records = Vec::with_capacity(1 << 16);
    let mut in_flight: Vec<InFlight> = Vec::with_capacity(OUTSTANDING);
    let mut issued = 0usize;
    loop {
        while in_flight.len() < OUTSTANDING && !stop.reached(issued, now_ns()) {
            let job = jobs[issued % jobs.len()];
            let k = issued as i64;
            issued += 1;
            let to = if job.routed { other } else { shard };
            let start_ns = now_ns();
            let spans = spans.filter(|_| k % SPAN_ONE_IN == 0);
            let span = spans.map_or(ROOT, Spans::open);
            space.put(vec![
                Value::Int(keys[to].job),
                Value::Int(shard as i64),
                Value::Int(k),
                Value::Int(job.payload),
            ]);
            if let Some(spans) = spans {
                spans.record(Name::Put, start_ns, span, op_id(shard, k));
            }
            in_flight.push(InFlight {
                k,
                start_ns,
                job,
                span,
            });
        }
        if in_flight.is_empty() {
            return records;
        }
        let t0 = now_ns();
        let Some(ack) = space.get_timeout(&acks, OP_DEADLINE) else {
            // Nothing came back within the per-op deadline: every job still
            // out has failed.
            let now = now_ns();
            records.extend(in_flight.iter().map(|j| {
                OpRecord::new(
                    j.start_ns,
                    now,
                    if j.job.routed { ROUTED } else { LOCAL },
                    false,
                )
            }));
            return records;
        };
        let (k, result) = (int(&ack[0]), int(&ack[1]));
        let at = in_flight
            .iter()
            .position(|j| j.k == k)
            .expect("an ack answers a job in flight");
        let j = in_flight.swap_remove(at);
        if let Some(spans) = spans.filter(|_| j.span != ROOT) {
            let op = op_id(shard, k);
            spans.record(Name::Get, t0, j.span, op);
            spans.close(j.span, Name::Op, j.start_ns, ROOT, op);
        }
        let expected = f(j.job.payload, config_value(k % CONFIGS));
        records.push(OpRecord::new(
            j.start_ns,
            now_ns(),
            if j.job.routed { ROUTED } else { LOCAL },
            result == expected,
        ));
        note_ops_done(1);
    }
}

impl World for TupleFarm {
    const RSS_AFTER_OPS: u64 = 200_000;

    fn build(config: &Config) -> Result<TupleFarm, String> {
        let shards = 2;
        let jobs = (0..shards)
            .map(|m| {
                let mut rng = Rng::new(config.seed, m as u64);
                one_in_each_block(&mut rng, INPUTS_PER_THREAD, 5)
                    .into_iter()
                    .map(|routed| Job {
                        routed,
                        payload: (rng.next_u64() >> 1) as i64,
                    })
                    .collect()
            })
            .collect();
        let fleet = Fleet::builder()
            .name("tuple-farm")
            .shards(shards)
            .vps_per_shard(1)
            .build();
        let space = ShardedSpace::new(&fleet);
        let keys = find_keys(&space);
        for b in 0..BYSTANDERS {
            space.put(vec![
                Value::Int(1_000_000 + b),
                Value::Int(b),
                Value::Int(b * 7),
            ]);
        }
        for k in &keys {
            for i in 0..CONFIGS {
                space.put(vec![
                    Value::Int(k.config),
                    Value::Int(i),
                    Value::Int(config_value(i)),
                ]);
            }
        }
        let world = TupleFarm {
            fleet,
            space,
            keys,
            jobs,
            spans: config.spans.clone(),
            tracing: Arc::new(AtomicBool::new(false)),
        };
        for s in 0..shards {
            for _ in 0..WORKERS_PER_SHARD {
                let (space, keys) = (world.space.clone(), world.keys.clone());
                let (spans, tracing) = (world.spans.clone(), world.tracing.clone());
                world.fleet.shard(s).fork(move |_cx| -> i64 {
                    worker(&space, &keys, s, spans.as_deref(), &tracing)
                });
            }
        }
        let warm = world.run(Stop::Count(WARMUP_OPS_PER_MASTER), false);
        if warm.iter().any(|r| !r.ok) {
            return Err("tuple_farm: a warm-up job came back wrong or late".into());
        }
        Ok(world)
    }

    fn input_hash(&self) -> u64 {
        input_hash(
            self.jobs
                .iter()
                .flatten()
                .flat_map(|j| [u64::from(j.routed), j.payload as u64]),
        )
    }

    fn vms(&self) -> Vec<Arc<Vm>> {
        self.fleet.shards().to_vec()
    }

    /// The masters are the load generators: one STING thread per shard,
    /// each waiting for an ack before it issues the next job.
    fn run(&self, stop: Stop, traced: bool) -> Vec<OpRecord> {
        let spans = self.spans.clone().filter(|_| traced);
        self.tracing.store(spans.is_some(), Relaxed);
        let records = Arc::new(Mutex::new(Vec::new()));
        let masters: Vec<_> = (0..self.fleet.len())
            .map(|s| {
                let (space, keys, jobs) =
                    (self.space.clone(), self.keys.clone(), self.jobs[s].clone());
                let (spans, records) = (spans.clone(), records.clone());
                self.fleet.shard(s).fork(move |_cx| {
                    let mine = master(&space, &keys, s, &jobs, stop, spans.as_deref());
                    records
                        .lock()
                        .expect("no master panics holding the lock")
                        .extend(mine);
                })
            })
            .collect();
        for m in masters {
            m.join_blocking()
                .expect("a master thread ends by returning");
        }
        self.tracing.store(false, Relaxed);
        let mut records = records.lock().expect("every master has finished");
        std::mem::take(&mut *records)
    }

    fn spanned_one_in(&self) -> u64 {
        SPAN_ONE_IN as u64
    }

    fn traced_metrics(&self, traced: &Window, spans: &[Option<Span>], out: &mut Metrics) {
        for (name, span) in [
            ("tuple.get_wait_us", Name::Get),
            ("tuple.rd_us", Name::Rd),
            ("tuple.put_us", Name::Put),
        ] {
            let mut d = durations_ns(spans, span);
            out.set(name, median(&mut d) / 1e3, d.len() as u64);
        }
        for (name, kind) in [
            ("fleet.local_job_p50_us", LOCAL),
            ("fleet.routed_job_p50_us", ROUTED),
        ] {
            let mut l = traced.latencies_of_kind_ns(kind);
            out.set(name, median(&mut l) / 1e3, l.len() as u64);
        }
    }

    /// Once the masters have drained, the space must hold exactly what was
    /// preloaded: no job or ack lost or duplicated.
    fn teardown(self) -> Result<(), String> {
        let expected = (BYSTANDERS + CONFIGS * self.keys.len() as i64) as usize;
        let held = self.space.len();
        self.fleet.shutdown();
        if held == expected {
            Ok(())
        } else {
            Err(format!(
                "tuple_farm: space holds {held} tuples after the run, {expected} were preloaded"
            ))
        }
    }
}

/// Share of the tuple-space calls of `ops` ops that crossed the fabric.
pub fn routed_share(routed_ops: u64, ops: u64) -> f64 {
    crate::harness::ratio(routed_ops as f64, CALLS_PER_OP * ops as f64)
}
