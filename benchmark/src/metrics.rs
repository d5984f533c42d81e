//! The metric tables: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` lists the same names; `tests/smoke.rs` holds the two
//! together.

/// What a user of the substrate sees; measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_latency_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// One row per layer measurement.  A workload that never calls a layer
/// leaves that layer's traced rows at 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("context.switch_ns", "ns"),
    ("context.stack_take_put_ns", "ns"),
    ("context.stack_recycle_share", "ratio"),
    ("tc.fork_ns", "ns"),
    ("tc.touch_ns", "ns"),
    ("tc.threads_per_s", "1/s"),
    ("tc.steal_share", "ratio"),
    ("tc.tcbs_per_thread", "ratio"),
    ("tc.tree_eager_p50_us", "us"),
    ("tc.tree_lazy_p50_us", "us"),
    ("vp.yield_ns", "ns"),
    ("vp.dispatch_p50_ns", "ns"),
    ("vp.context_switches_per_op", "count"),
    ("vp.migrations_per_kop", "count"),
    ("vp.preemptions_per_op", "count"),
    ("machine.cpu_share", "ratio"),
    ("wait.block_wake_ns", "ns"),
    ("wait.wake_p50_ns", "ns"),
    ("wait.blocks_per_op", "count"),
    ("wait.wakeups_per_block", "ratio"),
    ("tuple.put_try_get_ns", "ns"),
    ("tuple.try_rd_ns", "ns"),
    ("tuple.get_wait_us", "us"),
    ("tuple.rd_us", "us"),
    ("tuple.put_us", "us"),
    ("fleet.routed_ops_share", "ratio"),
    ("fleet.local_job_p50_us", "us"),
    ("fleet.routed_job_p50_us", "us"),
    ("fleet.call_rtt_ns", "ns"),
    ("fleet.handoffs_per_kop", "count"),
    ("reactor.syscalls_per_wake", "ratio"),
    ("reactor.wakes_per_op", "count"),
    ("net.rtt_small_p50_us", "us"),
    ("net.rtt_large_p50_us", "us"),
    ("net.large_mb_per_s", "MB/s"),
    ("net.connect_accept_us", "us"),
    ("net.rss_kb_per_conn", "kB"),
    ("timers.add_cancel_ns", "ns"),
    ("timers.pending_peak", "count"),
    ("sync.future_spawn_touch_ns", "ns"),
    ("sync.mutex_lock_unlock_ns", "ns"),
    ("sync.channel_send_recv_ns", "ns"),
    ("scheme.interp_new_us", "us"),
    ("scheme.fib_p50_us", "us"),
    ("scheme.alloc-sort_p50_us", "us"),
    ("scheme.sieve-futures_p50_us", "us"),
    ("scheme.farm-ts_p50_us", "us"),
    ("scheme.mutex-counter_p50_us", "us"),
    ("scheme.speculative-race_p50_us", "us"),
    ("areas.cons_ns", "ns"),
    ("areas.minor_pause_p50_us", "us"),
    ("areas.minor_pause_max_us", "us"),
    ("areas.gc_pause_p99_ns", "ns"),
    ("areas.gc_pauses_per_op", "count"),
    ("analyze.verdict_us", "us"),
    ("harness.op_latency_p99_us", "us"),
    ("harness.samples", "count"),
    ("harness.trace_overhead_share", "ratio"),
    ("harness.op_self_share", "ratio"),
    ("harness.build_s", "s"),
    ("harness.generator_late_share", "ratio"),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (ops, spans or probe iterations).
    pub samples: u64,
}

/// The rows of one run, in table order, every value starting at 0.
#[derive(Debug, Clone)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn of(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics(
            table
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    value: 0.0,
                    samples: 0,
                })
                .collect(),
        )
    }

    /// Sets a row.  A name outside the table is a bug in the harness.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let row = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        // JSON has no NaN or infinity; a ratio over nothing reads 0.
        row.value = if value.is_finite() { value } else { 0.0 };
        row.samples = samples;
    }

    pub fn rows(&self) -> &[Metric] {
        &self.0
    }
}
