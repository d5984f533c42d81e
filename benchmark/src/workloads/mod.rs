//! The four workloads.  Each builds a *world* (VM or fleet, preloaded
//! state, connections, server threads), drives it in a closed loop, checks
//! every op's result, and reports the per-layer numbers only it can see.

pub mod echo_server;
pub mod fork_tree;
pub mod scheme_mix;
pub mod tuple_farm;

use crate::harness::{OpRecord, Stop, Window};
use crate::metrics::Metrics;
use crate::spans::{Span, Spans};
use std::path::PathBuf;
use std::sync::Arc;
use sting::core::Vm;

pub const NAMES: [&str; 4] = ["fork_tree", "tuple_farm", "echo_server", "scheme_mix"];

/// What a world is built from.
pub struct Config {
    pub seed: u64,
    /// Directory holding `scheme_mix`'s `*.scm` and `*.expected` files.
    pub programs: PathBuf,
    /// The span buffer of a traced run; `None` when tracing is off for the
    /// whole process.
    pub spans: Option<Arc<Spans>>,
}

pub trait World: Sized {
    /// `peak_rss_mb` is read when this many ops of the timed window have
    /// completed: memory at a fixed amount of work, so that a faster system
    /// is not charged for having done more by the time the clock stops.
    /// About a tenth of what a 20-second window completes at the commit
    /// that defined the benchmark, so that a much slower box still gets
    /// there.
    const RSS_AFTER_OPS: u64;

    /// Generates the inputs from `config.seed`, builds the world and runs
    /// the fixed warm-up ops; everything `setup_s` covers.
    fn build(config: &Config) -> Result<Self, String>;

    /// Hash of the generated input sequence.
    fn input_hash(&self) -> u64;

    /// The VMs whose public counters describe this world.
    fn vms(&self) -> Vec<Arc<Vm>>;

    /// Drives the closed loop until `stop`; with `traced`, the calls of one
    /// op in [`World::spanned_one_in`] into a layer are wrapped in spans.
    /// Returns every op attempted.
    fn run(&self, stop: Stop, traced: bool) -> Vec<OpRecord>;

    /// Of the ops in a traced window, one in this many is spanned; the
    /// others run exactly the untraced code.
    fn spanned_one_in(&self) -> u64 {
        1
    }

    /// Per-layer numbers taken while the world was built.
    fn setup_metrics(&self, _out: &mut Metrics) {}

    /// Per-layer numbers read off the traced window.
    fn traced_metrics(&self, traced: &Window, spans: &[Option<Span>], out: &mut Metrics);

    /// Highest number of pending timers seen; sampled by the harness while
    /// a window runs.
    fn timers_pending(&self) -> usize {
        self.vms().iter().map(|vm| vm.timers().len()).sum()
    }

    /// Stops the world and checks what must hold once it is quiet.
    fn teardown(self) -> Result<(), String>;
}
