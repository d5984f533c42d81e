//! Builders for virtual machines and threads.

use crate::error::CoreError;
use crate::group::ThreadGroup;
use crate::machine::PhysicalMachine;
use crate::pm::PolicyManager;
use crate::policies;
use crate::state::ThreadState;
use crate::tc::{self, Cx};
use crate::thread::Thread;
use crate::vm::Vm;
use std::sync::Arc;
use sting_value::Value;

/// Configures and creates a [`Vm`].
///
/// ```
/// use sting_core::{policies, VmBuilder};
///
/// let vm = VmBuilder::new()
///     .vps(2)
///     .policy(|_vp| policies::local_fifo().migrating(true).boxed())
///     .build();
/// let t = vm.fork(|_cx| 21i64 * 2);
/// assert_eq!(t.join_blocking().unwrap().as_int(), Some(42));
/// vm.shutdown();
/// ```
pub struct VmBuilder {
    name: String,
    vps: usize,
    policy: Box<dyn FnMut(usize) -> Box<dyn PolicyManager>>,
    stack_size: usize,
    processors: Option<usize>,
    machine: Option<Arc<PhysicalMachine>>,
    trace: bool,
    trace_capacity: usize,
    metrics_sample: u64,
    io_workers: usize,
    shard: usize,
    tid_source: Option<Arc<std::sync::atomic::AtomicU64>>,
}

/// Everything [`Vm::create`](Vm) needs besides the policy managers,
/// assembled by [`VmBuilder::build`].
pub(crate) struct VmConfig {
    pub(crate) name: String,
    pub(crate) stack_size: usize,
    pub(crate) trace: bool,
    pub(crate) trace_capacity: usize,
    pub(crate) metrics_sample: u64,
    pub(crate) io_workers: usize,
    /// Shard index within a fleet (0 standalone).
    pub(crate) shard: usize,
    /// Shared thread-id counter for fleet-unique ids (`None` standalone).
    pub(crate) tid_source: Option<Arc<std::sync::atomic::AtomicU64>>,
}

impl std::fmt::Debug for VmBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VmBuilder")
            .field("name", &self.name)
            .field("vps", &self.vps)
            .finish()
    }
}

impl Default for VmBuilder {
    fn default() -> VmBuilder {
        VmBuilder::new()
    }
}

impl VmBuilder {
    /// Starts with defaults: one VP per available CPU, migrating FIFO
    /// policy (fair, as the paper's defaults), 512 KiB stacks.
    pub fn new() -> VmBuilder {
        let cpus = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        VmBuilder {
            name: "sting".to_string(),
            vps: cpus,
            policy: Box::new(|_| policies::local_fifo().migrating(true).boxed()),
            stack_size: 512 * 1024,
            processors: None,
            machine: None,
            trace: false,
            trace_capacity: crate::trace::DEFAULT_CAPACITY,
            metrics_sample: crate::metrics::DEFAULT_SAMPLE_PERIOD,
            io_workers: crate::io::DEFAULT_IO_WORKERS,
            shard: 0,
            tid_source: None,
        }
    }

    /// Marks the VM as shard `shard` of a fleet, drawing thread ids from
    /// `tid_source` so ids stay unique fleet-wide.  Used by
    /// [`crate::fleet::FleetBuilder`]; standalone VMs keep the defaults.
    pub fn shard_identity(
        mut self,
        shard: usize,
        tid_source: Arc<std::sync::atomic::AtomicU64>,
    ) -> VmBuilder {
        self.shard = shard;
        self.tid_source = Some(tid_source);
        self
    }

    /// Sets the VM name (diagnostics).
    pub fn name(mut self, name: &str) -> VmBuilder {
        self.name = name.to_string();
        self
    }

    /// Number of virtual processors.
    pub fn vps(mut self, vps: usize) -> VmBuilder {
        self.vps = vps.max(1);
        self
    }

    /// Policy-manager factory, called once per VP with the VP index.
    /// Different VPs may receive different policies.
    pub fn policy(
        mut self,
        factory: impl FnMut(usize) -> Box<dyn PolicyManager> + 'static,
    ) -> VmBuilder {
        self.policy = Box::new(factory);
        self
    }

    /// Stack size for thread TCBs, in bytes.
    pub fn stack_size(mut self, bytes: usize) -> VmBuilder {
        self.stack_size = bytes;
        self
    }

    /// Number of physical processors (worker OS threads) when the builder
    /// creates its own [`PhysicalMachine`]; default: min(vps, CPUs).
    pub fn processors(mut self, processors: usize) -> VmBuilder {
        self.processors = Some(processors.max(1));
        self
    }

    /// Attach to an existing machine instead of creating one (several VMs
    /// can share a physical machine).
    pub fn machine(mut self, machine: Arc<PhysicalMachine>) -> VmBuilder {
        self.machine = Some(machine);
        self
    }

    /// Starts the VM with the scheduler flight recorder already running
    /// (see [`Vm::tracer`](crate::Vm::tracer)); recording can also be
    /// toggled later with [`Tracer::set_enabled`](crate::Tracer::set_enabled).
    /// Latency stamping starts on and is toggled with
    /// [`Metrics::set_enabled`](crate::Metrics::set_enabled).
    pub fn trace(mut self, on: bool) -> VmBuilder {
        self.trace = on;
        self
    }

    /// Per-VP capacity of the flight-recorder rings, in events (default
    /// [`trace::DEFAULT_CAPACITY`](crate::trace::DEFAULT_CAPACITY)).  When
    /// a ring fills, the oldest events are overwritten.
    pub fn trace_capacity(mut self, events: usize) -> VmBuilder {
        self.trace_capacity = events;
        self
    }

    /// Latency-metrics sampling period: one in this many eligible events
    /// takes a timestamp (rounded up to a power of two; default
    /// [`metrics::DEFAULT_SAMPLE_PERIOD`](crate::metrics::DEFAULT_SAMPLE_PERIOD)).
    /// `1` stamps every event — highest fidelity, highest overhead.
    pub fn metrics_sample(mut self, period: u64) -> VmBuilder {
        self.metrics_sample = period;
        self
    }

    /// Cap on the VM's blocking-call worker pool (see
    /// [`io::offload`](crate::io::offload); default
    /// [`io::DEFAULT_IO_WORKERS`](crate::io::DEFAULT_IO_WORKERS)).  The
    /// pool starts empty and grows one worker at a time while offloads are
    /// queued and no worker is idle, so the cap is the ceiling on
    /// *concurrent* blocking calls, not a standing thread count.
    pub fn io_workers(mut self, cap: usize) -> VmBuilder {
        self.io_workers = cap.max(1);
        self
    }

    /// Builds the VM, attaches it to its machine, and returns it running.
    pub fn build(mut self) -> Arc<Vm> {
        let policies: Vec<_> = (0..self.vps).map(|i| (self.policy)(i)).collect();
        let vm = Vm::create(
            policies,
            VmConfig {
                name: self.name,
                stack_size: self.stack_size,
                trace: self.trace,
                trace_capacity: self.trace_capacity,
                metrics_sample: self.metrics_sample,
                io_workers: self.io_workers,
                shard: self.shard,
                tid_source: self.tid_source.take(),
            },
        );
        let machine = self.machine.take().unwrap_or_else(|| {
            let cpus = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            PhysicalMachine::new(self.processors.unwrap_or(cpus.min(self.vps)))
        });
        machine.attach(&vm);
        vm
    }
}

/// Per-thread spawn options (see [`ThreadBuilder`]).
#[derive(Debug)]
pub(crate) struct SpawnOpts {
    pub(crate) name: Option<String>,
    pub(crate) group: Option<Arc<ThreadGroup>>,
    pub(crate) stealable: bool,
    pub(crate) priority: i32,
    pub(crate) quantum: u32,
}

impl Default for SpawnOpts {
    fn default() -> SpawnOpts {
        SpawnOpts {
            name: None,
            group: None,
            stealable: true,
            priority: 0,
            quantum: 1,
        }
    }
}

/// Configures a thread before spawning it.
///
/// ```
/// use sting_core::{ThreadBuilder, VmBuilder};
///
/// let vm = VmBuilder::new().vps(1).build();
/// let t = ThreadBuilder::new(&vm)
///     .name("worker")
///     .priority(3)
///     .stealable(false)
///     .spawn(|_cx| 7i64)
///     .unwrap();
/// assert_eq!(t.join_blocking().unwrap().as_int(), Some(7));
/// vm.shutdown();
/// ```
#[derive(Debug)]
pub struct ThreadBuilder {
    vm: Arc<Vm>,
    opts: SpawnOpts,
    vp: Option<usize>,
}

impl ThreadBuilder {
    /// Starts building a thread on `vm`.
    pub fn new(vm: &Arc<Vm>) -> ThreadBuilder {
        ThreadBuilder {
            vm: vm.clone(),
            opts: SpawnOpts::default(),
            vp: None,
        }
    }

    /// Debug name.
    pub fn name(mut self, name: &str) -> ThreadBuilder {
        self.opts.name = Some(name.to_string());
        self
    }

    /// Thread group (default: the spawning thread's group, else root).
    pub fn group(mut self, group: Arc<ThreadGroup>) -> ThreadBuilder {
        self.opts.group = Some(group);
        self
    }

    /// Whether touching threads may steal this thread's thunk.
    pub fn stealable(mut self, stealable: bool) -> ThreadBuilder {
        self.opts.stealable = stealable;
        self
    }

    /// Scheduling priority hint.
    pub fn priority(mut self, priority: i32) -> ThreadBuilder {
        self.opts.priority = priority;
        self
    }

    /// Quantum per slice, in units of [`QUANTUM`](crate::thread::QUANTUM)
    /// (500 µs; minimum 1).
    pub fn quantum(mut self, units: u32) -> ThreadBuilder {
        self.opts.quantum = units.max(1);
        self
    }

    /// Target VP for the initial placement.
    pub fn on_vp(mut self, vp: usize) -> ThreadBuilder {
        self.vp = Some(vp);
        self
    }

    /// Spawns the thread scheduled for execution.
    ///
    /// # Errors
    ///
    /// [`CoreError::VpOutOfRange`] if [`ThreadBuilder::on_vp`] was out of
    /// range.
    pub fn spawn<F, V>(self, f: F) -> Result<Arc<Thread>, CoreError>
    where
        F: FnOnce(&Cx) -> V + Send + 'static,
        V: Into<Value>,
    {
        if let Some(vp) = self.vp {
            if vp >= self.vm.vp_count() {
                return Err(CoreError::VpOutOfRange {
                    index: vp,
                    len: self.vm.vp_count(),
                });
            }
        }
        Ok(self.vm.spawn_with(
            tc::erase(f),
            ThreadState::Scheduled,
            self.vp,
            Some(self.opts),
        ))
    }

    /// Creates the thread delayed (runs only when demanded).
    pub fn delayed<F, V>(self, f: F) -> Arc<Thread>
    where
        F: FnOnce(&Cx) -> V + Send + 'static,
        V: Into<Value>,
    {
        self.vm
            .spawn_with(tc::erase(f), ThreadState::Delayed, None, Some(self.opts))
    }
}
