//! The physical machine: OS worker threads multiplexing virtual processors.
//!
//! "Virtual processors are multiplexed on physical processors in the same
//! way that threads are multiplexed on virtual processors."  A
//! [`PhysicalMachine`] owns `n` worker OS threads (the physical processors)
//! plus a timekeeper that raises preemption flags and drains timers.
//! Several virtual machines may be attached to one physical machine (they
//! are held weakly — dropping a `Vm` detaches it); their VPs are numbered
//! machine-wide in attach order, and slot `s` is driven by worker
//! `s % workers` (`worker_of`).  A machine with one VM therefore maps VP
//! `i` to worker `i % workers`, and a fleet of single-VP shards spreads
//! over every worker instead of piling onto worker 0.

use crate::vm::Vm;
use parking_lot::{Condvar, Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

struct MachineShared {
    vms: RwLock<Vec<Weak<Vm>>>,
    stop: AtomicBool,
    work_epoch: Mutex<u64>,
    work_cv: Condvar,
    tick: Duration,
}

/// A set of physical processors (OS threads) driving virtual machines.
pub struct PhysicalMachine {
    shared: Arc<MachineShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    processors: usize,
}

/// A VM's handle on the machine that drives it ([`Vm::machine`]).
///
/// [`PhysicalMachine::attach`] replaces it and `detach` clears it, so the
/// machine [`Vm::signal_work`] wakes is always the attached one; and a
/// signal — there is one per remote enqueue — finds it with a single load:
/// no lock taken, no reference counted.
pub(crate) struct Attachment {
    /// The attached machine's wake block; null while detached.  Points
    /// into `held.blocks`.
    signalled: AtomicPtr<MachineShared>,
    held: Mutex<Held>,
}

#[derive(Default)]
struct Held {
    /// The attached machine: a VM keeps its machine alive (`VmBuilder`
    /// makes one per VM by default).
    machine: Option<Arc<PhysicalMachine>>,
    /// Every wake block `signalled` has pointed at.  A signaller that
    /// loaded the pointer just before a re-attach must still find the
    /// block there, so blocks are released only with the VM.  (A block is
    /// an epoch word and a condvar, not the machine's workers: those stop
    /// when the `PhysicalMachine` drops.)
    blocks: Vec<Arc<MachineShared>>,
}

impl Attachment {
    pub(crate) fn new() -> Attachment {
        Attachment {
            signalled: AtomicPtr::new(std::ptr::null_mut()),
            held: Mutex::new(Held::default()),
        }
    }

    /// Points the VM at `machine`.  Returns the machine it displaces, for
    /// the caller to drop outside the lock: the last reference to a
    /// machine joins workers that may be signalling this very VM.
    fn attach(&self, machine: &Arc<PhysicalMachine>) -> Option<Arc<PhysicalMachine>> {
        let mut held = self.held.lock();
        if !held.blocks.iter().any(|b| Arc::ptr_eq(b, &machine.shared)) {
            held.blocks.push(machine.shared.clone());
        }
        self.signalled
            .store(Arc::as_ptr(&machine.shared).cast_mut(), Ordering::Release);
        held.machine.replace(machine.clone())
    }

    /// Clears the handle if it is `machine`'s; returns what it held.
    fn detach(&self, machine: &PhysicalMachine) -> Option<Arc<PhysicalMachine>> {
        let mut held = self.held.lock();
        if !std::ptr::eq(self.signalled.load(Ordering::Relaxed), &*machine.shared) {
            return None;
        }
        self.signalled
            .store(std::ptr::null_mut(), Ordering::Release);
        held.machine.take()
    }

    /// Wakes the attached machine's parked workers, if a machine is
    /// attached.
    pub(crate) fn signal_work(&self) {
        let shared = self.signalled.load(Ordering::Acquire);
        // SAFETY: a non-null `signalled` points at an entry of
        // `held.blocks`, and entries are never removed while `self` lives.
        if let Some(shared) = unsafe { shared.as_ref() } {
            shared.signal_work();
        }
    }
}

impl MachineShared {
    /// Wakes parked workers because new work was enqueued.
    fn signal_work(&self) {
        let mut epoch = self.work_epoch.lock();
        *epoch += 1;
        self.work_cv.notify_all();
    }
}

impl std::fmt::Debug for PhysicalMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysicalMachine")
            .field("processors", &self.processors)
            .field("tick", &self.shared.tick)
            .finish()
    }
}

/// How many threads one VP slice may run before the worker rotates to the
/// next VP; keeps one busy VP from starving its siblings on a worker.
const SLICE_BUDGET: usize = 16;

impl PhysicalMachine {
    /// Creates a machine with `processors` workers and the default 500 µs
    /// preemption tick.
    pub fn new(processors: usize) -> Arc<PhysicalMachine> {
        PhysicalMachine::with_tick(processors, Duration::from_micros(500))
    }

    /// Creates a machine with an explicit preemption `tick`.
    pub fn with_tick(processors: usize, tick: Duration) -> Arc<PhysicalMachine> {
        crate::tc::install_quiet_panic_hook();
        let processors = processors.max(1);
        let shared = Arc::new(MachineShared {
            vms: RwLock::new(Vec::new()),
            stop: AtomicBool::new(false),
            work_epoch: Mutex::new(0),
            work_cv: Condvar::new(),
            tick,
        });
        let mut workers = Vec::with_capacity(processors + 1);
        for i in 0..processors {
            let s = shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("sting-pp-{i}"))
                    .spawn(move || worker_loop(&s, i, processors))
                    .expect("spawn physical processor"),
            );
        }
        let s = shared.clone();
        workers.push(
            std::thread::Builder::new()
                .name("sting-timekeeper".to_string())
                .spawn(move || timekeeper_loop(&s))
                .expect("spawn timekeeper"),
        );
        Arc::new(PhysicalMachine {
            shared,
            workers: Mutex::new(workers),
            processors,
        })
    }

    /// Number of physical processors (workers).
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Attaches `vm` so its VPs are driven by this machine's workers.
    pub fn attach(self: &Arc<PhysicalMachine>, vm: &Arc<Vm>) {
        // The latest attachment is the one `Vm::signal_work` wakes; a VM
        // attached to two machines at once is still driven by the earlier
        // one, but only at that machine's idle-tick cadence.
        drop(vm.machine.attach(self));
        self.shared.vms.write().push(Arc::downgrade(vm));
        self.signal_work();
    }

    /// Detaches `vm`; its threads stop being scheduled.
    pub fn detach(&self, vm: &Arc<Vm>) {
        let target = Arc::downgrade(vm);
        self.shared.vms.write().retain(|w| !w.ptr_eq(&target));
        // Stop being the machine `vm` wakes (and stop being pinned by it).
        drop(vm.machine.detach(self));
    }

    /// Wakes parked workers because new work was enqueued.
    pub(crate) fn signal_work(&self) {
        self.shared.signal_work();
    }

    /// Stops all workers and joins them.  Called automatically on drop.
    ///
    /// If the last reference to the machine is dropped *by one of its own
    /// workers* (possible when a worker holds the final `Arc<Vm>`), that
    /// worker cannot join itself; it is detached instead and exits on its
    /// own once the stop flag is visible.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        self.signal_work();
        let me = std::thread::current().id();
        let mut workers = self.workers.lock();
        for w in workers.drain(..) {
            if w.thread().id() == me {
                continue;
            }
            let _ = w.join();
        }
    }
}

impl Drop for PhysicalMachine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn attached_vms(shared: &MachineShared) -> Vec<Arc<Vm>> {
    shared.vms.read().iter().filter_map(Weak::upgrade).collect()
}

/// The worker that drives machine-wide VP slot `slot` (VPs numbered across
/// the attached VMs in attach order).
fn worker_of(slot: usize, processors: usize) -> usize {
    slot % processors
}

fn worker_loop(shared: &MachineShared, index: usize, processors: usize) {
    // Reused across passes: re-collecting the attachment list every pass
    // costs an allocation per pass per worker, and a fleet multiplies the
    // pass frequency by its shard count.
    let mut vms: Vec<Arc<Vm>> = Vec::new();
    while !shared.stop.load(Ordering::Acquire) {
        let epoch = *shared.work_epoch.lock();
        let mut did_work = false;
        vms.extend(shared.vms.read().iter().filter_map(Weak::upgrade));
        // Machine-wide slot of the current VM's first VP.  Two workers may
        // briefly number a changing attachment list differently; a VP
        // claimed by both is run by one (`run_slice`'s owner guard), one
        // claimed by neither is picked up on the next pass.
        let mut first_slot = 0;
        for vm in &vms {
            let slots = first_slot..first_slot + vm.vps().len();
            first_slot = slots.end;
            if vm.is_stopped() {
                continue;
            }
            vm.process_timers();
            vm.active_slices.fetch_add(1, Ordering::AcqRel);
            for (slot, vp) in slots.zip(vm.vps()) {
                if worker_of(slot, processors) == index && !vm.is_stopped() {
                    did_work |= vp.run_slice(vm, SLICE_BUDGET);
                }
            }
            vm.active_slices.fetch_sub(1, Ordering::AcqRel);
        }
        // Drop the strong refs before parking so a detached VM's teardown
        // is never pinned by an idle worker.
        vms.clear();
        if !did_work {
            let mut g = shared.work_epoch.lock();
            if *g == epoch && !shared.stop.load(Ordering::Acquire) {
                shared
                    .work_cv
                    .wait_for(&mut g, shared.tick.max(Duration::from_micros(200)));
            }
        }
    }
}

fn timekeeper_loop(shared: &MachineShared) {
    while !shared.stop.load(Ordering::Acquire) {
        std::thread::sleep(shared.tick);
        for vm in attached_vms(shared) {
            for vp in vm.vps() {
                vp.preempt_flag().store(true, Ordering::Relaxed);
                crate::trace_event!(
                    vm.tracer(),
                    Some(vp.index()),
                    crate::trace::EventKind::Preempt,
                    0
                );
            }
            if vm.timers().has_pending()
                && vm
                    .timers()
                    .next_deadline()
                    .is_some_and(|d| d <= std::time::Instant::now())
            {
                vm.process_timers();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::fleet::Fleet;
    use crate::{policies, VmBuilder};

    /// The index of the worker (`sting-pp-<n>`) running the caller.
    fn current_worker() -> i64 {
        let thread = std::thread::current();
        let name = thread.name().expect("workers are named");
        name.strip_prefix("sting-pp-")
            .and_then(|n| n.parse().ok())
            .expect("a STING thread runs on a worker")
    }

    #[test]
    fn one_vm_keeps_vp_i_on_worker_i_mod_workers() {
        let vm = VmBuilder::new()
            .vps(4)
            .processors(2)
            .policy(|_| policies::local_fifo().boxed())
            .build();
        for vp in 0..4 {
            let ran_on = vm.fork_on(vp, |_cx| current_worker()).unwrap();
            assert_eq!(
                ran_on.join_blocking().unwrap().as_int(),
                Some(vp as i64 % 2)
            );
        }
        vm.shutdown();
    }

    #[test]
    fn single_vp_shards_spread_over_the_workers() {
        let fleet = Fleet::builder()
            .shards(4)
            .vps_per_shard(1)
            .processors(2)
            .policy(|_, _| policies::local_fifo().boxed())
            .build();
        let mut shards_on = [0; 2];
        for shard in 0..4 {
            let ran_on = fleet.shard(shard).fork_on(0, |_cx| current_worker());
            let worker = ran_on.unwrap().join_blocking().unwrap().as_int().unwrap();
            assert_eq!(worker, shard as i64 % 2, "slots follow attach order");
            shards_on[worker as usize] += 1;
        }
        assert_eq!(shards_on, [2, 2]);
        fleet.shutdown();
    }
}
