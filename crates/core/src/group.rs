//! Thread groups: "a means of gaining control over a related collection of
//! threads".
//!
//! Every thread carries a group identifier; groups offer the ordinary
//! thread operations en masse (termination, suspension, resumption) plus
//! debugging/monitoring operations (listing members and subgroups, state
//! histograms, genealogy profiling).  A child thread inherits its parent's
//! group unless the [`ThreadBuilder`](crate::builder::ThreadBuilder) says
//! otherwise, so terminating the group of a computation's root thread kills
//! the whole process tree (the paper's `kill-group`).

use crate::error::CoreError;
use crate::state::{StateRequest, ThreadState};
use crate::thread::{Thread, ThreadId};
use crate::vm::VmAnchor;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;
use sting_value::Value;

static NEXT_GROUP_ID: AtomicU64 = AtomicU64::new(1);

/// A group of related threads.
pub struct ThreadGroup {
    id: u64,
    name: Option<String>,
    /// The group's membership, sharded by registering lane and merged on
    /// read: one [`GroupLane`] per VM lane (a VP, or a machine's external
    /// lane) that has live members here — each VM lane finds its own again
    /// (`LaneState::group_lane` in `vm.rs`), so the list is as long as the
    /// machines are wide, not as long as the membership.  The lanes own
    /// the group, not the reverse, so this list is weak; a lane whose
    /// members have all been freed drops out.
    lanes: Mutex<Vec<Weak<GroupLane>>>,
    parent: Weak<ThreadGroup>,
    subgroups: Mutex<Vec<Weak<ThreadGroup>>>,
}

/// One lane's handle on a group: what a member thread actually holds.
///
/// A thread's reference to its group is counted on this lane-local,
/// cache-line-padded record instead of on the group itself, and the
/// thread registers in this lane's member list — so forking into a group
/// writes only lines the forking VP owns, however many VPs fork into the
/// same group (the root group, typically).  The VP caches its lanes (see
/// `LaneState::group_lane` in `vm.rs`) and hands each new member a clone;
/// a child forked on its parent's VM lane into its parent's group clones
/// its parent's, which it recognises by the anchor.
/// The member list is the only thread registry: the machine's
/// ([`crate::vm::Vm::threads`]) is the union of its lanes' group lanes.
#[repr(align(128))] // as `pad::CachePadded`: the `Arc` counts get lines of their own
pub(crate) struct GroupLane {
    group: Arc<ThreadGroup>,
    /// The handle on the machine of the VM lane that opened this group
    /// lane, and the identity of that VM lane: a member reaches its
    /// machine through it (see [`Thread::vm`]), so a fork clones no
    /// handle on the machine of its own.
    anchor: VmAnchor,
    members: Mutex<WeakList<Thread>>,
}

impl GroupLane {
    pub(crate) fn group(&self) -> &Arc<ThreadGroup> {
        &self.group
    }

    pub(crate) fn anchor(&self) -> &VmAnchor {
        &self.anchor
    }

    pub(crate) fn add(&self, thread: &Arc<Thread>) {
        self.members.lock().push(Arc::downgrade(thread));
    }

    /// Appends the live members to `out`.
    pub(crate) fn extend_live(&self, out: &mut Vec<Arc<Thread>>) {
        self.members.lock().extend_live(out);
    }
}

/// A list of weak thread references with amortized-O(1) pruning of dead
/// ones.  A push first drops the dead at the newest end: in fork-join
/// order a thread dies before its older siblings, so the next fork on the
/// lane drops the last `Weak` of the threads that died since and their
/// blocks go back to the allocator at once, not in a burst at a sweep.
/// For every other death order we sweep when the list doubles past the
/// last sweep's survivor count.
#[derive(Debug)]
struct WeakList<T> {
    list: Vec<Weak<T>>,
    prune_at: usize,
}

impl<T> Default for WeakList<T> {
    fn default() -> Self {
        WeakList {
            list: Vec::new(),
            prune_at: 0,
        }
    }
}

impl<T> WeakList<T> {
    fn push(&mut self, w: Weak<T>) {
        while self.list.last().is_some_and(|w| w.strong_count() == 0) {
            self.list.pop();
        }
        if self.list.len() >= self.prune_at.max(64) {
            self.list.retain(|w| w.strong_count() > 0);
            self.prune_at = self.list.len() * 2;
        }
        self.list.push(w);
    }

    fn extend_live(&self, out: &mut Vec<Arc<T>>) {
        out.extend(self.list.iter().filter_map(Weak::upgrade));
    }
}

impl std::fmt::Debug for ThreadGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadGroup")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("live", &self.threads().len())
            .finish()
    }
}

impl ThreadGroup {
    fn new(name: Option<String>, parent: Weak<ThreadGroup>) -> Arc<ThreadGroup> {
        Arc::new(ThreadGroup {
            id: NEXT_GROUP_ID.fetch_add(1, Ordering::Relaxed),
            name,
            lanes: Mutex::new(Vec::new()),
            parent,
            subgroups: Mutex::new(Vec::new()),
        })
    }

    /// Creates a root group (no parent).
    pub fn root(name: Option<String>) -> Arc<ThreadGroup> {
        ThreadGroup::new(name, Weak::new())
    }

    /// Creates a subgroup of `self`.
    pub fn subgroup(self: &Arc<ThreadGroup>, name: Option<String>) -> Arc<ThreadGroup> {
        let g = ThreadGroup::new(name, Arc::downgrade(self));
        self.subgroups.lock().push(Arc::downgrade(&g));
        g
    }

    /// Opens a new membership lane on this group for the VM lane whose
    /// handle on its machine is `anchor`.  Called when a VM lane forks
    /// into a group it has no live members in — so the group-wide lock
    /// here is off the per-thread path, and the sweep below runs over a
    /// list bounded by the number of VM lanes.
    pub(crate) fn open_lane(self: &Arc<ThreadGroup>, anchor: &VmAnchor) -> Arc<GroupLane> {
        let lane = Arc::new(GroupLane {
            group: self.clone(),
            anchor: anchor.clone(),
            members: Mutex::new(WeakList::default()),
        });
        let mut lanes = self.lanes.lock();
        lanes.retain(|w| w.strong_count() > 0);
        lanes.push(Arc::downgrade(&lane));
        lane
    }

    /// The group's unique identifier.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Optional debug name.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// The enclosing group, if any.
    pub fn parent(&self) -> Option<Arc<ThreadGroup>> {
        self.parent.upgrade()
    }

    /// Live subgroups.
    pub fn subgroups(&self) -> Vec<Arc<ThreadGroup>> {
        let mut subs = self.subgroups.lock();
        subs.retain(|w| w.strong_count() > 0);
        subs.iter().filter_map(Weak::upgrade).collect()
    }

    /// Live threads directly in this group (monitoring: "listing all
    /// threads in a given group"), whichever VP registered them.
    pub fn threads(&self) -> Vec<Arc<Thread>> {
        let lanes: Vec<Arc<GroupLane>> =
            self.lanes.lock().iter().filter_map(Weak::upgrade).collect();
        let mut out = Vec::new();
        for lane in lanes {
            lane.extend_live(&mut out);
        }
        out
    }

    /// Live threads in this group and all subgroups, transitively.
    pub fn threads_recursive(&self) -> Vec<Arc<Thread>> {
        let mut out = self.threads();
        for sub in self.subgroups() {
            out.extend(sub.threads_recursive());
        }
        out
    }

    /// Histogram of member states (monitoring aid).
    pub fn state_histogram(&self) -> HashMap<ThreadState, usize> {
        let mut h = HashMap::new();
        for t in self.threads_recursive() {
            *h.entry(t.state()).or_insert(0) += 1;
        }
        h
    }

    /// Requests termination of every live member (the paper's
    /// `kill-group`), with `value` as each member's result.  Already
    /// determined members are skipped; per-thread transition errors are
    /// ignored (the group sweep is best-effort by design).
    pub fn terminate_all(&self, value: Value) {
        for t in self.threads_recursive() {
            let _ = t.request(StateRequest::Terminate(value.clone()));
        }
    }

    /// Requests suspension of every live member.
    pub fn suspend_all(&self, quantum: Option<Duration>) {
        for t in self.threads_recursive() {
            let _ = t.request(StateRequest::Suspend(quantum));
        }
    }

    /// Resumes every blocked/suspended member.
    pub fn resume_all(&self) {
        for t in self.threads_recursive() {
            let _ = t.request(StateRequest::Resume);
        }
    }

    /// Renders the genealogy of `root`'s process tree, one thread per line
    /// (the paper's profiling of "the dynamic unfolding of a process
    /// tree").
    pub fn genealogy(root: &Arc<Thread>) -> String {
        type Children<'a> = HashMap<ThreadId, Vec<&'a Arc<Thread>>>;
        fn walk(t: &Arc<Thread>, children: &Children<'_>, depth: usize, out: &mut String) {
            use std::fmt::Write;
            let _ = writeln!(
                out,
                "{:indent$}{} [{:?}] group={}",
                "",
                t.id(),
                t.state(),
                t.group().id(),
                indent = depth * 2
            );
            for c in children.get(&t.id()).into_iter().flatten() {
                walk(c, children, depth + 1, out);
            }
        }
        // One scan of the registry for the whole tree, not one per node
        // (which is what `Thread::children` would cost).
        let all = root.registry();
        let mut children = Children::new();
        for t in &all {
            if let Some(parent) = t.parent_id() {
                children.entry(parent).or_default().push(t);
            }
        }
        let mut s = String::new();
        walk(root, &children, 0, &mut s);
        s
    }

    /// Number of live members (direct only).
    pub fn len(&self) -> usize {
        self.threads().len()
    }

    /// Whether the group has no live members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Convenience: `kill-group (thread.group T)`.
///
/// # Errors
///
/// Currently infallible; returns `Result` for future compatibility.
pub fn kill_group(thread: &Arc<Thread>, value: Value) -> Result<(), CoreError> {
    thread.group().terminate_all(value);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ThreadBuilder, VmBuilder};

    /// Forks that alternate between two groups go back to the lane they
    /// had: with long-lived members, each group keeps one lane per VM lane
    /// that forked into it (here the VP and the host's external lane), so
    /// neither a fork nor `threads()` pays for the size of the membership.
    #[test]
    fn alternating_groups_reuse_their_lanes() {
        let vm = VmBuilder::new().vps(1).build();
        let groups = [ThreadGroup::root(None), ThreadGroup::root(None)];
        let fork_alternating = {
            let (vm, groups) = (vm.clone(), groups.clone());
            move || -> Vec<Arc<Thread>> {
                (0..200)
                    .map(|i| {
                        ThreadBuilder::new(&vm)
                            .group(groups[i % 2].clone())
                            .delayed(|_cx| 0i64)
                    })
                    .collect()
            }
        };
        let from_host = fork_alternating();
        let from_vp = Arc::new(Mutex::new(Vec::new()));
        let out = from_vp.clone();
        vm.run(move |_cx| {
            *out.lock() = fork_alternating();
            0i64
        })
        .unwrap();
        for g in &groups {
            assert_eq!(g.threads().len(), 200);
            assert_eq!(
                g.lanes.lock().len(),
                2,
                "one lane per VM lane, not per switch"
            );
        }
        drop((from_host, from_vp));
        vm.shutdown();
    }

    /// Forks two children, runs each one's subtree, then lets both die:
    /// the order of a result-parallel tree whose parent touches its
    /// children (depth first, fork-join).
    fn fork_join(list: &mut WeakList<u32>, depth: u32, longest: &mut usize) {
        if depth == 0 {
            return;
        }
        let kids = [(); 2].map(|()| {
            let kid = Arc::new(depth);
            list.push(Arc::downgrade(&kid));
            let below_newest = list.list.iter().rev().nth(1);
            assert!(
                below_newest.is_none_or(|w| w.strong_count() > 0),
                "a push left a dead entry at the newest end"
            );
            *longest = (*longest).max(list.list.len());
            kid
        });
        for _kid in &kids {
            fork_join(list, depth - 1, longest);
        }
    }

    /// In fork-join death order the dead sit at the newest end, so each
    /// push drops them there and frees their blocks at once: the list stays
    /// as long as the live spine (two children a level, plus at most one
    /// finished sibling a level), never growing to the sweep's 64.
    #[test]
    fn a_push_drops_the_dead_at_the_newest_end() {
        const DEPTH: u32 = 10;
        let mut list = WeakList::default();
        let mut longest = 0;
        fork_join(&mut list, DEPTH, &mut longest);
        assert!(
            longest <= 3 * DEPTH as usize,
            "{longest} entries for a tree of depth {DEPTH}"
        );
    }

    /// In FIFO death order the dead sit at the oldest end, where a push does
    /// not look: the doubling sweep still bounds the list at twice its live
    /// members (or 64).
    #[test]
    fn fifo_deaths_stay_bounded_by_the_sweep() {
        const LIVE: usize = 100;
        let mut list = WeakList::default();
        let mut live = std::collections::VecDeque::new();
        for i in 0..10_000u32 {
            let t = Arc::new(i);
            list.push(Arc::downgrade(&t));
            live.push_back(t);
            if live.len() > LIVE {
                live.pop_front();
            }
            assert!(
                list.list.len() <= 2 * (LIVE + 1) + 1,
                "{} entries for {LIVE} live members",
                list.list.len()
            );
        }
    }
}
