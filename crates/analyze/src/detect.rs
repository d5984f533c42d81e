//! Phase 2: abstract per-thread walks over the resolved call graph, and
//! the four detectors built on what the walks record.
//!
//! Each abstract thread (the main top-level sequence, plus one thread per
//! `fork-thread`/`create-thread` site) is walked through the control-flow
//! graph of its root code object, descending into resolved callees, with
//! a lock state of **must-held** (intersection at joins) and **may-held**
//! (union at joins) mutex sites.  The walks record lock-order edges,
//! blocking operations, wakers, and barrier arrivals; the detectors then
//! flag lock-order cycles, double acquires, barrier arity mismatches and
//! blocking operations with no reachable waker.

use crate::domain::{Site, SyncKind};
use crate::flow::{CallInfo, Flow};
use crate::{Diagnostic, DiagnosticKind, LockEdge};
use std::collections::{BTreeMap, BTreeSet};
use sting_scheme::bytecode::Op;
use sting_scheme::Span;

/// Arrival / spawn multiplicity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Count {
    Finite(i64),
    Many,
}

impl Count {
    fn add(self, other: Count) -> Count {
        match (self, other) {
            (Count::Finite(a), Count::Finite(b)) => Count::Finite(a.saturating_add(b)),
            _ => Count::Many,
        }
    }
}

/// What kind of waker a blocking operation needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wake {
    /// `channel-send` / `channel-close` for a `channel-recv`.
    Send,
    /// `ts-put` / `ts-spawn` for a `ts-get` / `ts-rd`.
    TsPut,
    /// `fleet-ts-put` for a routed `fleet-ts-get` / `fleet-ts-rd`.
    FleetTsPut,
    /// `stream-attach!` / `stream-close!` for a cursor read.
    Feed,
    /// `semaphore-release` for a `semaphore-acquire`.
    SemRelease,
}

impl Wake {
    fn waker_desc(self) -> &'static str {
        match self {
            Wake::Send => "channel-send or channel-close",
            Wake::TsPut => "ts-put or ts-spawn",
            Wake::FleetTsPut => "fleet-ts-put",
            Wake::Feed => "stream-attach! or stream-close!",
            Wake::SemRelease => "semaphore-release",
        }
    }
}

/// An unconditionally blocking operation observed during a walk.
#[derive(Debug, Clone)]
struct Blocker {
    op: &'static str,
    need: Wake,
    sites: Vec<Site>,
    span: Span,
    thread: usize,
    seq: u64,
    suppress: bool,
}

/// A wake-capable operation observed during a walk.
#[derive(Debug, Clone)]
struct Waker {
    kind: Wake,
    site: Site,
    thread: usize,
    seq: u64,
}

/// One recorded lock-order edge: `held` was (possibly) held while
/// `acquired` was acquired without a timeout.
#[derive(Debug, Clone)]
struct EdgeRec {
    span: Span,
    thread: usize,
}

#[derive(Debug, Clone)]
struct SpawnRec {
    roots: BTreeSet<u32>,
    many: bool,
    span: Span,
}

/// Abstract lock state along one control path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Locks {
    /// Mutex sites held on **every** path reaching here.
    must: BTreeSet<Site>,
    /// Mutex sites held on **some** path reaching here.
    may: BTreeSet<Site>,
}

impl Locks {
    fn join(&mut self, other: &Locks) {
        self.must = self.must.intersection(&other.must).copied().collect();
        self.may.extend(other.may.iter().copied());
    }
}

fn join_opt(acc: &mut Option<Locks>, v: Locks) {
    match acc {
        None => *acc = Some(v),
        Some(a) => a.join(&v),
    }
}

/// The phase-2 walker and detectors.
pub struct Detect<'f, 'p> {
    flow: &'f Flow<'p>,
    /// Code objects on a call-graph cycle: anything they do may repeat.
    cyclic: BTreeSet<u32>,
    threads: Vec<String>,
    seq: u64,
    suppress: bool,
    arrivals: BTreeMap<Site, Count>,
    timed_barriers: BTreeSet<Site>,
    edges: BTreeMap<(Site, Site), EdgeRec>,
    blockers: Vec<Blocker>,
    wakers: Vec<Waker>,
    spawns: BTreeMap<Site, SpawnRec>,
    diags: Vec<Diagnostic>,
}

impl<'f, 'p> Detect<'f, 'p> {
    /// Runs the walks and detectors, producing diagnostics and the
    /// lock-order graph.
    pub fn run(flow: &'f Flow<'p>) -> (Vec<Diagnostic>, Vec<LockEdge>) {
        let mut d = Detect {
            cyclic: cyclic_codes(flow),
            flow,
            threads: Vec::new(),
            seq: 0,
            suppress: false,
            arrivals: BTreeMap::new(),
            timed_barriers: BTreeSet::new(),
            edges: BTreeMap::new(),
            blockers: Vec::new(),
            wakers: Vec::new(),
            spawns: BTreeMap::new(),
            diags: Vec::new(),
        };
        let main = d.thread_id("main".to_string());
        d.walk_roots(main, &d.flow.tops.clone(), false);
        // Walk spawned threads (and threads they spawn) to a fixpoint; a
        // spawn site upgraded to `many` multiplicity is walked again so
        // its barrier arrivals widen.
        let mut done: BTreeMap<Site, bool> = BTreeMap::new();
        loop {
            let pending: Vec<(Site, SpawnRec)> = d
                .spawns
                .iter()
                .filter(|(s, r)| match done.get(*s) {
                    None => true,
                    Some(&walked_many) => !walked_many && r.many,
                })
                .map(|(s, r)| (*s, r.clone()))
                .collect();
            if pending.is_empty() {
                break;
            }
            for (site, rec) in pending {
                done.insert(site, rec.many);
                let id = d.thread_id(format!("thread forked at {}", rec.span));
                for root in rec.roots.clone() {
                    d.walk_roots(id, &[root], rec.many);
                }
            }
        }
        // Closures that escaped into unmodeled code may run anywhere, any
        // number of times: their wakers and lock edges count, but their
        // blocking operations are never flagged.
        d.suppress = true;
        for c in d.flow.shadow.clone() {
            let span = d.flow.program.codes[c as usize].span;
            let id = d.thread_id(format!("escaped closure at {span}"));
            d.walk_roots(id, &[c], true);
        }
        d.suppress = false;
        d.finish();
        let edges = d.export_edges();
        (d.diags, edges)
    }

    fn thread_id(&mut self, name: String) -> usize {
        self.threads.push(name);
        self.threads.len() - 1
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Walks a sequence of root code objects on one abstract thread,
    /// threading the lock state through (a mutex acquired by one
    /// top-level form is still held in the next).
    fn walk_roots(&mut self, thread: usize, roots: &[u32], many: bool) {
        let mut visiting = BTreeSet::new();
        let mut st = Locks::default();
        for &r in roots {
            st = self.walk_code(r, st, many, &mut visiting, thread);
        }
    }

    /// Walks one code object from `entry`, returning the exit lock state.
    /// Recursion is cut at the `visiting` set; code in a call cycle (or
    /// walked under `many`) gets a second pass from its own exit state so
    /// locks leaked across iterations surface as double acquires.
    fn walk_code(
        &mut self,
        c: u32,
        entry: Locks,
        many: bool,
        visiting: &mut BTreeSet<u32>,
        thread: usize,
    ) -> Locks {
        if !visiting.insert(c) {
            return entry;
        }
        let many = many || self.cyclic.contains(&c);
        let mut out = self.walk_cfg(c, entry.clone(), many, visiting, thread);
        if many && out != entry {
            out = self.walk_cfg(c, out.clone(), many, visiting, thread);
        }
        visiting.remove(&c);
        out
    }

    /// Propagates lock state through one code object's (forward-jump)
    /// control-flow graph, applying call effects at call sites.
    fn walk_cfg(
        &mut self,
        c: u32,
        entry: Locks,
        many: bool,
        visiting: &mut BTreeSet<u32>,
        thread: usize,
    ) -> Locks {
        let n = self.flow.program.codes[c as usize].ops.len();
        if n == 0 {
            return entry;
        }
        let mut states: Vec<Option<Locks>> = vec![None; n + 1];
        let mut exit: Option<Locks> = None;
        states[0] = Some(entry.clone());
        for ip in 0..n {
            let Some(cur) = states[ip].clone() else {
                continue;
            };
            let op = self.flow.program.codes[c as usize].ops[ip];
            match op {
                Op::Jump(d) => {
                    if let Some(t) = forward(ip, d) {
                        locks_to(&mut states, t, cur);
                    }
                }
                Op::JumpIfFalse(d) => {
                    if let Some(t) = forward(ip, d) {
                        locks_to(&mut states, t, cur.clone());
                    }
                    locks_to(&mut states, ip + 1, cur);
                }
                Op::Call(_) | Op::CallGlobal(..) => {
                    let next = self.apply_call(c, ip, cur, many, visiting, thread);
                    locks_to(&mut states, ip + 1, next);
                }
                Op::TailCall(_) | Op::TailCallGlobal(..) => {
                    let next = self.apply_call(c, ip, cur, many, visiting, thread);
                    join_opt(&mut exit, next);
                }
                Op::Return => join_opt(&mut exit, cur),
                _ => locks_to(&mut states, ip + 1, cur),
            }
        }
        exit.unwrap_or(entry)
    }

    /// Applies the effect of one resolved call site to the lock state.
    fn apply_call(
        &mut self,
        c: u32,
        ip: usize,
        cur: Locks,
        many: bool,
        visiting: &mut BTreeSet<u32>,
        thread: usize,
    ) -> Locks {
        let site = Site {
            code: c,
            ip: ip as u32,
        };
        let Some(info) = self.flow.calls.get(&site).cloned() else {
            return cur;
        };
        if !info.spawned.is_empty() {
            self.record_spawn(site, &info, many);
        }
        let mut out: Option<Locks> = None;
        for &name in &info.prims {
            let r = self.prim_effect(name, &info, cur.clone(), site, many, visiting, thread);
            join_opt(&mut out, r);
        }
        for &c2 in &info.callees {
            let r = self.walk_code(c2, cur.clone(), many, visiting, thread);
            join_opt(&mut out, r);
        }
        for &c2 in &info.inlined {
            // Called zero or more times by a higher-order primitive.
            let r = self.walk_code(c2, cur.clone(), true, visiting, thread);
            join_opt(&mut out, r);
            join_opt(&mut out, cur.clone());
        }
        out.unwrap_or(cur)
    }

    fn record_spawn(&mut self, site: Site, info: &CallInfo, many: bool) {
        let rec = self.spawns.entry(site).or_insert_with(|| SpawnRec {
            roots: BTreeSet::new(),
            many,
            span: info.span,
        });
        rec.roots.extend(info.spawned.iter().copied());
        rec.many |= many;
    }

    /// Mutex-typed object sites an argument may denote.
    fn sites_of(&self, v: Option<&crate::domain::AVal>, kind: SyncKind) -> Vec<Site> {
        v.map(|a| a.obj_sites())
            .unwrap_or_default()
            .into_iter()
            .filter(|s| self.flow.objects.get(s).map(|o| o.kind) == Some(kind))
            .collect()
    }

    fn acquire(&mut self, targets: &[Site], mut cur: Locks, span: Span, thread: usize) -> Locks {
        for &m in targets {
            for h in cur.may.clone() {
                if h != m {
                    self.edges.entry((h, m)).or_insert(EdgeRec { span, thread });
                }
            }
            if targets.len() == 1 && cur.must.contains(&m) {
                let at = self.flow.objects[&m].span;
                self.diag(
                    DiagnosticKind::DoubleAcquire,
                    span,
                    format!(
                        "mutex created at {at} is acquired while already held by the same \
                         thread; STING mutexes are not reentrant, so this self-deadlocks"
                    ),
                );
            }
            if targets.len() == 1 {
                cur.must.insert(m);
            }
            cur.may.insert(m);
        }
        cur
    }

    fn release(&mut self, targets: &[Site], mut cur: Locks) -> Locks {
        for &m in targets {
            cur.must.remove(&m);
            if targets.len() == 1 {
                cur.may.remove(&m);
            }
        }
        cur
    }

    fn block(&mut self, op: &'static str, need: Wake, sites: Vec<Site>, span: Span, thread: usize) {
        let seq = self.next_seq();
        let suppress = self.suppress;
        self.blockers.push(Blocker {
            op,
            need,
            sites,
            span,
            thread,
            seq,
            suppress,
        });
    }

    fn wake(&mut self, kind: Wake, sites: &[Site], thread: usize) {
        for &site in sites {
            let seq = self.next_seq();
            self.wakers.push(Waker {
                kind,
                site,
                thread,
                seq,
            });
        }
    }

    /// Applies one primitive's concurrency effect.
    #[allow(clippy::too_many_arguments)]
    fn prim_effect(
        &mut self,
        name: &'static str,
        info: &CallInfo,
        mut cur: Locks,
        site: Site,
        many: bool,
        visiting: &mut BTreeSet<u32>,
        thread: usize,
    ) -> Locks {
        let span = info.span;
        let arg0 = info.args.first();
        match name {
            // A constructor makes the site's *newest* instance flow to the
            // caller; any previously-held instance from the same site is a
            // different object, so the site leaves the must set (but stays
            // in may: the old instance may genuinely still be held).
            "make-mutex" | "make-semaphore" | "make-barrier" | "make-channel" | "make-ts"
            | "fleet-ts" | "make-stream" => {
                cur.must.remove(&site);
                cur
            }
            "mutex-acquire" => {
                let targets = self.sites_of(arg0, SyncKind::Mutex);
                if info.argc >= 2 {
                    // Timed acquire cannot deadlock, but holds on success.
                    for m in targets {
                        cur.may.insert(m);
                    }
                    cur
                } else {
                    self.acquire(&targets, cur, span, thread)
                }
            }
            "mutex-release" => {
                let targets = self.sites_of(arg0, SyncKind::Mutex);
                self.release(&targets, cur)
            }
            "with-mutex" => {
                let targets = self.sites_of(arg0, SyncKind::Mutex);
                let held = self.acquire(&targets, cur, span, thread);
                let mut out: Option<Locks> = None;
                for &c2 in &info.oneshot {
                    let r = self.walk_code(c2, held.clone(), many, visiting, thread);
                    join_opt(&mut out, r);
                }
                self.release(&targets, out.unwrap_or(held))
            }
            "%try" => {
                // Body runs once; the handler runs only if the body raises
                // part-way, so it enters at the join of entry and body-exit.
                let body = info.args.first().map(|a| a.closures()).unwrap_or_default();
                let mut body_out: Option<Locks> = None;
                for c2 in &body {
                    let r = self.walk_code(*c2, cur.clone(), many, visiting, thread);
                    join_opt(&mut body_out, r);
                }
                let out = body_out.unwrap_or_else(|| cur.clone());
                let handler: Vec<u32> = info.args.get(1).map(|a| a.closures()).unwrap_or_default();
                let mut h_entry = cur.clone();
                h_entry.join(&out);
                let mut result = out;
                for c2 in handler {
                    let r = self.walk_code(c2, h_entry.clone(), many, visiting, thread);
                    result.join(&r);
                }
                result
            }
            "barrier-arrive" => {
                for b in self.sites_of(arg0, SyncKind::Barrier) {
                    if info.argc >= 2 {
                        self.timed_barriers.insert(b);
                    } else {
                        let add = if many { Count::Many } else { Count::Finite(1) };
                        let cur_count = self.arrivals.get(&b).copied().unwrap_or(Count::Finite(0));
                        self.arrivals.insert(b, cur_count.add(add));
                    }
                }
                cur
            }
            "semaphore-acquire" => {
                if info.argc < 2 {
                    let sites = self.sites_of(arg0, SyncKind::Semaphore);
                    self.block("semaphore-acquire", Wake::SemRelease, sites, span, thread);
                }
                cur
            }
            "semaphore-release" => {
                let sites = self.sites_of(arg0, SyncKind::Semaphore);
                self.wake(Wake::SemRelease, &sites, thread);
                cur
            }
            "channel-recv" => {
                if info.argc < 2 {
                    let sites = self.sites_of(arg0, SyncKind::Channel);
                    self.block("channel-recv", Wake::Send, sites, span, thread);
                }
                cur
            }
            "channel-send" | "channel-close" => {
                let sites = self.sites_of(arg0, SyncKind::Channel);
                self.wake(Wake::Send, &sites, thread);
                cur
            }
            "ts-get" | "ts-rd" => {
                if info.argc < 3 {
                    let sites = self.sites_of(arg0, SyncKind::TupleSpace);
                    let op = if name == "ts-get" { "ts-get" } else { "ts-rd" };
                    self.block(op, Wake::TsPut, sites, span, thread);
                }
                cur
            }
            "ts-put" | "ts-spawn" => {
                let sites = self.sites_of(arg0, SyncKind::TupleSpace);
                self.wake(Wake::TsPut, &sites, thread);
                cur
            }
            // Cross-shard tuple ops (sting_tuple::ShardedSpace): a routed
            // blocking read parks exactly like a local one and can only be
            // woken by a deposit into the sharded space; the timed forms
            // (argc >= 3) are exempt.
            "fleet-ts-get" | "fleet-ts-rd" => {
                if info.argc < 3 {
                    let sites = self.sites_of(arg0, SyncKind::TupleSpace);
                    let op = if name == "fleet-ts-get" {
                        "fleet-ts-get"
                    } else {
                        "fleet-ts-rd"
                    };
                    self.block(op, Wake::FleetTsPut, sites, span, thread);
                }
                cur
            }
            "fleet-ts-put" => {
                let sites = self.sites_of(arg0, SyncKind::TupleSpace);
                self.wake(Wake::FleetTsPut, &sites, thread);
                cur
            }
            "cursor-hd" | "cursor-next!" => {
                let timed = name == "cursor-next!" && info.argc >= 2;
                if !timed {
                    let sites = self.sites_of(arg0, SyncKind::Stream);
                    let op = if name == "cursor-hd" {
                        "cursor-hd"
                    } else {
                        "cursor-next!"
                    };
                    self.block(op, Wake::Feed, sites, span, thread);
                }
                cur
            }
            "stream-attach!" | "stream-close!" => {
                let sites = self.sites_of(arg0, SyncKind::Stream);
                self.wake(Wake::Feed, &sites, thread);
                cur
            }
            _ => cur,
        }
    }

    fn diag(&mut self, kind: DiagnosticKind, span: Span, message: String) {
        if !self
            .diags
            .iter()
            .any(|d| d.kind == kind && d.span == span && d.message == message)
        {
            self.diags.push(Diagnostic {
                kind,
                span,
                message,
            });
        }
    }

    /// Runs the whole-program detectors over what the walks recorded.
    fn finish(&mut self) {
        self.detect_lock_cycles();
        self.detect_barrier_arity();
        self.detect_no_waker();
    }

    /// Lock-order cycles: strongly connected components of the acquire-
    /// order graph with more than one node.
    fn detect_lock_cycles(&mut self) {
        let nodes: BTreeSet<Site> = self.edges.keys().flat_map(|(a, b)| [*a, *b]).collect();
        let mut succ: BTreeMap<Site, BTreeSet<Site>> = BTreeMap::new();
        for (a, b) in self.edges.keys() {
            succ.entry(*a).or_default().insert(*b);
        }
        let reaches = |from: Site, to: Site| -> bool {
            let mut seen = BTreeSet::new();
            let mut stack = vec![from];
            while let Some(n) = stack.pop() {
                if n == to {
                    return true;
                }
                if seen.insert(n) {
                    if let Some(next) = succ.get(&n) {
                        stack.extend(next.iter().copied());
                    }
                }
            }
            false
        };
        // Group mutually-reaching nodes into components.
        let mut reported: BTreeSet<BTreeSet<Site>> = BTreeSet::new();
        for &a in &nodes {
            let comp: BTreeSet<Site> = nodes
                .iter()
                .copied()
                .filter(|&b| a != b && reaches(a, b) && reaches(b, a))
                .chain([a])
                .collect();
            if comp.len() < 2 || !reported.insert(comp.clone()) {
                continue;
            }
            let names: Vec<String> = comp
                .iter()
                .map(|s| format!("mutex created at {}", self.flow.objects[s].span))
                .collect();
            let mut detail: Vec<String> = Vec::new();
            let mut first_span = Span::NONE;
            for ((h, m), rec) in &self.edges {
                if comp.contains(h) && comp.contains(m) {
                    if first_span.is_none() {
                        first_span = rec.span;
                    }
                    detail.push(format!(
                        "{} acquires {} while holding {} at {}",
                        self.threads[rec.thread],
                        self.flow.objects[m].span,
                        self.flow.objects[h].span,
                        rec.span
                    ));
                }
            }
            self.diag(
                DiagnosticKind::LockOrderCycle,
                first_span,
                format!(
                    "potential deadlock: {} are acquired in a cycle ({})",
                    names.join(" and "),
                    detail.join("; ")
                ),
            );
        }
    }

    /// Barrier arity: a barrier with a constant party count whose total
    /// reachable untimed arrivals are finite, non-zero and different.
    fn detect_barrier_arity(&mut self) {
        let mut out = Vec::new();
        for (site, info) in &self.flow.objects {
            if info.kind != SyncKind::Barrier
                || self.flow.escaped.contains(site)
                || self.timed_barriers.contains(site)
            {
                continue;
            }
            let Some(parties) = info.ctor else { continue };
            let Some(Count::Finite(n)) = self.arrivals.get(site).copied() else {
                continue;
            };
            if n == 0 || n == parties {
                continue;
            }
            let verdict = if n < parties {
                "every arriving thread blocks forever"
            } else {
                "a later arrival joins the wrong generation"
            };
            out.push((
                info.span,
                format!(
                    "barrier created at {} expects {parties} parties but only {n} \
                     arrival(s) are reachable; {verdict}",
                    info.span
                ),
            ));
        }
        for (span, msg) in out {
            self.diag(DiagnosticKind::BarrierArity, span, msg);
        }
    }

    /// Blocking operations with no reachable waker anywhere in the
    /// program (on another thread, or earlier on the same thread).
    fn detect_no_waker(&mut self) {
        let mut out = Vec::new();
        'blockers: for b in &self.blockers {
            if b.suppress || b.sites.is_empty() {
                continue;
            }
            if b.sites.iter().any(|s| self.flow.escaped.contains(s)) {
                continue;
            }
            if b.need == Wake::SemRelease {
                // A semaphore acquire only certainly blocks when the
                // semaphore was created with zero permits.
                let all_zero = b
                    .sites
                    .iter()
                    .all(|s| self.flow.objects.get(s).and_then(|o| o.ctor) == Some(0));
                if !all_zero {
                    continue;
                }
            }
            for w in &self.wakers {
                let matches = w.kind == b.need
                    && b.sites.contains(&w.site)
                    && (w.thread != b.thread || w.seq < b.seq);
                if matches {
                    continue 'blockers;
                }
            }
            let objs: Vec<String> = b
                .sites
                .iter()
                .map(|s| {
                    let o = &self.flow.objects[s];
                    format!("{} created at {}", o.kind.noun(), o.span)
                })
                .collect();
            out.push((
                b.span,
                format!(
                    "{} blocks forever: no reachable {} for the {}",
                    b.op,
                    b.need.waker_desc(),
                    objs.join(" or ")
                ),
            ));
        }
        for (span, msg) in out {
            self.diag(DiagnosticKind::NoWaker, span, msg);
        }
    }

    fn export_edges(&self) -> Vec<LockEdge> {
        self.edges
            .iter()
            .map(|((h, m), rec)| LockEdge {
                held: self.flow.objects[h].span,
                acquired: self.flow.objects[m].span,
                at: rec.span,
                thread: self.threads[rec.thread].clone(),
            })
            .collect()
    }
}

/// Propagates `locks` into the state at `target`.
fn locks_to(states: &mut [Option<Locks>], target: usize, locks: Locks) {
    if let Some(state) = states.get_mut(target) {
        match state {
            None => *state = Some(locks),
            Some(existing) => existing.join(&locks),
        }
    }
}

/// Forward-jump target (backward jumps never occur; see the compiler).
fn forward(ip: usize, d: i32) -> Option<usize> {
    usize::try_from(ip as i64 + 1 + i64::from(d))
        .ok()
        .filter(|t| *t > ip)
}

/// Code objects on a same-thread call-graph cycle (direct recursion or
/// mutual recursion, including calls made through higher-order
/// primitives): their bodies may execute many times.
fn cyclic_codes(flow: &Flow<'_>) -> BTreeSet<u32> {
    let mut succ: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for (site, info) in &flow.calls {
        let s = succ.entry(site.code).or_default();
        s.extend(info.callees.iter().copied());
        s.extend(info.inlined.iter().copied());
        s.extend(info.oneshot.iter().copied());
    }
    let mut cyclic = BTreeSet::new();
    for &start in succ.keys() {
        let mut seen = BTreeSet::new();
        let mut stack: Vec<u32> = succ[&start].iter().copied().collect();
        while let Some(n) = stack.pop() {
            if n == start {
                cyclic.insert(start);
                break;
            }
            if seen.insert(n) {
                if let Some(next) = succ.get(&n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
    }
    cyclic
}
