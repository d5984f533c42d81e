//! Phase 1: monovariant (0-CFA) value flow over compiled bytecode.
//!
//! Each code object gets **one** abstract frame (its parameter slots) and
//! one abstract result; globals get one abstract slot each.  The analysis
//! simulates every code object's operand stack left to right — the
//! compiler only emits forward jumps inside a code object, so a single
//! pass per object reaches a local fixpoint, and the driver iterates
//! objects until frames, globals, results and call-site records stop
//! changing.  The output is a resolved call graph: for every `Call` /
//! `TailCall` site, which closures and primitives may be invoked and with
//! what abstract arguments.

use crate::domain::{AVal, Atom, ObjInfo, Site, SyncKind};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use sting_scheme::bytecode::{Op, Program};
use sting_scheme::{prims, Span};

/// Synchronization-object constructors and what they build.
pub const CONSTRUCTORS: &[(&str, SyncKind)] = &[
    ("make-mutex", SyncKind::Mutex),
    ("make-semaphore", SyncKind::Semaphore),
    ("make-barrier", SyncKind::Barrier),
    ("make-channel", SyncKind::Channel),
    ("make-ts", SyncKind::TupleSpace),
    ("fleet-ts", SyncKind::TupleSpace),
    ("make-stream", SyncKind::Stream),
];

/// Primitives that invoke closure arguments inline, possibly many times.
const HOF_PRIMS: &[&str] = &["map", "for-each", "apply", "filter"];

/// Primitives that invoke closure arguments inline exactly once (or at
/// most once, for the `%try` handler).
const ONESHOT_PRIMS: &[&str] = &["with-mutex", "%try"];

/// Primitives that spawn their thunk argument on a new thread.
const SPAWN_PRIMS: &[&str] = &["fork-thread", "create-thread"];

/// Primitives whose synchronization-object arguments are fully modeled by
/// the analyzer: passing an object here does **not** make it escape.
/// Objects that reach any other primitive (or an unknown callee) are
/// marked escaped and excluded from the only-flag-when-certain detectors.
const MODELED_PRIMS: &[&str] = &[
    "mutex-acquire",
    "mutex-release",
    "with-mutex",
    "semaphore-acquire",
    "semaphore-release",
    "barrier-arrive",
    "channel-send",
    "channel-recv",
    "channel-try-recv",
    "channel-close",
    "ts-put",
    "ts-get",
    "ts-rd",
    "ts-try-get",
    "ts-try-rd",
    "ts-spawn",
    "fleet-ts-put",
    "fleet-ts-get",
    "fleet-ts-rd",
    "fleet-ts-try-get",
    "fleet-ts-try-rd",
    "stream-attach!",
    "stream-close!",
    "stream-cursor",
    "cursor-hd",
    "cursor-rest",
    "cursor-next!",
    "eof-object?",
    "eq?",
    "eqv?",
    "equal?",
];

/// Everything phase 1 learns about one call site.
#[derive(Debug, Clone, Default)]
pub struct CallInfo {
    /// Argument count at the site.
    pub argc: usize,
    /// Source position of the call.
    pub span: Span,
    /// Closures called directly here.
    pub callees: BTreeSet<u32>,
    /// Closures a higher-order primitive may call here, many times.
    pub inlined: BTreeSet<u32>,
    /// Closures `with-mutex` / `%try` call here exactly once.
    pub oneshot: BTreeSet<u32>,
    /// Closures forked onto a new thread here.
    pub spawned: BTreeSet<u32>,
    /// Primitives callable here.
    pub prims: BTreeSet<&'static str>,
    /// Joined abstract arguments.
    pub args: Vec<AVal>,
}

/// The phase-1 result: resolved calls, object sites and value tables.
pub struct Flow<'p> {
    /// The analyzed program.
    pub program: &'p Program,
    /// Top-level code objects, in evaluation order.
    pub tops: Vec<u32>,
    /// One abstract frame (parameter slots) per code object.
    pub frames: Vec<Vec<AVal>>,
    /// Joined return value per code object.
    pub results: Vec<AVal>,
    /// Abstract global slots.
    pub globals: Vec<AVal>,
    /// Lexical parent code object (from `Closure` emission sites).
    pub parent: Vec<Option<u32>>,
    /// Resolved call sites.
    pub calls: BTreeMap<Site, CallInfo>,
    /// Synchronization-object allocation sites.
    pub objects: BTreeMap<Site, ObjInfo>,
    /// Object sites that reach unmodeled code; detectors skip these.
    pub escaped: BTreeSet<Site>,
    /// Closures that reach unmodeled code; walked as pseudo-threads whose
    /// wakers count but whose blockers are never flagged.
    pub shadow: BTreeSet<u32>,
    prim_by_symbol: HashMap<u32, &'static str>,
    assigned: Vec<bool>,
    changed: bool,
}

impl<'p> Flow<'p> {
    /// Runs the value-flow fixpoint over `tops` of `program`.
    pub fn analyze(program: &'p Program, tops: &[u32]) -> Flow<'p> {
        let prim_by_symbol: HashMap<u32, &'static str> = prims::names()
            .into_iter()
            .map(|n| (sting_value::Symbol::intern(n).index(), n))
            .collect();
        // A global slot holds its primitive only if no code ever assigns it.
        let mut assigned = vec![false; program.global_names.len()];
        for code in &program.codes {
            for op in &code.ops {
                if let Op::SetGlobal(slot) = op {
                    if let Some(a) = assigned.get_mut(*slot as usize) {
                        *a = true;
                    }
                }
            }
        }
        let globals = program
            .global_names
            .iter()
            .zip(&assigned)
            .map(|(sym, assigned)| match prim_by_symbol.get(&sym.index()) {
                Some(name) if !assigned => AVal::atom(Atom::Prim(name)),
                _ => AVal::bot(),
            })
            .collect();
        let frames = program
            .codes
            .iter()
            .map(|c| vec![AVal::bot(); c.arity as usize + usize::from(c.rest)])
            .collect();
        let mut flow = Flow {
            program,
            tops: tops.to_vec(),
            frames,
            results: vec![AVal::bot(); program.codes.len()],
            globals,
            parent: vec![None; program.codes.len()],
            calls: BTreeMap::new(),
            objects: BTreeMap::new(),
            escaped: BTreeSet::new(),
            shadow: BTreeSet::new(),
            prim_by_symbol,
            assigned,
            changed: false,
        };
        loop {
            flow.changed = false;
            for c in 0..program.codes.len() {
                flow.sim_code(c as u32);
            }
            if !flow.changed {
                break;
            }
        }
        flow
    }

    /// The frame `depth` lexical levels above `code`, if known yet.
    fn frame_at(&self, code: u32, depth: u16) -> Option<u32> {
        let mut cur = code;
        for _ in 0..depth {
            cur = self.parent[cur as usize]?;
        }
        Some(cur)
    }

    fn join_frame(&mut self, code: u32, idx: usize, v: &AVal) {
        if let Some(slot) = self.frames[code as usize].get_mut(idx) {
            self.changed |= slot.join(v);
        }
    }

    fn bind_args(&mut self, code: u32, args: &[AVal]) {
        let (arity, rest) = {
            let c = &self.program.codes[code as usize];
            (c.arity as usize, c.rest)
        };
        for (i, a) in args.iter().take(arity).enumerate() {
            let a = a.clone();
            self.join_frame(code, i, &a);
        }
        if rest {
            self.join_frame(code, arity, &AVal::opaque());
        }
    }

    /// Binds every parameter of `code` to `Top` (called from unknown or
    /// higher-order contexts with unknown arguments).
    fn bind_top(&mut self, code: u32) {
        let slots = self.frames[code as usize].len();
        for i in 0..slots {
            self.join_frame(code, i, &AVal::Top);
        }
    }

    /// Simulates the operand stack of one code object.  All jumps the
    /// compiler emits are forward, so one left-to-right pass suffices;
    /// anything flowing into persistent tables marks `changed` and the
    /// driver re-runs the object next round.
    fn sim_code(&mut self, c: u32) {
        let n = self.program.codes[c as usize].ops.len();
        let mut states: Vec<Option<Vec<AVal>>> = vec![None; n + 1];
        states[0] = Some(Vec::new());
        for ip in 0..n {
            let Some(mut stack) = states[ip].clone() else {
                continue;
            };
            let op = self.program.codes[c as usize].ops[ip];
            match op {
                Op::Const(k) => {
                    let atom = self.program.constants[k as usize]
                        .as_int()
                        .map_or(Atom::Opaque, Atom::Int);
                    stack.push(AVal::atom(atom));
                    flow_to(&mut states, ip + 1, stack);
                }
                Op::Int(i) => {
                    stack.push(AVal::atom(Atom::Int(i64::from(i))));
                    flow_to(&mut states, ip + 1, stack);
                }
                Op::True | Op::False | Op::Nil | Op::Unit => {
                    stack.push(AVal::opaque());
                    flow_to(&mut states, ip + 1, stack);
                }
                Op::Local(depth, idx) => {
                    let v = self
                        .frame_at(c, depth)
                        .and_then(|f| self.frames[f as usize].get(idx as usize).cloned())
                        .unwrap_or_else(AVal::bot);
                    stack.push(v);
                    flow_to(&mut states, ip + 1, stack);
                }
                Op::SetLocal(depth, idx) => {
                    let v = stack.pop().unwrap_or_else(AVal::bot);
                    if let Some(f) = self.frame_at(c, depth) {
                        self.join_frame(f, idx as usize, &v);
                    }
                    stack.push(AVal::opaque());
                    flow_to(&mut states, ip + 1, stack);
                }
                Op::Global(slot) => {
                    stack.push(self.globals[slot as usize].clone());
                    flow_to(&mut states, ip + 1, stack);
                }
                Op::SetGlobal(slot) => {
                    let v = stack.pop().unwrap_or_else(AVal::bot);
                    self.changed |= self.globals[slot as usize].join(&v);
                    stack.push(AVal::opaque());
                    flow_to(&mut states, ip + 1, stack);
                }
                Op::Closure(c2) => {
                    if self.parent[c2 as usize] != Some(c) {
                        self.parent[c2 as usize] = Some(c);
                        self.changed = true;
                    }
                    stack.push(AVal::atom(Atom::Closure(c2)));
                    flow_to(&mut states, ip + 1, stack);
                }
                // A call of a global reads as `Global` followed by `Call`.
                Op::Call(argc)
                | Op::TailCall(argc)
                | Op::CallGlobal(_, argc)
                | Op::TailCallGlobal(_, argc) => {
                    let argc = argc as usize;
                    let split = stack.len().saturating_sub(argc);
                    let args: Vec<AVal> = stack.split_off(split);
                    let f = match op {
                        Op::CallGlobal(slot, _) | Op::TailCallGlobal(slot, _) => {
                            self.globals[slot as usize].clone()
                        }
                        _ => stack.pop().unwrap_or_else(AVal::bot),
                    };
                    let result = self.resolve_call(c, ip, &f, &args);
                    if matches!(op, Op::Call(_) | Op::CallGlobal(..)) {
                        stack.push(result);
                        flow_to(&mut states, ip + 1, stack);
                    } else {
                        let r = self.results[c as usize].join(&result);
                        self.changed |= r;
                    }
                }
                Op::Return => {
                    let v = stack.pop().unwrap_or_else(AVal::bot);
                    self.changed |= self.results[c as usize].join(&v);
                }
                Op::Jump(d) => {
                    if let Some(t) = jump_target(ip, d) {
                        flow_to(&mut states, t, stack);
                    }
                }
                Op::JumpIfFalse(d) => {
                    stack.pop();
                    if let Some(t) = jump_target(ip, d) {
                        flow_to(&mut states, t, stack.clone());
                    }
                    flow_to(&mut states, ip + 1, stack);
                }
                Op::Pop => {
                    stack.pop();
                    flow_to(&mut states, ip + 1, stack);
                }
            }
        }
    }

    /// Resolves one call site: records callees/prims/args in the site's
    /// [`CallInfo`] and returns the abstract result.
    fn resolve_call(&mut self, c: u32, ip: usize, f: &AVal, args: &[AVal]) -> AVal {
        let site = Site {
            code: c,
            ip: ip as u32,
        };
        let span = self.program.codes[c as usize]
            .span_at(ip)
            .or(self.program.codes[c as usize].span);
        {
            let info = self.calls.entry(site).or_default();
            info.argc = args.len();
            info.span = span;
            while info.args.len() < args.len() {
                info.args.push(AVal::bot());
            }
        }
        for (i, a) in args.iter().enumerate() {
            // Re-borrow per argument to keep `self` free for helpers.
            let mut slot = self.calls[&site].args[i].clone();
            if slot.join(a) {
                self.changed = true;
                self.calls.get_mut(&site).unwrap().args[i] = slot;
            }
        }
        let mut result = AVal::bot();
        match f {
            AVal::Top => {
                // Unknown callee: arguments leak into unanalyzable code.
                self.escape_all(args);
                result = AVal::Top;
            }
            AVal::Atoms(atoms) => {
                for atom in atoms.clone() {
                    match atom {
                        Atom::Closure(c2) => {
                            if self.calls.get_mut(&site).unwrap().callees.insert(c2) {
                                self.changed = true;
                            }
                            self.bind_args(c2, args);
                            let r = self.results[c2 as usize].clone();
                            result.join(&r);
                        }
                        Atom::Prim(name) => {
                            if self.calls.get_mut(&site).unwrap().prims.insert(name) {
                                self.changed = true;
                            }
                            let r = self.prim_result(site, name, args, span);
                            result.join(&r);
                        }
                        // Calling a non-procedure is a runtime error; it
                        // produces no value worth tracking.
                        Atom::Obj(_) | Atom::Thread(_) | Atom::Int(_) | Atom::Opaque => {
                            result.join(&AVal::opaque());
                        }
                    }
                }
            }
        }
        result
    }

    /// Models one primitive application at `site`.
    fn prim_result(&mut self, site: Site, name: &'static str, args: &[AVal], span: Span) -> AVal {
        if let Some((_, kind)) = CONSTRUCTORS.iter().find(|(n, _)| *n == name) {
            let ctor = match kind {
                SyncKind::Barrier | SyncKind::Semaphore => {
                    args.first().and_then(AVal::as_const_int)
                }
                _ => None,
            };
            match self.objects.get_mut(&site) {
                Some(info) => {
                    // Constructor arguments only narrow monotonically: a
                    // once-known count that widens becomes unknown.
                    if info.ctor != ctor {
                        info.ctor = None;
                    }
                }
                None => {
                    self.objects.insert(
                        site,
                        ObjInfo {
                            kind: *kind,
                            span,
                            ctor,
                        },
                    );
                    self.changed = true;
                }
            }
            return AVal::atom(Atom::Obj(site));
        }
        if SPAWN_PRIMS.contains(&name) {
            for c2 in args.first().map(AVal::closures).unwrap_or_default() {
                if self.calls.get_mut(&site).unwrap().spawned.insert(c2) {
                    self.changed = true;
                }
            }
            return AVal::atom(Atom::Thread(site));
        }
        if HOF_PRIMS.contains(&name) {
            let mut result = AVal::opaque();
            for a in args {
                for c2 in a.closures() {
                    if self.calls.get_mut(&site).unwrap().inlined.insert(c2) {
                        self.changed = true;
                    }
                    self.bind_top(c2);
                    if name == "apply" {
                        let r = self.results[c2 as usize].clone();
                        result.join(&r);
                    }
                }
            }
            return result;
        }
        if ONESHOT_PRIMS.contains(&name) {
            // with-mutex: (with-mutex m thunk); %try: (%try body handler).
            let mut result = AVal::bot();
            let closure_args: &[AVal] = if name == "with-mutex" {
                args.get(1..).unwrap_or(&[])
            } else {
                args
            };
            for a in closure_args {
                for c2 in a.closures() {
                    if self.calls.get_mut(&site).unwrap().oneshot.insert(c2) {
                        self.changed = true;
                    }
                    self.bind_top(c2);
                    let r = self.results[c2 as usize].clone();
                    result.join(&r);
                }
            }
            if result.is_bot() {
                result = AVal::opaque();
            }
            return result;
        }
        match name {
            // The result aliases the argument: a cursor stands for its
            // stream, `thread-run` returns the thread it starts.
            "stream-cursor" | "cursor-rest" | "thread-run" => {
                args.first().cloned().unwrap_or_else(AVal::opaque)
            }
            _ => {
                if !MODELED_PRIMS.contains(&name) {
                    self.escape_all(args);
                }
                AVal::opaque()
            }
        }
    }

    /// Marks object arguments escaped and closure arguments shadow-walked:
    /// they reached code the analyzer does not model.
    fn escape_all(&mut self, args: &[AVal]) {
        for a in args {
            for s in a.obj_sites() {
                self.changed |= self.escaped.insert(s);
            }
            for c2 in a.closures() {
                if self.shadow.insert(c2) {
                    self.changed = true;
                }
                self.bind_top(c2);
            }
        }
    }

    /// Whether `slot` names a primitive still bound to its default.
    pub fn prim_global(&self, slot: u32) -> Option<&'static str> {
        if *self.assigned.get(slot as usize)? {
            return None;
        }
        self.prim_by_symbol
            .get(&self.program.global_names.get(slot as usize)?.index())
            .copied()
    }
}

/// Forward-jump target, or `None` for the backward jumps the compiler
/// never emits (loops are compiled to tail calls).
fn jump_target(ip: usize, d: i32) -> Option<usize> {
    usize::try_from(ip as i64 + 1 + i64::from(d))
        .ok()
        .filter(|t| *t > ip)
}

/// Joins `stack` into the state at `target` (element-wise, aligned at the
/// top of the stack in the defensive case of a height mismatch).
fn flow_to(states: &mut [Option<Vec<AVal>>], target: usize, stack: Vec<AVal>) {
    let Some(state) = states.get_mut(target) else {
        return;
    };
    match state {
        None => *state = Some(stack),
        Some(existing) => {
            let off = existing.len().saturating_sub(stack.len());
            for (slot, v) in existing.iter_mut().skip(off).zip(stack.iter()) {
                slot.join(v);
            }
        }
    }
}
