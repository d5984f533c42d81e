//! The shared global environment.
//!
//! Global bindings hold substrate [`Value`]s, so every thread of a virtual
//! machine sees the same top level (the paper's shared root environment)
//! while thread heaps stay private: a global read converts the value into
//! the reading thread's heap, a write converts out.
//!
//! Each name has one [`Binding`] cell for the life of the environment,
//! holding the value and a *version* that every write advances.  A machine
//! looks the cell up once per program slot and afterwards compares
//! versions: an unchanged version means the value it converted last time
//! is still the binding, so a steady-state reference takes no lock and
//! hashes nothing, and writing one global disturbs readers of that global
//! only (DESIGN.md, "The binding-cell rule").

use crate::bytecode::Program;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use sting_value::{Symbol, Value};

/// One global binding: a value (absent while unbound) and its version.
#[derive(Debug, Default)]
pub struct Binding {
    value: RwLock<Option<Value>>,
    /// Writes so far.  Advanced inside the write lock, after the value is
    /// in place, so a reader that sees version `n` outside the lock knows
    /// the `n`-th value was current at that moment.  The `Release` advance
    /// pairs with the `Acquire` load in [`Binding::version`]; a reader that
    /// finds the version unchanged uses only its own earlier conversion,
    /// and one that finds it changed takes the lock, so nothing but the
    /// counter itself travels through the pair.
    version: AtomicU64,
}

impl Binding {
    /// The number of writes so far; `0` means never bound.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The value and the version it was written at, read together.
    pub fn read(&self) -> Option<(Value, u64)> {
        let value = self.value.read();
        let v = value.as_ref()?.clone();
        Some((v, self.version.load(Ordering::Relaxed)))
    }

    /// Binds `v`, returning the version this write produced.
    pub fn write(&self, v: Value) -> u64 {
        let mut value = self.value.write();
        *value = Some(v);
        self.version.fetch_add(1, Ordering::Release) + 1
    }
}

/// What the machines sharing one environment have done so far: counts for
/// tests and cost budgets (EXPERIMENTS.md E10), not controls.  A machine
/// adds its instructions and words when it is dropped.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Activity {
    /// Machines that have finished: one per top-level form and per thread.
    pub machines: u64,
    /// Bytecode instructions they executed, to within one checkpoint
    /// window each.
    pub instructions: u64,
    /// Words their heaps allocated.
    pub words_allocated: u64,
    /// Global references that a machine's cache could not answer: first
    /// references, references after a write, and every reference to
    /// mutable data (which is copied per reference by design).
    pub slow_reads: u64,
}

/// Shared, thread-safe global bindings.
#[derive(Debug, Default)]
pub struct Globals {
    map: RwLock<HashMap<Symbol, Arc<Binding>>>,
    /// The interpreter's newest program snapshot.  Kept beside the bindings
    /// because a binding is how a machine meets a closure whose code is
    /// newer than the snapshot it was started with.
    program: Mutex<Arc<Program>>,
    machines: AtomicU64,
    instructions: AtomicU64,
    words_allocated: AtomicU64,
    slow_reads: AtomicU64,
}

impl Globals {
    /// An empty global environment.
    pub fn new() -> Globals {
        Globals::default()
    }

    /// The cell for `name`, created unbound on first mention.
    pub fn binding(&self, name: Symbol) -> Arc<Binding> {
        if let Some(b) = self.map.read().get(&name) {
            return b.clone();
        }
        self.map.write().entry(name).or_default().clone()
    }

    /// The cell holding the newest program snapshot.  Snapshots only grow:
    /// code, constant and slot numbers keep their meaning from one to the
    /// next, so a machine may trade its snapshot for this one mid-run.
    pub(crate) fn program(&self) -> &Mutex<Arc<Program>> {
        &self.program
    }

    /// Reads a binding.
    pub fn get(&self, name: Symbol) -> Option<Value> {
        let map = self.map.read();
        map.get(&name)?.read().map(|(v, _)| v)
    }

    /// Writes a binding (creating it if needed).
    pub fn set(&self, name: Symbol, v: Value) {
        self.binding(name).write(v);
    }

    /// Whether `name` is bound.
    pub fn contains(&self, name: Symbol) -> bool {
        self.map.read().get(&name).is_some_and(|b| b.version() > 0)
    }

    /// Number of bound names.
    pub fn len(&self) -> usize {
        self.map.read().values().filter(|b| b.version() > 0).count()
    }

    /// Whether no bindings exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The activity counters, read now.
    pub fn activity(&self) -> Activity {
        Activity {
            machines: self.machines.load(Ordering::Relaxed),
            instructions: self.instructions.load(Ordering::Relaxed),
            words_allocated: self.words_allocated.load(Ordering::Relaxed),
            slow_reads: self.slow_reads.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn count_slow_read(&self) {
        self.slow_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_machine(&self, instructions: u64, words_allocated: u64) {
        self.machines.fetch_add(1, Ordering::Relaxed);
        self.instructions.fetch_add(instructions, Ordering::Relaxed);
        self.words_allocated
            .fetch_add(words_allocated, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_round_trip() {
        let g = Globals::new();
        let x = Symbol::intern("x-global");
        assert!(g.get(x).is_none());
        g.set(x, Value::Int(5));
        assert_eq!(g.get(x), Some(Value::Int(5)));
        g.set(x, Value::Int(6));
        assert_eq!(g.get(x), Some(Value::Int(6)));
        assert!(g.contains(x));
    }

    #[test]
    fn a_write_advances_only_its_own_binding() {
        let g = Globals::new();
        let (x, y) = (Symbol::intern("x-cell"), Symbol::intern("y-cell"));
        let (bx, by) = (g.binding(x), g.binding(y));
        assert_eq!((bx.version(), by.version()), (0, 0));
        assert!(!g.contains(x) && g.is_empty(), "a mention does not bind");
        g.set(x, Value::Int(1));
        g.set(x, Value::Int(2));
        assert_eq!((bx.version(), by.version()), (2, 0));
        assert_eq!(bx.read(), Some((Value::Int(2), 2)));
        assert!(Arc::ptr_eq(&bx, &g.binding(x)), "one cell per name");
    }
}
