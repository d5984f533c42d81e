//! Globally interned symbols.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// An interned identifier, compared and hashed in O(1).
///
/// Symbols are process-global: two [`Symbol::intern`] calls with the same
/// text from any OS or green thread yield equal symbols.
///
/// ```
/// use sting_value::Symbol;
/// let a = Symbol::intern("hello");
/// assert_eq!(&*a.as_str(), "hello");
/// assert_eq!(a, Symbol::intern("hello"));
/// assert_ne!(a, Symbol::intern("world"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    names: Vec<Arc<str>>,
    by_name: HashMap<Arc<str>, u32>,
}

/// Symbols interned so far: [`Symbol::from_index`] checks an index against
/// this instead of locking the interner.  Raised under the interner's lock
/// after the name is in place, so an index read from a symbol made on any
/// thread is below it.
static INTERNED: AtomicU32 = AtomicU32::new(0);

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            names: Vec::new(),
            by_name: HashMap::new(),
        })
    })
}

impl Symbol {
    /// Interns `name`, returning its canonical symbol.
    pub fn intern(name: &str) -> Symbol {
        let mut i = interner().lock();
        if let Some(&id) = i.by_name.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(i.names.len()).expect("symbol table overflow");
        let arc: Arc<str> = Arc::from(name);
        i.names.push(arc.clone());
        i.by_name.insert(arc, id);
        INTERNED.store(id + 1, Ordering::Release);
        Symbol(id)
    }

    /// The symbol's text.
    pub fn as_str(self) -> Arc<str> {
        interner().lock().names[self.0 as usize].clone()
    }

    /// A stable numeric identity, useful for dense side tables.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Reconstructs a symbol from an index previously obtained via
    /// [`Symbol::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index` was never produced by the interner.
    #[inline]
    pub fn from_index(index: u32) -> Symbol {
        assert!(
            index < INTERNED.load(Ordering::Acquire),
            "invalid symbol index {index}"
        );
        Symbol(index)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("foo-bar");
        let b = Symbol::intern("foo-bar");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(Symbol::intern("alpha"), Symbol::intern("beta"));
    }

    #[test]
    fn round_trips_text() {
        let s = Symbol::intern("current-thread");
        assert_eq!(&*s.as_str(), "current-thread");
        assert_eq!(s.to_string(), "current-thread");
    }

    #[test]
    fn from_index_round_trips() {
        let s = Symbol::intern("from-index-round-trip");
        assert_eq!(Symbol::from_index(s.index()), s);
    }

    #[test]
    #[should_panic(expected = "invalid symbol index")]
    fn from_index_rejects_an_index_never_interned() {
        Symbol::from_index(u32::MAX - 1);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Symbol::intern("racy-symbol").index()))
            .collect();
        let ids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
