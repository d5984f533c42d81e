//! Dynamic values exchanged through the STING substrate.
//!
//! STING's coordination layer traffics in Scheme objects: thread results,
//! tuple fields, stream elements.  This crate is the Rust shape of those
//! objects — an immutable, cheaply-clonable dynamic [`Value`] with interned
//! [`Symbol`]s and opaque [`NativeHandle`]s for runtime objects (threads,
//! tuple-spaces, mutexes) that cross the boundary as first-class data.
//!
//! Structured values are immutable at this level; mutation lives either in
//! the computation language's own heap (`sting-areas`/`sting-scheme`) or in
//! the synchronizing data structures the paper uses for communication
//! (tuple-spaces, streams).  This is what lets values flow between threads
//! without locks.
//!
//! ```
//! use sting_value::{Symbol, Value};
//!
//! let v = Value::list([Value::from(1), Value::from("two"), Value::sym("three")]);
//! assert_eq!(v.to_string(), "(1 \"two\" three)");
//! assert_eq!(v.list_iter().count(), 3);
//! assert_eq!(Symbol::intern("three"), Symbol::intern("three"));
//! ```

#![deny(missing_docs)]

mod symbol;
mod value;

pub use symbol::Symbol;
pub use value::{ListIter, NativeHandle, Value, ValueKind};

/// A `&'static Value` symbol for a literal name, interned on the first
/// call from this call site and read lock-free after that.
///
/// [`Value::sym`] takes the process-wide interner lock and hashes the name
/// on every call; a name a hot path passes again and again (the blocker a
/// parking thread shows) should be interned once with this instead.
///
/// ```
/// use sting_value::{static_sym, Value};
///
/// let blocker: &'static Value = static_sym!("mutex");
/// assert_eq!(*blocker, Value::sym("mutex"));
/// ```
#[macro_export]
macro_rules! static_sym {
    ($name:literal) => {{
        static SYM: ::std::sync::OnceLock<$crate::Value> = ::std::sync::OnceLock::new();
        SYM.get_or_init(|| $crate::Value::sym($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::Value;

    fn blocker() -> &'static Value {
        static_sym!("static-sym-test")
    }

    /// One call site interns once: every later call returns the same
    /// value, without going back to the interner.
    #[test]
    fn static_sym_interns_once_per_call_site() {
        let first = blocker();
        assert_eq!(*first, Value::sym("static-sym-test"));
        for _ in 0..3 {
            assert!(std::ptr::eq(blocker(), first));
        }
    }
}
