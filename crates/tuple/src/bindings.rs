//! What a match hands back: the values of a template's formals.
//!
//! A `get` or `rd` returns its bindings to a caller that reads a few
//! fields and drops them, so [`Bindings`] copies nothing it can share:
//!
//! * when a template's formals are its last fields (`[job ?x ?y]`, the
//!   shape of every template the benchmarks and the Scheme programs use),
//!   the bindings *are* the tail of the matched tuple: the stored tuple's
//!   `Arc`, shared, and where the tail starts;
//! * otherwise (formals among literals, or a field that was a thread and
//!   binds its value) the values are copied into a `Vec`.
//!
//! It derefs to `[Value]`, so `bound[0]`, `bound.len()` and `bound.iter()`
//! read it like the vector it replaces.

use crate::rep::StoredTuple;
use std::ops::Deref;
use sting_value::Value;

/// The values bound by a template's formals, in field order.
#[derive(Clone)]
pub struct Bindings(Repr);

#[derive(Clone)]
enum Repr {
    /// The fields of a stored tuple from `.1` on.
    Tail(StoredTuple, usize),
    /// Copied values.
    Copied(Vec<Value>),
}

impl Bindings {
    /// No bindings (a template without formals).
    pub fn new() -> Bindings {
        Bindings(Repr::Copied(Vec::new()))
    }

    /// The fields of `tuple` from `start` on, shared with the tuple.
    pub(crate) fn tail(tuple: &StoredTuple, start: usize) -> Bindings {
        Bindings(Repr::Tail(tuple.clone(), start))
    }

    /// The bindings as a vector.
    pub fn into_vec(self) -> Vec<Value> {
        match self.0 {
            Repr::Copied(values) => values,
            Repr::Tail(..) => self.to_vec(),
        }
    }
}

impl Default for Bindings {
    fn default() -> Bindings {
        Bindings::new()
    }
}

impl Deref for Bindings {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        match &self.0 {
            Repr::Tail(tuple, start) => &tuple[*start..],
            Repr::Copied(values) => values,
        }
    }
}

impl std::fmt::Debug for Bindings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Bindings {
    fn eq(&self, other: &Bindings) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bindings {}

impl PartialEq<Vec<Value>> for Bindings {
    fn eq(&self, other: &Vec<Value>) -> bool {
        self[..] == other[..]
    }
}

impl<const N: usize> PartialEq<[Value; N]> for Bindings {
    fn eq(&self, other: &[Value; N]) -> bool {
        self[..] == other[..]
    }
}

impl FromIterator<Value> for Bindings {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Bindings {
        Bindings(Repr::Copied(iter.into_iter().collect()))
    }
}

impl From<Vec<Value>> for Bindings {
    fn from(values: Vec<Value>) -> Bindings {
        Bindings(Repr::Copied(values))
    }
}

impl From<Bindings> for Vec<Value> {
    fn from(bindings: Bindings) -> Vec<Value> {
        bindings.into_vec()
    }
}

impl<'a> IntoIterator for &'a Bindings {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> std::slice::Iter<'a, Value> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rep::Stored;

    fn ints(n: i64) -> Vec<Value> {
        (0..n).map(Value::Int).collect()
    }

    #[test]
    fn a_tail_is_the_tuple_itself() {
        let tuple = Stored::new(ints(5));
        let b = Bindings::tail(&tuple, 2);
        assert!(std::ptr::eq(&b[0], &tuple[2]), "shared, not copied");
        assert_eq!(b, ints(5)[2..].to_vec());
        assert_eq!(b.into_vec(), ints(5)[2..].to_vec());
        assert!(Bindings::tail(&tuple, 5).is_empty());
    }

    #[test]
    fn copied_values_keep_their_order() {
        let b: Bindings = ints(5).into_iter().collect();
        assert_eq!(b.len(), 5);
        assert_eq!(b, ints(5));
        assert_eq!(Vec::from(b), ints(5));
    }

    #[test]
    fn empty_bindings_compare_equal_to_an_empty_vector() {
        assert_eq!(Bindings::new(), Vec::<Value>::new());
        assert!(Bindings::new().is_empty());
        assert_eq!(format!("{:?}", Bindings::from(ints(2))), "[0, 1]");
    }
}
