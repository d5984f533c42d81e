//! Tuples and templates.
//!
//! A tuple is a vector of substrate values; fields may be live threads
//! (deposited by `spawn`), in which case matching *demands* the thread's
//! value — stealing it onto the matcher's TCB when legal, exactly the
//! quasi-demand-driven behaviour of §4.2.
//!
//! A template is a tuple where some fields are *formals* (`?x` in the
//! paper's syntax): they match any field and acquire its value as a
//! binding.

use crate::bindings::Bindings;
use crate::hashed::hash_key;
use crate::rep::StoredTuple;
use std::sync::{Arc, OnceLock};
use sting_core::tc;
use sting_core::thread::Thread;
use sting_value::Value;

/// One field of a [`Template`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateField {
    /// A literal: matches a field structurally equal to the value.
    Lit(Value),
    /// A formal (`?x`): matches anything, binding the field's value.
    Formal,
}

/// Shorthand for a literal template field.
pub fn lit(v: impl Into<Value>) -> TemplateField {
    TemplateField::Lit(v.into())
}

/// Shorthand for a formal template field.
pub fn formal() -> TemplateField {
    TemplateField::Formal
}

/// A matching pattern for tuple-space reads and removals.
///
/// [`Template::new`] keeps the caller's vector, so building one allocates
/// nothing more.  Clones share the fields: the first clone of a template
/// copies them once into a shared block the template keeps, and every
/// later clone — a blocked reader's registration is one — costs a
/// reference count.
pub struct Template {
    fields: Fields,
    /// The `(arity, field₀)` index key when field₀ is a literal, hashed
    /// once here so no probe hashes again.
    key: Option<u64>,
    /// Where the formals start when they are the template's last fields:
    /// a passive tuple's bindings are then its tail, shared.
    tail: Option<usize>,
}

enum Fields {
    /// The vector the template was built from, and the shared copy its
    /// clones read, made at the first clone.
    Owned(Vec<TemplateField>, OnceLock<Arc<[TemplateField]>>),
    /// A clone's view of the shared copy.
    Shared(Arc<[TemplateField]>),
}

impl Clone for Template {
    fn clone(&self) -> Template {
        let shared = match &self.fields {
            Fields::Owned(fields, shared) => shared.get_or_init(|| fields[..].into()).clone(),
            Fields::Shared(shared) => shared.clone(),
        };
        Template {
            fields: Fields::Shared(shared),
            key: self.key,
            tail: self.tail,
        }
    }
}

impl PartialEq for Template {
    fn eq(&self, other: &Template) -> bool {
        self.fields() == other.fields()
    }
}

impl Eq for Template {}

impl std::fmt::Debug for Template {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Template")
            .field("fields", &self.fields())
            .finish()
    }
}

/// What matching a template against a stored tuple *without demanding any
/// thread* came to ([`Template::match_ready`]).
pub(crate) enum Ready {
    /// Every field is settled and the tuple matches: the bindings.
    Hit(Bindings),
    /// A settled field already rules the tuple out.
    Miss,
    /// The fields settled so far agree, and the next one is a thread that
    /// has not determined: only a demand can tell.
    Pending,
}

impl Template {
    /// Builds a template from fields (see [`lit`] and [`formal`]).
    pub fn new(fields: Vec<TemplateField>) -> Template {
        let key = match fields.first() {
            Some(TemplateField::Lit(v)) => Some(hash_key(fields.len(), Some(v))),
            _ => None,
        };
        let is_formal = |f: &TemplateField| matches!(f, TemplateField::Formal);
        let first_formal = fields.iter().position(is_formal).unwrap_or(fields.len());
        let tail = fields[first_formal..]
            .iter()
            .all(is_formal)
            .then_some(first_formal);
        Template {
            fields: Fields::Owned(fields, OnceLock::new()),
            key,
            tail,
        }
    }

    /// A template of `n` formals (matches any tuple of arity `n`).
    pub fn any(n: usize) -> Template {
        Template::new((0..n).map(|_| TemplateField::Formal).collect())
    }

    /// The index key: `Some` iff the first field is a literal.
    pub(crate) fn key(&self) -> Option<u64> {
        self.key
    }

    /// The template's arity.
    pub fn arity(&self) -> usize {
        self.fields().len()
    }

    /// The fields.
    pub fn fields(&self) -> &[TemplateField] {
        match &self.fields {
            Fields::Owned(fields, _) => fields,
            Fields::Shared(fields) => fields,
        }
    }

    /// Position and value of the first literal field, if any — the hash
    /// key the space uses ("processes ... first hash on their non-formal
    /// tuple elements").
    pub fn hash_key(&self) -> Option<(usize, &Value)> {
        self.fields().iter().enumerate().find_map(|(i, f)| match f {
            TemplateField::Lit(v) => Some((i, v)),
            TemplateField::Formal => None,
        })
    }

    /// Cheap pre-check that never demands thread values: could `tuple`
    /// possibly match?  Used to filter candidates before the (potentially
    /// blocking) full match.
    pub fn may_match(&self, tuple: &[Value]) -> bool {
        let fields = self.fields();
        if tuple.len() != fields.len() {
            return false;
        }
        fields.iter().zip(tuple).all(|(f, v)| match f {
            TemplateField::Formal => true,
            TemplateField::Lit(want) => {
                // A live thread field could evaluate to anything.
                want == v || is_thread(v)
            }
        })
    }

    /// The match a holder of a representation lock may run: it reads the
    /// result of a thread field that has determined, and stops at
    /// [`Ready::Pending`] instead of demanding one that has not (a demand
    /// may run the thread's thunk on this stack, or park).  `has_threads`
    /// is the tuple's deposit-time flag; a passive tuple is compared
    /// without looking for threads at all.
    pub(crate) fn match_ready(&self, tuple: &StoredTuple, has_threads: bool) -> Ready {
        let fields = self.fields();
        if !has_threads {
            if !self.may_match(tuple) {
                return Ready::Miss;
            }
            if let Some(start) = self.tail {
                return Ready::Hit(Bindings::tail(tuple, start));
            }
            let formals = fields.iter().zip(tuple.iter());
            return Ready::Hit(
                formals
                    .filter(|(f, _)| matches!(f, TemplateField::Formal))
                    .map(|(_, v)| v.clone())
                    .collect(),
            );
        }
        if tuple.len() != fields.len() {
            return Ready::Miss;
        }
        let mut bindings = Vec::new();
        for (f, v) in fields.iter().zip(tuple.iter()) {
            let settled = match thread_of(v) {
                None => v.clone(),
                Some(t) => match t.result() {
                    None => return Ready::Pending,
                    Some(Ok(value)) => value,
                    Some(Err(_)) => return Ready::Miss,
                },
            };
            match f {
                TemplateField::Formal => bindings.push(settled),
                TemplateField::Lit(want) if *want == settled => {}
                TemplateField::Lit(_) => return Ready::Miss,
            }
        }
        Ready::Hit(bindings.into())
    }

    /// Full match: demands thread-valued fields (stealing claimable ones,
    /// blocking on evaluating ones) and compares literals.  Returns the
    /// bindings of the formals, in order, on success.
    ///
    /// A thread field that determined with an exception never matches.
    pub fn match_tuple(&self, tuple: &[Value]) -> Option<Bindings> {
        let fields = self.fields();
        if tuple.len() != fields.len() {
            return None;
        }
        let mut bindings = Vec::new();
        for (f, v) in fields.iter().zip(tuple) {
            let resolved = resolve_field(v)?;
            match f {
                TemplateField::Formal => bindings.push(resolved),
                TemplateField::Lit(want) => {
                    if *want != resolved {
                        return None;
                    }
                }
            }
        }
        Some(bindings.into())
    }
}

pub(crate) fn is_thread(v: &Value) -> bool {
    v.as_native().is_some_and(|h| h.tag() == "thread")
}

fn thread_of(v: &Value) -> Option<Arc<Thread>> {
    is_thread(v).then(|| v.native_as::<Thread>().expect("tagged thread"))
}

/// Demands the value of a thread field ("the matching procedure applies
/// thread-value when it encounters a thread in a tuple"); passes other
/// values through.  `None` if the thread determined exceptionally.
fn resolve_field(v: &Value) -> Option<Value> {
    match thread_of(v) {
        Some(t) => tc::touch(&t).ok(),
        None => Some(v.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_and_formal_matching() {
        let t = Template::new(vec![lit("job"), formal()]);
        let bound = t.match_tuple(&[Value::from("job"), Value::Int(3)]).unwrap();
        assert_eq!(bound, vec![Value::Int(3)]);
        assert!(t
            .match_tuple(&[Value::from("ack"), Value::Int(3)])
            .is_none());
        assert!(t.match_tuple(&[Value::from("job")]).is_none(), "arity");
    }

    #[test]
    fn any_matches_by_arity() {
        let t = Template::any(2);
        assert!(t.match_tuple(&[Value::Int(1), Value::Int(2)]).is_some());
        assert!(t.match_tuple(&[Value::Int(1)]).is_none());
    }

    #[test]
    fn hash_key_is_first_literal() {
        let t = Template::new(vec![formal(), lit(5), lit(6)]);
        let (i, v) = t.hash_key().unwrap();
        assert_eq!(i, 1);
        assert_eq!(v, &Value::Int(5));
        assert!(Template::any(3).hash_key().is_none());
    }

    #[test]
    fn only_trailing_formals_bind_a_shared_tail() {
        let tail = |fields: Vec<TemplateField>| Template::new(fields).tail;
        assert_eq!(tail(vec![lit(1), formal(), formal()]), Some(1));
        assert_eq!(tail(vec![lit(1), lit(2)]), Some(2), "no formals: empty");
        assert_eq!(Template::any(2).tail, Some(0));
        assert_eq!(tail(vec![formal(), lit(1)]), None);
        assert_eq!(tail(vec![lit(1), formal(), lit(2), formal()]), None);
    }

    #[test]
    fn clones_share_one_copy_of_the_fields() {
        let t = Template::new(vec![lit(1), formal()]);
        let (a, b) = (t.clone(), t.clone());
        assert!(std::ptr::eq(a.fields(), b.fields()), "one copy for both");
        assert!(std::ptr::eq(a.clone().fields(), a.fields()));
        assert_eq!((a.key(), a), (t.key(), t));
    }

    #[test]
    fn may_match_is_conservative() {
        let t = Template::new(vec![lit(1)]);
        assert!(t.may_match(&[Value::Int(1)]));
        assert!(!t.may_match(&[Value::Int(2)]));
        assert!(!t.may_match(&[Value::Int(1), Value::Int(1)]));
    }
}
