//! # sting-tuple — first-class tuple spaces over the STING substrate
//!
//! An optimizing implementation of first-class tuple-spaces (§4.2 of the
//! paper): denotable [`TupleSpace`] objects with `put`/`get`/`rd`, active
//! tuples via [`TupleSpace::spawn`] whose fields are live threads matched
//! by demand (with stealing), the dual hash-table representation with a
//! mutex per bucket, and representation specialization
//! ([`specialize::infer`]) mirroring the paper's type-inference-driven
//! choice of vectors, queues, sets, shared variables, semaphores and bags.
//!
//! ```
//! use sting_core::VmBuilder;
//! use sting_tuple::{formal, lit, Template, TupleSpace};
//! use sting_value::Value;
//!
//! let vm = VmBuilder::new().vps(1).build();
//! let ts = TupleSpace::new();
//! let r = {
//!     let ts = ts.clone();
//!     vm.run(move |_cx| {
//!         ts.put(vec![Value::sym("job"), Value::Int(17)]);
//!         let bound = ts.get(&Template::new(vec![lit(Value::sym("job")), formal()]));
//!         bound[0].clone()
//!     })
//! };
//! assert_eq!(r.unwrap().as_int(), Some(17));
//! vm.shutdown();
//! ```

#![deny(missing_docs)]

pub mod bindings;
pub mod hashed;
pub mod rep;
pub mod sharded;
pub mod space;
pub mod specialize;
pub mod template;

pub use bindings::Bindings;
pub use sharded::ShardedSpace;
pub use space::{SpaceKind, TupleSpace};
pub use specialize::{infer, OpSketch};
pub use template::{formal, lit, Template, TemplateField};
