//! # sting-core — the STING coordination substrate
//!
//! A Rust reproduction of the substrate from *A Customizable Substrate for
//! Concurrent Languages* (Jagannathan & Philbin, PLDI 1992): first-class
//! lightweight threads multiplexed on first-class virtual processors, whose
//! scheduling, placement and migration behaviour is supplied by replaceable
//! [policy managers](pm::PolicyManager) — concurrency management entirely
//! in library code, with no operating-system involvement.
//!
//! ## Shape of the system
//!
//! * [`Thread`] — a small passive object (thunk + state + waiters +
//!   genealogy).  Expensive dynamic state (a stack) lives in a
//!   [`Tcb`](tcb::Tcb) allocated only when the thread starts evaluating and
//!   recycled when it determines.
//! * [`vp::Vp`] — a virtual processor: the thread-controller loop plus
//!   a [`pm::PolicyManager`].  Different VPs of one machine
//!   can run different policies.  The shipped per-VP policies hand their
//!   ready queue to the substrate, which keeps it on the lock-free
//!   [`deque`] tier (the scheduler fast path); a manager that keeps its
//!   own queue is called under the policy lock (see
//!   [`pm::PolicyManager::queue_kind`]).
//! * [`Vm`] — a set of VPs sharing counters, timers and a root
//!   [`ThreadGroup`].
//! * [`machine::PhysicalMachine`] — OS worker threads
//!   multiplexing the VPs of one or more VMs; nothing else, no clock
//!   thread.
//! * [`tc`] — the thread controller operations (`fork-thread`,
//!   `thread-wait`, `yield-processor`, …) including [`tc::touch`] with the
//!   paper's *thread stealing* optimization.
//!
//! ## Quick start
//!
//! ```
//! use sting_core::VmBuilder;
//!
//! let vm = VmBuilder::new().vps(2).build();
//! let t = vm.fork(|cx| {
//!     let inner = cx.fork(|_cx| 20i64);
//!     22 + cx.wait(&inner).unwrap().as_int().unwrap()
//! });
//! assert_eq!(t.join_blocking().unwrap().as_int(), Some(42));
//! vm.shutdown();
//! ```

#![deny(missing_docs)]

pub mod audit;
pub mod builder;
pub mod counters;
pub mod deque;
pub mod error;
pub mod fleet;
pub mod group;
pub mod io;
pub mod machine;
pub mod metrics;
pub mod net;
mod pad;
pub mod pm;
pub mod policies;
mod probe;
pub mod reactor;
pub mod state;
pub mod sys;
pub mod tc;
pub mod tcb;
pub mod thread;
pub mod timers;
mod tls;
pub mod topology;
pub mod trace;
pub mod vm;
pub mod vp;
pub mod wait;

pub use audit::{AuditReport, Finding, FindingKind};
pub use builder::{ThreadBuilder, VmBuilder};
pub use counters::{CounterSnapshot, Counters};
pub use error::CoreError;
pub use fleet::{Fleet, FleetBuilder};
pub use group::ThreadGroup;
pub use machine::PhysicalMachine;
pub use metrics::{Histogram, HistogramSnapshot, Metrics, MetricsSnapshot};
pub use pm::{BandMap, DequeCaps, EnqueueState, PolicyManager, QueueKind, RunItem};
pub use reactor::IoStats;
pub use state::{StateRequest, ThreadState};
pub use tc::Cx;
pub use thread::{JoinNode, Thread, ThreadId, ThreadResult, Thunk, TryThunk, QUANTUM};
pub use timers::TimerId;
pub use topology::Topology;
pub use trace::{EventKind, TraceEvent, Tracer};
pub use vm::Vm;
pub use vp::Vp;
pub use wait::{TimedOut, WaitList, Waiter, WakeBatch, WakeReason};
