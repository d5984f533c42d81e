//! The blocking protocol shared by every synchronization structure —
//! re-exported from the substrate core.
//!
//! Historically this crate carried its own waiter list; the protocol now
//! lives in [`sting_core::wait`] (generation-tagged wait episodes with a
//! claim token), so blocking is a substrate service shared with
//! tuple-spaces and thread joins: wake-ups are consumed exactly once, a
//! terminated or timed-out waiter is deregistered promptly, and every
//! park can carry a deadline.  See DESIGN.md, "Blocking protocol".
//!
//! Waiters are usually STING threads (parked via the thread controller),
//! but plain OS threads are supported too — they park on
//! `std::thread::park` and are woken by `unpark`, under the same claim
//! token — so synchronization structures remain usable from `main` and
//! from tests.

pub use sting_core::wait::{
    block_until, block_until_deadline, TimedOut, WaitList, Waiter, WakeReason,
};
