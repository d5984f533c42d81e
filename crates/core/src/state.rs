//! The thread state machine.
//!
//! The paper's Section 3.1 names five "static" states — *delayed*,
//! *scheduled*, *evaluating*, *stolen* and *determined* — plus the dynamic
//! TCB-level conditions *blocked* and *suspended* that an evaluating thread
//! may be in.  We flatten both levels into one observable [`ThreadState`];
//! the TCB is present exactly in the `Evaluating`/`Blocked`/`Suspended`
//! states.
//!
//! State changes requested by *other* threads are not applied directly:
//! they are recorded as [`StateRequest`]s and honoured by the target at its
//! next thread-controller entry — "only threads can actually effect a
//! change to their own state", which is what lets a TCB transition without
//! acquiring locks in the paper.  Requests that would violate the
//! transition relation (checked by [`ThreadState::can_request`]) are
//! rejected at record time.
//!
//! ## The state word
//!
//! A thread's state lives in one atomic word beside its flag bits, and
//! every transition on the fork → touch → determine path is one
//! read-modify-write on it (`StateWord`): scheduling a delayed thread,
//! claiming a thunk (dispatch, steal, or a passive terminate that
//! discards it), and determining.  The thunk and the result sit in cells
//! only the winner of the transition writes.  The flags say when a
//! determination must take the thread's lock after all: a join node is
//! registered (by a STING thread or an OS thread, alike), or a request is
//! queued.  Under `--cfg sting_check` the word's atomic is the model
//! checker's shim and the type is exported, so `ci.sh check` explores this
//! exact source (`crates/core/tests/model_thread_state.rs`).

use sting_value::Value;

#[cfg(sting_check)]
pub use word::{StateWord, DETERMINING, REQUESTS, STATE, WAITERS};
#[cfg(not(sting_check))]
pub(crate) use word::{StateWord, REQUESTS, WAITERS};

mod word {
    use super::ThreadState;
    #[cfg(not(sting_check))]
    use std::sync::atomic::{AtomicU64, Ordering};
    #[cfg(sting_check)]
    use sting_check::atomic::{AtomicU64, Ordering};

    /// The bits holding the [`ThreadState`].
    pub const STATE: u64 = 0b111;
    /// A determination is under way: its winner is writing the result, and
    /// the thunk can no longer be claimed.
    pub const DETERMINING: u64 = 1 << 3;
    /// A join node is registered: the determiner completes the list.
    pub const WAITERS: u64 = 1 << 4;
    /// A state request is queued for the thread to apply.
    pub const REQUESTS: u64 = 1 << 5;

    fn state_of(word: u64) -> ThreadState {
        ThreadState::from_u8((word & STATE) as u8)
    }

    fn with_state(word: u64, state: ThreadState) -> u64 {
        word & !STATE | state as u64
    }

    /// A thread's state plus its flag bits, in one word (see the module
    /// docs).  Every write is a read-modify-write, the ones made under the
    /// thread's lock included, so a flag set without the lock is never
    /// lost.
    #[derive(Debug)]
    pub struct StateWord {
        word: AtomicU64,
    }

    impl StateWord {
        /// A word in `state` with no flags.
        pub fn new(state: ThreadState) -> StateWord {
            StateWord {
                word: AtomicU64::new(state as u64),
            }
        }

        /// The current state (a racy snapshot).
        pub fn state(&self) -> ThreadState {
            state_of(self.word.load(Ordering::Acquire))
        }

        /// Whether `flag` is set.
        pub fn has(&self, flag: u64) -> bool {
            self.word.load(Ordering::Acquire) & flag != 0
        }

        /// Applies `f` to the word in one CAS loop: `Ok(previous)` once
        /// `f`'s value is installed, `Err(current)` as soon as `f` declines.
        fn update(&self, f: impl Fn(u64) -> Option<u64>) -> Result<u64, u64> {
            let mut cur = self.word.load(Ordering::Acquire);
            loop {
                let next = f(cur).ok_or(cur)?;
                match self.word.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return Ok(cur),
                    Err(now) => cur = now,
                }
            }
        }

        /// Moves the state from one `from` accepts to `to`, unless a
        /// determination has begun (when `claiming`) or is complete.
        fn shift(
            &self,
            from: impl Fn(ThreadState) -> bool,
            to: ThreadState,
            claiming: bool,
        ) -> bool {
            self.update(|w| {
                let ok = from(state_of(w)) && !(claiming && w & DETERMINING != 0);
                ok.then(|| with_state(w, to))
            })
            .is_ok()
        }

        /// `Delayed → Scheduled`.  `false` if the thread is no longer
        /// delayed, or a passive terminate has claimed it.
        pub fn schedule(&self) -> bool {
            self.shift(|s| s == ThreadState::Delayed, ThreadState::Scheduled, true)
        }

        /// Claims a delayed or scheduled thread's thunk, moving it to
        /// `next`.  Exactly one claim, or one passive determination, wins.
        pub fn claim(&self, next: ThreadState) -> bool {
            self.shift(ThreadState::is_claimable, next, true)
        }

        /// `Blocked`/`Suspended` → `Evaluating`: the waker took the parked
        /// TCB.  Made under the thread's lock.
        pub fn unpark(&self) -> bool {
            self.shift(
                |s| matches!(s, ThreadState::Blocked | ThreadState::Suspended),
                ThreadState::Evaluating,
                false,
            )
        }

        /// `Evaluating` → `to` (`Blocked` or `Suspended`): the TCB was
        /// parked.  Made under the thread's lock.
        pub fn park(&self, to: ThreadState) -> bool {
            self.shift(|s| s == ThreadState::Evaluating, to, false)
        }

        /// Wins the right to determine the thread, returning the state it
        /// was in: nobody else can begin a determination or claim the
        /// thunk from here on, so a winner that found the thread claimable
        /// owns its thunk.  `passive` wins only while the thread is still
        /// claimable (a terminate or raise aimed at a thread with no TCB).
        pub fn begin_determine(&self, passive: bool) -> Option<ThreadState> {
            self.update(|w| {
                let state = state_of(w);
                let open = w & DETERMINING == 0 && !state.is_determined();
                (open && (!passive || state.is_claimable())).then_some(w | DETERMINING)
            })
            .ok()
            .map(state_of)
        }

        /// Publishes the determination begun by [`StateWord::begin_determine`]
        /// (the result cell is written by now) and returns the flags it
        /// found: whoever registered a join node before this point is seen
        /// here, and whoever comes after sees `Determined`.
        pub fn finish_determine(&self) -> u64 {
            let prev = self
                .update(|w| Some(with_state(w & !DETERMINING, ThreadState::Determined)))
                .unwrap_or_else(|w| w);
            prev & !(STATE | DETERMINING)
        }

        /// Sets `flag` unless the thread has determined; `false` if it has.
        pub fn set_unless_determined(&self, flag: u64) -> bool {
            self.update(|w| (!state_of(w).is_determined()).then_some(w | flag))
                .is_ok()
        }

        /// Clears `flag`.
        pub fn clear(&self, flag: u64) {
            self.word.fetch_and(!flag, Ordering::AcqRel);
        }

        /// The raw word, for the model checker's mutation scenarios.
        #[cfg(sting_check)]
        pub fn raw(&self) -> &AtomicU64 {
            &self.word
        }
    }
}

/// Observable state of a STING thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ThreadState {
    /// Created lazily (`create-thread`); runs only if demanded.
    Delayed = 0,
    /// Placed in some policy manager's ready queue; no TCB yet.
    Scheduled = 1,
    /// Running (has a TCB); includes being in a ready queue between quanta.
    Evaluating = 2,
    /// Blocked on another thread or synchronization object (TCB parked).
    Blocked = 3,
    /// Suspended, possibly with a wake-up time (TCB parked).
    Suspended = 4,
    /// Thunk was absorbed by another thread's TCB (see `steal`).
    Stolen = 5,
    /// Completed; the result value (or exception) is available.
    Determined = 6,
}

impl ThreadState {
    /// Decodes the `u8` representation used in the thread's atomic state
    /// word.
    ///
    /// # Panics
    ///
    /// Panics on a byte that is not a valid state.
    pub fn from_u8(b: u8) -> ThreadState {
        match b {
            0 => ThreadState::Delayed,
            1 => ThreadState::Scheduled,
            2 => ThreadState::Evaluating,
            3 => ThreadState::Blocked,
            4 => ThreadState::Suspended,
            5 => ThreadState::Stolen,
            6 => ThreadState::Determined,
            other => panic!("invalid thread state byte {other}"),
        }
    }

    /// Whether the thread has finished (its value is available).
    pub fn is_determined(self) -> bool {
        self == ThreadState::Determined
    }

    /// Whether a TCB exists in this state.
    pub fn has_tcb(self) -> bool {
        matches!(
            self,
            ThreadState::Evaluating | ThreadState::Blocked | ThreadState::Suspended
        )
    }

    /// Whether this thread can still be claimed for fresh execution or
    /// stealing (no TCB allocated yet).
    pub fn is_claimable(self) -> bool {
        matches!(self, ThreadState::Delayed | ThreadState::Scheduled)
    }

    /// Validates an *asynchronous* request against the paper's transition
    /// semantics ("state changes are recorded only if they do not violate
    /// the state transition semantics").
    pub fn can_request(self, request: &StateRequest) -> bool {
        match self {
            // Determined and stolen threads accept no further requests.
            ThreadState::Determined | ThreadState::Stolen => false,
            ThreadState::Delayed | ThreadState::Scheduled => match request {
                // A thread with no TCB can be terminated or scheduled, but
                // "evaluating threads cannot be subsequently scheduled" and
                // blocking needs a TCB to park.
                StateRequest::Terminate(_) | StateRequest::Raise(_) => true,
                StateRequest::Block | StateRequest::Suspend(_) => false,
                StateRequest::Resume => matches!(self, ThreadState::Delayed),
            },
            ThreadState::Evaluating => !matches!(request, StateRequest::Resume),
            ThreadState::Blocked | ThreadState::Suspended => true,
        }
    }
}

/// An asynchronous state-change request made by another thread, honoured at
/// the target's next thread-controller entry.
#[derive(Debug, Clone, PartialEq)]
pub enum StateRequest {
    /// Terminate with the given result value (`thread-terminate`).
    Terminate(Value),
    /// Raise an exception in the target (`thread-raise!`): the target
    /// unwinds (running its cleanups) and determines with `Err(value)`
    /// unless a handler on its stack catches the exception.
    Raise(Value),
    /// Block indefinitely (`thread-block`).
    Block,
    /// Suspend; `Some(d)` resumes automatically after roughly `d`
    /// (`thread-suspend` with a quantum argument).
    Suspend(Option<std::time::Duration>),
    /// Resume a blocked/suspended/delayed thread (`thread-run`).
    Resume,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_u8() {
        for s in [
            ThreadState::Delayed,
            ThreadState::Scheduled,
            ThreadState::Evaluating,
            ThreadState::Blocked,
            ThreadState::Suspended,
            ThreadState::Stolen,
            ThreadState::Determined,
        ] {
            assert_eq!(ThreadState::from_u8(s as u8), s);
        }
    }

    #[test]
    #[should_panic(expected = "invalid thread state byte")]
    fn rejects_bad_byte() {
        let _ = ThreadState::from_u8(99);
    }

    #[test]
    fn predicates() {
        assert!(ThreadState::Determined.is_determined());
        assert!(!ThreadState::Evaluating.is_determined());
        assert!(ThreadState::Blocked.has_tcb());
        assert!(!ThreadState::Scheduled.has_tcb());
        assert!(ThreadState::Delayed.is_claimable());
        assert!(ThreadState::Scheduled.is_claimable());
        assert!(!ThreadState::Evaluating.is_claimable());
    }

    #[test]
    fn state_word_transitions_keep_their_flags() {
        let w = StateWord::new(ThreadState::Delayed);
        assert!(w.set_unless_determined(WAITERS));
        assert!(w.schedule());
        assert!(!w.schedule(), "only a delayed thread schedules");
        assert!(w.claim(ThreadState::Evaluating));
        assert!(!w.claim(ThreadState::Stolen), "a thunk is claimed once");
        assert!(w.park(ThreadState::Blocked));
        assert!(w.unpark());
        assert_eq!(w.begin_determine(true), None, "passive needs no TCB");
        assert_eq!(w.begin_determine(false), Some(ThreadState::Evaluating));
        assert_eq!(w.begin_determine(false), None, "one determiner");
        assert_eq!(w.finish_determine(), WAITERS);
        assert_eq!(w.state(), ThreadState::Determined);
        assert!(!w.set_unless_determined(REQUESTS));
    }

    #[test]
    fn a_passive_determination_beats_every_later_claim() {
        let w = StateWord::new(ThreadState::Scheduled);
        assert_eq!(w.begin_determine(true), Some(ThreadState::Scheduled));
        assert!(!w.claim(ThreadState::Stolen));
        assert_eq!(
            w.state(),
            ThreadState::Scheduled,
            "published only at finish"
        );
        assert_eq!(w.finish_determine(), 0);
        assert!(w.state().is_determined());
    }

    #[test]
    fn request_legality_matches_paper() {
        // "terminated threads cannot become subsequently blocked"
        assert!(!ThreadState::Determined.can_request(&StateRequest::Block));
        // "evaluating threads cannot be subsequently scheduled"
        assert!(!ThreadState::Evaluating.can_request(&StateRequest::Resume));
        // Evaluating threads can be asked to block, suspend, terminate.
        assert!(ThreadState::Evaluating.can_request(&StateRequest::Block));
        assert!(ThreadState::Evaluating.can_request(&StateRequest::Suspend(None)));
        assert!(ThreadState::Evaluating.can_request(&StateRequest::Terminate(Value::Unit)));
        // Delayed threads can be demanded (resume == thread-run).
        assert!(ThreadState::Delayed.can_request(&StateRequest::Resume));
        // Scheduled threads are already on a queue.
        assert!(!ThreadState::Scheduled.can_request(&StateRequest::Resume));
        // Blocked threads can be resumed or killed.
        assert!(ThreadState::Blocked.can_request(&StateRequest::Resume));
        assert!(ThreadState::Blocked.can_request(&StateRequest::Terminate(Value::Unit)));
        // Threads without a TCB cannot park.
        assert!(!ThreadState::Delayed.can_request(&StateRequest::Block));
    }
}
