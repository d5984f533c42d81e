//! Synchronizing streams: the sieve substrate from Figure 2.
//!
//! A [`Stream`] is an append-only sequence with "a blocking operation on
//! stream access (`hd`) and an atomic operation for appending to the end
//! (`attach`)".  Readers hold a [`StreamCursor`] — a persistent position,
//! so `rest` is cheap and multiple readers can consume the same stream at
//! their own pace (each sieve filter reads its input stream independently).
//!
//! ```
//! use sting_core::VmBuilder;
//! use sting_sync::Stream;
//! use sting_value::Value;
//!
//! let vm = VmBuilder::new().vps(1).build();
//! let r = vm.run(|cx| {
//!     let s = Stream::new();
//!     let writer = {
//!         let s = s.clone();
//!         cx.fork(move |_cx| {
//!             for i in 0..3i64 {
//!                 s.attach(Value::Int(i));
//!             }
//!             s.close();
//!             0i64
//!         })
//!     };
//!     let mut cur = s.cursor();
//!     let mut sum = 0i64;
//!     while let Some(v) = cur.next() {
//!         sum += v.as_int().unwrap();
//!     }
//!     cx.wait(&writer).unwrap();
//!     sum
//! });
//! assert_eq!(r.unwrap().as_int(), Some(3));
//! vm.shutdown();
//! ```

use crate::wait::{block_until, block_until_deadline, TimedOut, WaitList, Waiter};
use parking_lot::Mutex;
use std::sync::Arc;
use sting_value::{static_sym, Value};

struct Inner {
    items: Vec<Value>,
    closed: bool,
    waiters: WaitList,
}

/// An append-only synchronizing stream (create with [`Stream::new`]).
#[derive(Clone)]
pub struct Stream {
    inner: Arc<Mutex<Inner>>,
}

impl Default for Stream {
    fn default() -> Stream {
        Stream::new()
    }
}

impl std::fmt::Debug for Stream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock();
        f.debug_struct("Stream")
            .field("len", &g.items.len())
            .field("closed", &g.closed)
            .finish()
    }
}

impl Stream {
    /// Creates an empty open stream.
    pub fn new() -> Stream {
        Stream {
            inner: Arc::new(Mutex::new(Inner {
                items: Vec::new(),
                closed: false,
                waiters: WaitList::new(),
            })),
        }
    }

    /// Atomically appends `v` and wakes blocked readers (`attach`).
    ///
    /// # Panics
    ///
    /// Panics if the stream is closed.
    pub fn attach(&self, v: Value) {
        let mut g = self.inner.lock();
        assert!(!g.closed, "attach on a closed stream");
        g.items.push(v);
        g.waiters.wake_all();
    }

    /// Closes the stream: readers past the end observe end-of-stream
    /// instead of blocking.
    pub fn close(&self) {
        let mut g = self.inner.lock();
        g.closed = true;
        g.waiters.wake_all();
    }

    /// Whether [`Stream::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }

    /// Number of elements attached so far.
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// Whether no elements have been attached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of (live) threads blocked in [`StreamCursor::hd`].
    pub fn blocked(&self) -> usize {
        self.inner.lock().waiters.len()
    }

    /// A cursor positioned at the head of the stream.
    pub fn cursor(&self) -> StreamCursor {
        StreamCursor {
            stream: self.clone(),
            pos: 0,
        }
    }

    /// Wraps the stream as a substrate value.
    pub fn to_value(&self) -> Value {
        Value::native("stream", Arc::new(self.clone()))
    }

    /// Recovers a stream from a value.
    pub fn from_value(v: &Value) -> Option<Stream> {
        v.native_as::<Stream>().map(|s| (*s).clone())
    }

    fn get(&self, pos: usize) -> Option<Option<Value>> {
        let g = self.inner.lock();
        if pos < g.items.len() {
            Some(Some(g.items[pos].clone()))
        } else if g.closed {
            Some(None)
        } else {
            drop(g);
            None
        }
    }
}

/// A persistent read position in a [`Stream`]; `clone` forks the position.
#[derive(Debug, Clone)]
pub struct StreamCursor {
    stream: Stream,
    pos: usize,
}

impl StreamCursor {
    /// The element at this position, blocking until a writer attaches one
    /// (`hd`).  Returns `None` if the stream closed before this position.
    pub fn hd(&self) -> Option<Value> {
        if let Some(v) = self.stream.get(self.pos) {
            return v;
        }
        block_until(static_sym!("stream-hd"), |w| self.check(w))
    }

    /// [`StreamCursor::hd`] with a timeout.  `Ok(None)` still means the
    /// stream closed before this position.
    ///
    /// # Errors
    ///
    /// [`TimedOut`] if no element appeared at this position within
    /// `timeout`.
    pub fn hd_timeout(&self, timeout: std::time::Duration) -> Result<Option<Value>, TimedOut> {
        if let Some(v) = self.stream.get(self.pos) {
            return Ok(v);
        }
        block_until_deadline(
            static_sym!("stream-hd"),
            Some(std::time::Instant::now() + timeout),
            |w| self.check(w),
        )
        .ok_or(TimedOut)
    }

    fn check(&self, w: &Waiter) -> Option<Option<Value>> {
        let mut g = self.stream.inner.lock();
        if self.pos < g.items.len() {
            Some(Some(g.items[self.pos].clone()))
        } else if g.closed {
            Some(None)
        } else {
            g.waiters.push(w.clone());
            None
        }
    }

    /// The cursor one past this element (`rest`); does not block.
    pub fn rest(&self) -> StreamCursor {
        StreamCursor {
            stream: self.stream.clone(),
            pos: self.pos + 1,
        }
    }

    /// Blocking iterator step: `hd` then advance.  (Deliberately named
    /// like `Iterator::next`; the cursor cannot implement `Iterator`
    /// because `hd` blocks on the substrate.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Value> {
        let v = self.hd()?;
        self.pos += 1;
        Some(v)
    }

    /// [`StreamCursor::next`] with a timeout: the position only advances
    /// when an element is returned.
    ///
    /// # Errors
    ///
    /// [`TimedOut`] if no element appeared within `timeout`.
    pub fn next_timeout(
        &mut self,
        timeout: std::time::Duration,
    ) -> Result<Option<Value>, TimedOut> {
        match self.hd_timeout(timeout)? {
            Some(v) => {
                self.pos += 1;
                Ok(Some(v))
            }
            None => Ok(None),
        }
    }

    /// Current position.
    pub fn position(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sting_core::VmBuilder;

    #[test]
    fn basic_produce_consume() {
        let vm = VmBuilder::new().vps(1).build();
        let s = Stream::new();
        let s2 = s.clone();
        let consumer = vm.fork(move |_cx| {
            let mut c = s2.cursor();
            let mut sum = 0i64;
            while let Some(v) = c.next() {
                sum += v.as_int().unwrap();
            }
            sum
        });
        for i in 1..=4i64 {
            s.attach(Value::Int(i));
        }
        s.close();
        assert_eq!(consumer.join_blocking(), Ok(Value::Int(10)));
        vm.shutdown();
    }

    #[test]
    fn hd_blocks_until_attach() {
        let vm = VmBuilder::new().vps(1).build();
        let s = Stream::new();
        let s2 = s.clone();
        let reader = vm.fork(move |_cx| s2.cursor().hd().unwrap());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!reader.is_determined(), "reader must block on empty stream");
        s.attach(Value::Int(77));
        assert_eq!(reader.join_blocking(), Ok(Value::Int(77)));
        vm.shutdown();
    }

    #[test]
    fn multiple_independent_cursors() {
        let vm = VmBuilder::new().vps(1).build();
        let s = Stream::new();
        for i in 0..5i64 {
            s.attach(Value::Int(i));
        }
        s.close();
        let a: Vec<i64> = {
            let mut c = s.cursor();
            std::iter::from_fn(|| c.next())
                .map(|v| v.as_int().unwrap())
                .collect()
        };
        let b: Vec<i64> = {
            let mut c = s.cursor();
            std::iter::from_fn(|| c.next())
                .map(|v| v.as_int().unwrap())
                .collect()
        };
        assert_eq!(a, b);
        assert_eq!(a, vec![0, 1, 2, 3, 4]);
        vm.shutdown();
    }

    #[test]
    fn rest_is_persistent() {
        let s = Stream::new();
        s.attach(Value::Int(1));
        s.attach(Value::Int(2));
        s.close();
        let c0 = s.cursor();
        let c1 = c0.rest();
        assert_eq!(c0.hd(), Some(Value::Int(1)));
        assert_eq!(c1.hd(), Some(Value::Int(2)));
        assert_eq!(c0.hd(), Some(Value::Int(1)), "c0 unaffected by c1");
        assert_eq!(c1.rest().hd(), None);
    }

    #[test]
    #[should_panic(expected = "attach on a closed stream")]
    fn attach_after_close_panics() {
        let s = Stream::new();
        s.close();
        s.attach(Value::Int(1));
    }

    #[test]
    fn value_round_trip() {
        let s = Stream::new();
        s.attach(Value::Int(5));
        let v = s.to_value();
        let s2 = Stream::from_value(&v).unwrap();
        assert_eq!(s2.len(), 1);
    }
}
