//! FIFO channels (CSP/CML-style message passing; the paper cites CML's
//! `sync` as one of the synchronization semantics expressible on the
//! substrate).

use crate::wait::{block_until, block_until_deadline, TimedOut, WaitList, Waiter};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use sting_value::{static_sym, Value};

struct Inner {
    queue: VecDeque<Value>,
    capacity: Option<usize>,
    closed: bool,
    recv_waiters: WaitList,
    send_waiters: WaitList,
}

/// A multi-producer multi-consumer FIFO channel; clones share the queue.
#[derive(Clone)]
pub struct Channel {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock();
        f.debug_struct("Channel")
            .field("len", &g.queue.len())
            .field("capacity", &g.capacity)
            .field("closed", &g.closed)
            .finish()
    }
}

/// Error from sending on a closed channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendChannelError;

impl std::fmt::Display for SendChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("send on closed channel")
    }
}
impl std::error::Error for SendChannelError {}

impl Channel {
    /// An unbounded channel.
    pub fn unbounded() -> Channel {
        Channel::with_capacity(None)
    }

    /// A bounded channel: sends block while `capacity` items are queued.
    pub fn bounded(capacity: usize) -> Channel {
        Channel::with_capacity(Some(capacity.max(1)))
    }

    fn with_capacity(capacity: Option<usize>) -> Channel {
        Channel {
            inner: Arc::new(Mutex::new(Inner {
                queue: VecDeque::new(),
                capacity,
                closed: false,
                recv_waiters: WaitList::new(),
                send_waiters: WaitList::new(),
            })),
        }
    }

    /// Sends `v`, blocking while a bounded channel is full.
    ///
    /// # Errors
    ///
    /// [`SendChannelError`] if the channel is closed.
    pub fn send(&self, v: Value) -> Result<(), SendChannelError> {
        let mut item = Some(v);
        block_until(static_sym!("channel-send"), |w: &Waiter| {
            self.send_check(&mut item, w)
        })
    }

    /// [`Channel::send`] with a timeout.
    ///
    /// # Errors
    ///
    /// `Err(Ok(TimedOut))` if the value was not queued within `timeout`
    /// (the value is simply dropped); `Err(Err(SendChannelError))` if the
    /// channel is closed.
    pub fn send_timeout(
        &self,
        v: Value,
        timeout: std::time::Duration,
    ) -> Result<(), Result<TimedOut, SendChannelError>> {
        let mut item = Some(v);
        match block_until_deadline(
            static_sym!("channel-send"),
            Some(std::time::Instant::now() + timeout),
            |w: &Waiter| self.send_check(&mut item, w),
        ) {
            Some(Ok(())) => Ok(()),
            Some(Err(e)) => Err(Err(e)),
            None => Err(Ok(TimedOut)),
        }
    }

    fn send_check(
        &self,
        item: &mut Option<Value>,
        w: &Waiter,
    ) -> Option<Result<(), SendChannelError>> {
        let mut g = self.inner.lock();
        if g.closed {
            return Some(Err(SendChannelError));
        }
        if g.capacity.is_none_or(|c| g.queue.len() < c) {
            g.queue.push_back(item.take().expect("send value"));
            g.recv_waiters.wake_one();
            Some(Ok(()))
        } else {
            g.send_waiters.push(w.clone());
            None
        }
    }

    /// Receives the next value, blocking while empty; `None` when the
    /// channel is closed and drained.
    pub fn recv(&self) -> Option<Value> {
        block_until(static_sym!("channel-recv"), |w: &Waiter| self.recv_check(w))
    }

    /// [`Channel::recv`] with a timeout.
    ///
    /// # Errors
    ///
    /// [`TimedOut`] if nothing arrived within `timeout`; `Ok(None)` still
    /// means closed-and-drained.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Option<Value>, TimedOut> {
        block_until_deadline(
            static_sym!("channel-recv"),
            Some(std::time::Instant::now() + timeout),
            |w: &Waiter| self.recv_check(w),
        )
        .ok_or(TimedOut)
    }

    fn recv_check(&self, w: &Waiter) -> Option<Option<Value>> {
        let mut g = self.inner.lock();
        if let Some(v) = g.queue.pop_front() {
            g.send_waiters.wake_one();
            Some(Some(v))
        } else if g.closed {
            Some(None)
        } else {
            g.recv_waiters.push(w.clone());
            None
        }
    }

    /// Receives without blocking.
    pub fn try_recv(&self) -> Option<Value> {
        let mut g = self.inner.lock();
        let v = g.queue.pop_front();
        if v.is_some() {
            g.send_waiters.wake_one();
        }
        v
    }

    /// Closes the channel: senders fail, drained receivers get `None`.
    pub fn close(&self) {
        let mut g = self.inner.lock();
        g.closed = true;
        g.recv_waiters.wake_all();
        g.send_waiters.wake_all();
    }

    /// Number of (live) threads blocked in [`Channel::recv`].
    pub fn blocked_receivers(&self) -> usize {
        self.inner.lock().recv_waiters.len()
    }

    /// Number of (live) threads blocked in [`Channel::send`].
    pub fn blocked_senders(&self) -> usize {
        self.inner.lock().send_waiters.len()
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wraps the channel as a substrate value.
    pub fn to_value(&self) -> Value {
        Value::native("channel", Arc::new(self.clone()))
    }

    /// Recovers a channel from a value.
    pub fn from_value(v: &Value) -> Option<Channel> {
        v.native_as::<Channel>().map(|c| (*c).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sting_core::VmBuilder;

    #[test]
    fn fifo_order() {
        let ch = Channel::unbounded();
        for i in 0..5i64 {
            ch.send(Value::Int(i)).unwrap();
        }
        ch.close();
        let got: Vec<i64> = std::iter::from_fn(|| ch.recv())
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recv_blocks_until_send() {
        let vm = VmBuilder::new().vps(1).build();
        let ch = Channel::unbounded();
        let ch2 = ch.clone();
        let t = vm.fork(move |_cx| ch2.recv().unwrap());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!t.is_determined());
        ch.send(Value::Int(8)).unwrap();
        assert_eq!(t.join_blocking(), Ok(Value::Int(8)));
        vm.shutdown();
    }

    #[test]
    fn bounded_send_blocks_when_full() {
        let vm = VmBuilder::new().vps(1).build();
        let ch = Channel::bounded(1);
        ch.send(Value::Int(1)).unwrap();
        let ch2 = ch.clone();
        let sender = vm.fork(move |_cx| {
            ch2.send(Value::Int(2)).unwrap();
            0i64
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!sender.is_determined(), "bounded send must block");
        assert_eq!(ch.recv(), Some(Value::Int(1)));
        sender.join_blocking().unwrap();
        assert_eq!(ch.recv(), Some(Value::Int(2)));
        vm.shutdown();
    }

    #[test]
    fn close_drains_then_none() {
        let ch = Channel::unbounded();
        ch.send(Value::Int(1)).unwrap();
        ch.close();
        assert_eq!(ch.recv(), Some(Value::Int(1)));
        assert_eq!(ch.recv(), None);
        assert_eq!(ch.send(Value::Int(2)), Err(SendChannelError));
    }

    #[test]
    fn many_producers_one_consumer() {
        let vm = VmBuilder::new().vps(2).build();
        let ch = Channel::unbounded();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let ch = ch.clone();
                vm.fork(move |_cx| {
                    for i in 0..25i64 {
                        ch.send(Value::Int(p * 100 + i)).unwrap();
                    }
                    0i64
                })
            })
            .collect();
        let mut got = 0;
        while got < 100 {
            ch.recv().unwrap();
            got += 1;
        }
        for p in producers {
            p.join_blocking().unwrap();
        }
        vm.shutdown();
    }
}
