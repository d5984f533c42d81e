//! Single-assignment cells (I-structures, the paper's dataflow
//! synchronization class — reference [3], Arvind et al.).

use crate::wait::{block_until, block_until_deadline, TimedOut, WaitList, Waiter};
use parking_lot::Mutex;
use std::sync::Arc;
use sting_value::{static_sym, Value};

struct Inner {
    value: Option<Value>,
    waiters: WaitList,
}

/// A write-once cell: reads block until the single write.
#[derive(Clone)]
pub struct IVar {
    inner: Arc<Mutex<Inner>>,
}

impl Default for IVar {
    fn default() -> IVar {
        IVar::new()
    }
}

impl std::fmt::Debug for IVar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IVar(full: {})", self.is_full())
    }
}

/// Error from writing an already-written [`IVar`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteIVarError;

impl std::fmt::Display for WriteIVarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ivar already written")
    }
}
impl std::error::Error for WriteIVarError {}

impl IVar {
    /// Creates an empty cell.
    pub fn new() -> IVar {
        IVar {
            inner: Arc::new(Mutex::new(Inner {
                value: None,
                waiters: WaitList::new(),
            })),
        }
    }

    /// Whether the cell has been written.
    pub fn is_full(&self) -> bool {
        self.inner.lock().value.is_some()
    }

    /// Writes the value, waking all readers.
    ///
    /// # Errors
    ///
    /// [`WriteIVarError`] if the cell was already written.
    pub fn put(&self, v: Value) -> Result<(), WriteIVarError> {
        let mut g = self.inner.lock();
        if g.value.is_some() {
            return Err(WriteIVarError);
        }
        g.value = Some(v);
        g.waiters.wake_all();
        Ok(())
    }

    /// Reads the value, blocking until [`IVar::put`].
    pub fn get(&self) -> Value {
        block_until(static_sym!("ivar"), |w: &Waiter| self.check(w))
    }

    /// [`IVar::get`] with a timeout.
    ///
    /// # Errors
    ///
    /// [`TimedOut`] if the cell was not written within `timeout`.
    pub fn get_timeout(&self, timeout: std::time::Duration) -> Result<Value, TimedOut> {
        block_until_deadline(
            static_sym!("ivar"),
            Some(std::time::Instant::now() + timeout),
            |w: &Waiter| self.check(w),
        )
        .ok_or(TimedOut)
    }

    fn check(&self, w: &Waiter) -> Option<Value> {
        let mut g = self.inner.lock();
        match &g.value {
            Some(v) => Some(v.clone()),
            None => {
                g.waiters.push(w.clone());
                None
            }
        }
    }

    /// Number of (live) threads blocked reading the cell.
    pub fn blocked(&self) -> usize {
        self.inner.lock().waiters.len()
    }

    /// Reads without blocking.
    pub fn try_get(&self) -> Option<Value> {
        self.inner.lock().value.clone()
    }

    /// Wraps the cell as a substrate value.
    pub fn to_value(&self) -> Value {
        Value::native("ivar", Arc::new(self.clone()))
    }

    /// Recovers a cell from a value.
    pub fn from_value(v: &Value) -> Option<IVar> {
        v.native_as::<IVar>().map(|i| (*i).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sting_core::VmBuilder;

    #[test]
    fn get_blocks_until_put() {
        let vm = VmBuilder::new().vps(1).build();
        let iv = IVar::new();
        let iv2 = iv.clone();
        let reader = vm.fork(move |_cx| iv2.get());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!reader.is_determined());
        iv.put(Value::Int(5)).unwrap();
        assert_eq!(reader.join_blocking(), Ok(Value::Int(5)));
        vm.shutdown();
    }

    #[test]
    fn double_put_fails() {
        let iv = IVar::new();
        iv.put(Value::Int(1)).unwrap();
        assert_eq!(iv.put(Value::Int(2)), Err(WriteIVarError));
        assert_eq!(iv.try_get(), Some(Value::Int(1)));
    }

    #[test]
    fn many_readers_one_writer() {
        let vm = VmBuilder::new().vps(1).build();
        let iv = IVar::new();
        let readers: Vec<_> = (0..5)
            .map(|_| {
                let iv = iv.clone();
                vm.fork(move |_cx| iv.get())
            })
            .collect();
        iv.put(Value::Int(9)).unwrap();
        for r in readers {
            assert_eq!(r.join_blocking(), Ok(Value::Int(9)));
        }
        vm.shutdown();
    }
}
