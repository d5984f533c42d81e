//! Cache-line padding for state that one processor writes and others read.
//!
//! The scheduler's scaling argument (DESIGN.md, "Scheduler fast path",
//! ownership table) is that `fork → touch → determine` writes only lines
//! the running VP owns.  That only holds if two VPs' words never share a
//! line, so every per-VP record — a VM's lanes (id cursor, registry shard,
//! statistics), the two ends of a deque — is wrapped in [`CachePadded`].

/// Aligns (and therefore pads) `T` to 128 bytes: two 64-byte lines, because
/// x86 prefetches lines in adjacent pairs, so a 64-byte pad still lets a
/// neighbour's writes pull this line out of the cache.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub(crate) T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}
