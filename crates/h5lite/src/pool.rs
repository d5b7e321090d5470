//! Recycling pool for the byte buffers that flow through the
//! compress → async-write pipeline.
//!
//! Stored-chunk buffers are the one allocation that must escape the
//! per-worker [`FilterScratch`](crate::FilterScratch): ownership passes
//! from a compression worker through the reorder sink into the
//! [`EventSet`](crate::EventSet) write queue. Instead of dropping each
//! buffer after its write completes, the queue returns it here and the
//! next chunk starts from a pre-grown buffer — steady-state streaming
//! allocates nothing per chunk.

use std::sync::Mutex;

/// Upper bound on retained buffers; beyond this, returned buffers are
/// dropped so a burst (many in-flight writes) can't pin memory forever.
const MAX_POOLED: usize = 64;

/// A shared last-in-first-out pool of reusable `Vec<u8>` buffers.
///
/// LIFO order hands the most recently used (cache-warm, fully grown)
/// buffer to the next taker. All methods take `&self`; share the pool
/// across threads behind an `Arc`.
#[derive(Debug, Default)]
pub struct BufferPool {
    bufs: Mutex<Vec<Vec<u8>>>,
}

impl BufferPool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a cleared buffer, reusing a pooled one when available.
    pub fn take(&self) -> Vec<u8> {
        self.bufs.lock().unwrap().pop().unwrap_or_default()
    }

    /// Return a buffer for reuse; its contents are discarded (the
    /// capacity is what's recycled).
    pub fn put(&self, mut buf: Vec<u8>) {
        buf.clear();
        let mut bufs = self.bufs.lock().unwrap();
        if bufs.len() < MAX_POOLED {
            bufs.push(buf);
        }
    }

    /// Number of buffers currently pooled.
    pub fn len(&self) -> usize {
        self.bufs.lock().unwrap().len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.bufs.lock().unwrap().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_returned_capacity() {
        let pool = BufferPool::new();
        let mut b = pool.take();
        b.extend_from_slice(&[1, 2, 3]);
        let cap = b.capacity();
        pool.put(b);
        assert_eq!(pool.len(), 1);
        let b2 = pool.take();
        assert!(b2.is_empty());
        assert_eq!(b2.capacity(), cap);
        assert!(pool.is_empty());
    }

    #[test]
    fn pool_is_bounded() {
        let pool = BufferPool::new();
        for _ in 0..200 {
            pool.put(Vec::with_capacity(8));
        }
        assert_eq!(pool.len(), MAX_POOLED);
    }
}
