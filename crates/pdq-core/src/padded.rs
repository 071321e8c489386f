//! Cache-line padding for atomics that different threads update.

/// Pads and aligns a value to a 64-byte cache line.
///
/// Used for per-shard hot counters and for the metrics registry's cells so
/// that two counters updated by different threads never share a line (false
/// sharing turns independent relaxed increments into cache-line ping-pong).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

impl<T> CachePadded<T> {
    /// Wraps `value` in a cache-line-aligned cell.
    pub const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

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
