//! A counting global allocator for allocation-bound tests.
//!
//! A test binary installs one as its `#[global_allocator]` and reads
//! [`CountingAlloc::count`] (or [`CountingAlloc::bytes`]) around the
//! code it measures:
//!
//! ```
//! use qm_core::alloc_count::CountingAlloc;
//!
//! #[global_allocator]
//! static GLOBAL: CountingAlloc = CountingAlloc::new();
//!
//! fn main() {
//!     let before = GLOBAL.count();
//!     let v = vec![1u8; 64];
//!     assert!(GLOBAL.count() > before);
//!     drop(v);
//! }
//! ```
//!
//! The counter sees every thread of the process, so a measuring test
//! should be the only test in its binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every `alloc` and `realloc` and the
/// bytes they ask for.
#[derive(Debug, Default)]
pub struct CountingAlloc {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl CountingAlloc {
    /// A counter at zero.
    #[must_use]
    pub const fn new() -> Self {
        CountingAlloc { allocs: AtomicU64::new(0), bytes: AtomicU64::new(0) }
    }

    /// Allocations (and reallocations) made so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Bytes asked for so far: each allocation's size, and each
    /// reallocation's whole new size. Frees do not lower it.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    fn record(&self, size: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: defers to the system allocator; the counter is side-effect-only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
