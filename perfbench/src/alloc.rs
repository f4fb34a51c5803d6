//! A counting global allocator, installed in this binary only (the library
//! crates keep `forbid(unsafe_code)`).
//!
//! Every allocation bumps a per-thread counter. On the simulator all
//! processes run on one thread, so the difference of [`thread_allocs`]
//! around a callback is exactly the number of allocations that callback
//! made; on the real-clock backend each process owns its thread, so the same
//! holds per process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisation and a `Drop`-free type: accessing the slot
    // never allocates and never registers a destructor, so it is safe to use
    // from inside the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to [`System`] and counts allocations per thread.
pub struct CountingAlloc;

fn bump() {
    // `try_with` fails only while the thread is being torn down; an
    // allocation made then is simply not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System`, which upholds the `GlobalAlloc`
// contract; the only addition is a thread-local counter update, which neither
// allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout` (all our
        // allocation paths forward to it).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as for `dealloc`; `new_size` is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made so far by the calling thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}
