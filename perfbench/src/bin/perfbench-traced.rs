//! The traced binary (`--trace 1`): the same benchmark with a counting
//! global allocator, which the untraced binary never carries.

use std::alloc::{GlobalAlloc, Layout, System};

use perfbench::trace::ALLOC;

struct CountingAllocator;

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters are plain atomics and never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC.on_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC.on_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC.on_dealloc(layout.size());
        ALLOC.on_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        ALLOC.on_dealloc(layout.size());
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn main() -> std::process::ExitCode {
    ALLOC.install();
    perfbench::main()
}
