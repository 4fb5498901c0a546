//! The counting allocator behind every zero-allocation proof in this suite.
//!
//! Pulling this module in installs it as the binary's global allocator.
//! Each allocation bumps an all-threads total and the allocating thread's
//! own count. Tests assert on the per-thread count, so a measured window
//! sees only what its own thread allocated: the harness's other test
//! threads, and worker threads of engines that other tests start, cannot
//! perturb it. No gate mutex is needed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and drop-free, so touching it never allocates
    // (no lazy init, no destructor registration) and cannot recurse.
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        TOTAL.fetch_add(1, Ordering::Relaxed);
        // `try_with`: the slot is gone while a thread is being torn down.
        let _ = THREAD.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
pub fn thread_allocations() -> u64 {
    THREAD.try_with(Cell::get).unwrap_or(0)
}

/// The per-thread count is what makes the proofs immune to test
/// scheduling: a thread allocating in a loop next to the measuring thread
/// moves the total but leaves the measuring thread's count at 0.
#[test]
fn another_threads_allocations_do_not_count_on_this_thread() {
    use std::hint::black_box;
    use std::sync::atomic::AtomicBool;

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                black_box(Vec::<u8>::with_capacity(64));
            }
        });
        let before = thread_allocations();
        let total_before = TOTAL.load(Ordering::Relaxed);
        while TOTAL.load(Ordering::Relaxed) - total_before < 10_000 {
            std::hint::spin_loop();
        }
        let mine = thread_allocations() - before;
        stop.store(true, Ordering::Relaxed);
        assert_eq!(
            mine, 0,
            "another thread's allocations leaked into this thread's count"
        );
    });
}
