//! The in-process watchdog shared by the engine integration tests. Binaries
//! include it with `#[path = "common/watchdog.rs"] mod watchdog;` rather than
//! `mod common;`, which would also install the counting global allocator.

use std::time::Duration;

/// Run `f` under a watchdog thread: a deadlock becomes a clean panic after
/// `limit` instead of a test that never returns, and no assertion depends
/// on how fast the machine happens to be. The limit only bounds hangs — it
/// is far above any plausible healthy runtime, so a loaded CI box cannot
/// trip it.
pub fn with_watchdog<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(v) => {
            let _ = worker.join();
            v
        }
        Err(_) => panic!("watchdog: engine run did not complete within {limit:?} (deadlock?)"),
    }
}
