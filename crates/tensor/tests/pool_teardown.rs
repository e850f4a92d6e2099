//! The pool teardown contract: dropping an owned pool leaves no lingering
//! worker threads behind (checked against the kernel's own thread count
//! via /proc, which this repo's CI runners all have).
//!
//! This is the only test in its binary on purpose. Tests run on parallel
//! threads, and any sibling that touches a pool (or spawns a thread)
//! changes the process's thread count between the two reads.

use moss_tensor::ThreadPool;

/// Counts this process's live threads (Linux /proc; skipped elsewhere).
fn live_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|n| n.parse().ok())
}

#[cfg(feature = "parallel")]
#[test]
fn dropping_a_pool_leaves_no_lingering_threads() {
    let Some(before) = live_threads() else {
        return; // no /proc on this platform
    };
    let pool = ThreadPool::new(6);
    assert_eq!(pool.workers(), 5);
    pool.run_indexed(64, &|_| {});
    assert!(live_threads().unwrap() >= before + 5, "workers not started");
    drop(pool);
    // Drop joins every worker, so the count is back immediately — no
    // polling loop needed.
    assert_eq!(
        live_threads().unwrap(),
        before,
        "pool teardown left threads behind"
    );
    // And the pool's own accounting agrees.
    let pool = ThreadPool::new(3);
    pool.run_indexed(8, &|_| {});
    let stats_live = pool.stats().live_workers;
    assert!(stats_live <= 2, "stats report {stats_live} live workers");
    drop(pool);
}
