//! Chunked fan-out over independent run indices: the thread plumbing
//! under `figures::sweep`, its one caller in `figures/`.
//!
//! All the paper's sweeps have the same shape — `runs` independent
//! scenario draws whose outcomes are folded into per-point summaries —
//! which `sweep.rs` writes once; this module only spreads the draws over
//! scoped threads. Results come back in run order regardless of thread
//! scheduling, which keeps every aggregate bit-identical to a sequential
//! evaluation.

use std::thread;

/// Runs `f(run)` for `run` in `0..runs` on `workers` threads (at least
/// one is used; `RunConfig::workers` is the configured count) and returns
/// the results in run order.
///
/// Work is split into contiguous chunks (one per worker). With one worker
/// this is a plain sequential loop with no thread spawn.
///
/// # Panics
/// Propagates any panic from `f` (a worker panic fails the whole sweep,
/// matching the sequential behaviour).
pub fn map_runs<T, F>(workers: usize, runs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(runs.max(1));
    if workers <= 1 {
        return (0..runs).map(f).collect();
    }
    let chunk = runs.div_ceil(workers);
    let f = &f;
    let mut out: Vec<T> = Vec::with_capacity(runs);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .filter_map(|w| {
                let lo = w * chunk;
                let hi = runs.min(lo + chunk);
                (lo < hi).then(|| scope.spawn(move || (lo..hi).map(f).collect::<Vec<T>>()))
            })
            .collect();
        for h in handles {
            // Re-raise a worker's panic with its own payload, as the
            // sequential loop would have.
            out.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_run_order() {
        let v = map_runs(4, 17, |i| i * i);
        assert_eq!(v, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn results_are_order_stable_on_any_worker_count() {
        // Zero and one run sequentially; sixteen is more workers than runs.
        for workers in [0, 1, 2, 4, 16] {
            let v = map_runs(workers, 9, |i| i + 1);
            assert_eq!(v, (1..=9).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_runs_is_empty() {
        assert!(map_runs(4, 0, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        // Two workers even on a one-core host, so the panic crosses a join.
        let _ = map_runs(2, 4, |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }
}
