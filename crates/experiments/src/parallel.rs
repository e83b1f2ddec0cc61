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
/// one is used; [`workers`] is the configured count) and returns the
/// results in run order.
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

/// The worker count sweeps run on: the `HBH_THREADS` environment variable
/// when set to a positive integer (`HBH_THREADS=1` forces sequential
/// execution — useful for CI reproducibility of timings and for benchmarks
/// that must not compete with each other), else the available cores.
/// Invalid or zero values fall back to the default.
pub fn workers() -> usize {
    workers_from(std::env::var("HBH_THREADS").ok().as_deref())
}

/// [`workers`] on the variable's value (`None` = unset).
fn workers_from(var: Option<&str>) -> usize {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_run_order() {
        let v = map_runs(workers(), 17, |i| i * i);
        assert_eq!(v, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn hbh_threads_env_pins_worker_count() {
        // The variable's value is passed in: tests run concurrently, so
        // none may change the process environment.
        assert_eq!(workers_from(Some("2")), 2);
        assert_eq!(workers_from(Some(" 3\n")), 3);
        let default = workers_from(None);
        assert!(default >= 1);
        assert_eq!(workers_from(Some("not-a-number")), default);
        assert_eq!(workers_from(Some("0")), default, "zero falls back");
        // Results are order-stable for any worker count, one included and
        // more workers than runs included.
        for workers in [1, 2, 4, 16] {
            let v = map_runs(workers, 9, |i| i + 1);
            assert_eq!(v, (1..=9).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_runs_is_empty() {
        assert!(map_runs(workers(), 0, |i| i).is_empty());
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
