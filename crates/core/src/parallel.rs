//! The data-parallel kernel.
//!
//! The paper's implementation maps the calculations of Eqs. (10), (12) and
//! (13) onto an Nvidia GPU (§6.3: "all of its key calculations are highly
//! parallelizable"; their proof-of-concept computed 20–50 k fingerprint
//! pairs per second on a GeForce GT 740). This reproduction substitutes a
//! CPU thread pool: the work is embarrassingly parallel, so a chunked
//! dynamic-scheduling executor over OS threads gives the same scaling
//! behaviour (see DESIGN.md §1).
//!
//! Following the Rust guidance for CPU-bound work (Tokio is for IO-bound
//! concurrency; computation belongs on plain threads), the executor uses
//! `std::thread::scope` so that closures may borrow the dataset without
//! `Arc` gymnastics, and an atomic cursor for dynamic load balancing — rows
//! of the pairwise matrix have very uneven cost.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Returns the number of worker threads to use: `requested`, or one per
/// available core when `requested == 0`.
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Largest number of indices a worker takes per cursor grab: small batches
/// amortize cursor contention without hurting balance.
const MAX_BATCH: usize = 8;

/// Applies `f` to every index in `0..n` on a pool of `threads` workers and
/// returns the results in index order.
///
/// Indices are handed out in small batches through an atomic cursor, so
/// wildly uneven per-index costs still balance. A batch holds up to
/// `MAX_BATCH` indices on long ranges and shrinks on short ones until
/// every worker gets about that many grabs, down to one index at a time.
/// A short range of expensive items is thereby shared out index by index:
/// two items on two threads run on both workers instead of as one batch
/// on the first, and sixteen uneven shards balance dynamically instead of
/// splitting into two fixed halves. Which worker ran an index never shows
/// in the result. `f` must be `Sync` because all workers share it; results
/// are sent back over a channel and scattered into place, keeping the
/// whole crate free of `unsafe`.
pub fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = effective_threads(threads).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }

    let batch = (n / (threads * MAX_BATCH)).clamp(1, MAX_BATCH);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let start = cursor.fetch_add(batch, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + batch).min(n);
                for i in start..end {
                    // Receiver outlives all senders within the scope; a send
                    // failure would mean the collector vanished, which the
                    // scope structure makes impossible.
                    tx.send((i, f(i))).expect("collector alive within scope");
                }
            });
        }
        drop(tx);

        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, value) in rx.iter() {
            slots[i] = Some(value);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index produced exactly once"))
            .collect()
    })
}

/// Convenience wrapper: applies `f` to every element of `items` in parallel,
/// preserving order.
pub fn par_map_slice<'a, I, T, F>(items: &'a [I], threads: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&'a I) -> T + Sync,
{
    par_map(items.len(), threads, |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    #[test]
    fn results_are_in_index_order() {
        let out = par_map(1_000, 4, |i| i * 2);
        assert_eq!(out.len(), 1_000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn zero_items_is_fine() {
        let out: Vec<usize> = par_map(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_fallback_matches() {
        let seq = par_map(257, 1, |i| i * i);
        let par = par_map(257, 8, |i| i * i);
        assert_eq!(seq, par);
    }

    #[test]
    fn every_index_processed_exactly_once() {
        let counter = AtomicU64::new(0);
        let n = 10_000;
        let _ = par_map(n, 8, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), n as u64);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Index 0 is very expensive; all others are cheap. With dynamic
        // scheduling this still completes promptly and correctly.
        let out = par_map(64, 4, |i| {
            if i == 0 {
                (0..2_000_000u64).sum::<u64>()
            } else {
                i as u64
            }
        });
        assert_eq!(out[1], 1);
        assert_eq!(out[63], 63);
    }

    #[test]
    fn short_ranges_run_on_every_worker() {
        // Two items on two threads must overlap: each announces itself and
        // waits for the other. If one worker took both, the first item
        // would time out instead of hanging the test.
        let arrived = (Mutex::new(0usize), Condvar::new());
        let met = par_map(2, 2, |_| {
            let (count, cv) = &arrived;
            let mut n = count.lock().expect("no item panics holding the lock");
            *n += 1;
            cv.notify_all();
            let (n, _) = cv
                .wait_timeout_while(n, Duration::from_secs(5), |n| *n < 2)
                .expect("no item panics holding the lock");
            *n == 2
        });
        assert_eq!(met, [true, true], "both items ran on one worker");
    }

    #[test]
    fn par_map_slice_borrows() {
        let data = vec![String::from("a"), String::from("bb"), String::from("ccc")];
        let lens = par_map_slice(&data, 2, |s| s.len());
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn effective_threads_resolution() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
    }
}
