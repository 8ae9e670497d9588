//! Hand-rolled deterministic parallel map for sweep points.
//!
//! Every figure is a sweep over independent measurement points, each
//! deterministic from its own derived seed — so points can run on any
//! thread in any order as long as results are merged back *by sweep
//! index*. `par_map` does exactly that with `std::thread::scope` (no
//! external thread-pool dependency): a shared atomic cursor hands out
//! indices, workers write results into their own slot, and the returned
//! vector is in input order. Output bytes are identical to the
//! sequential loop; only wall-clock time changes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Upper bound on worker threads (sweeps rarely have more points).
const MAX_WORKERS: usize = 16;

/// Maps `f` over `items` in parallel, preserving input order in the
/// output. `f` receives `(index, item)` so callers can derive per-point
/// seeds from the sweep position. Falls back to the sequential loop for
/// a single item or a single available core.
///
/// # Panics
///
/// Propagates the first worker panic (the whole sweep is torn down, as
/// the sequential loop would be).
pub(crate) fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n)
        .min(MAX_WORKERS);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    // Each item moves to whichever worker claims its index; each result
    // lands in its own slot, so the merge is just unwrapping the slots.
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let item = work[i].lock().expect("work slot").take().expect("item");
                let r = f(i, item);
                *slots[i].lock().expect("result slot") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("result slot").expect("worker wrote"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = par_map((0..100).collect(), |i, x: usize| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<usize> = par_map(Vec::new(), |_, x: usize| x);
        assert!(empty.is_empty());
        assert_eq!(par_map(vec![7], |_, x: usize| x + 1), vec![8]);
    }

    #[test]
    fn matches_sequential_map_bytes() {
        // The determinism claim the golden tests lean on: same inputs,
        // same per-index outputs, regardless of scheduling.
        let items: Vec<u64> = (0..37).map(|i| i * 0x9E37_79B9).collect();
        let seq: Vec<String> = items
            .iter()
            .enumerate()
            .map(|(i, x)| format!("{i}:{}", x.wrapping_mul(31)))
            .collect();
        let par = par_map(items, |i, x| format!("{i}:{}", x.wrapping_mul(31)));
        assert_eq!(seq, par);
    }
}
