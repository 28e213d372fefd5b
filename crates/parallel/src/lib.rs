//! Deterministic parallel execution for the EffiTest pipeline.
//!
//! Every offline stage of the flow — per-path criticality scoring, the
//! sensitization-conflict gather, hold-bound sampling, per-group
//! conditioning-gain factorization, circuit generation, SSTA model build —
//! is a loop of **independent, pure** per-index computations. This crate
//! supplies the one execution utility they all share: ordered, chunked
//! parallel-for and parallel-map over scoped threads, with results
//! committed in index order.
//!
//! # Determinism contract
//!
//! Output is **bitwise independent of the worker count and of thread
//! scheduling**, provided the work function is a pure function of its
//! index (and of the shared read-only captures):
//!
//! * indices are processed in chunks claimed from an atomic counter, but
//!   every result is committed back to slot `i` — output order is index
//!   order, never completion order;
//! * the work function receives no information about which worker runs it
//!   or in which order chunks were claimed;
//! * per-worker scratch ([`par_map_scratch`]) must hold scratch, never
//!   results: the function must return the same value whether its scratch
//!   is fresh or has been through any number of prior indices.
//!
//! With `threads <= 1` (or a single chunk) the loop runs inline on the
//! calling thread with no thread machinery at all; the parallel path
//! produces bitwise-identical output. That is why each stage has exactly
//! one implementation taking `threads`: a serial copy of the same closure
//! would be the one-thread call. A stage's tests therefore pin its output
//! to golden values or to an oracle that uses a *different* algorithm
//! (dense pairwise conflicts, refactorizing prediction), and sweep the
//! thread count against one thread.
//!
//! # Thread count
//!
//! Callers pass an explicit worker count; drivers derive it from the
//! `EFFITEST_THREADS` environment variable via
//! [`threads::threads_from_env`] (hard error on invalid values). The same
//! helper feeds the per-chip population engine in `effitest-core`, so one
//! variable governs both phases of the pipeline.
//!
//! # Panics
//!
//! A panic in a worker is propagated to the caller (first panicking worker
//! in spawn order; the scope joins the rest), never swallowed and never a
//! deadlock.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicUsize, Ordering};

pub mod threads;

/// Default chunk size for `n` items on `threads` workers: 8 chunks per
/// worker (atomic-claim overhead stays negligible while stragglers can
/// still be balanced), at least 1.
pub fn default_chunk(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.max(1).saturating_mul(8)).max(1)
}

/// Parallel map with default chunking: `(0..n).map(f)` across `threads`
/// workers, results in index order.
///
/// See the crate docs for the determinism contract. With `threads <= 1`
/// the map runs inline on the calling thread.
pub fn par_map<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_scratch(threads, default_chunk(n, threads), n, || (), |(), i| f(i))
}

/// [`par_map`] with an explicit chunk size (exposed so tests can sweep
/// arbitrary chunk/worker combinations; the chunk size never affects the
/// output, only the claim granularity).
pub fn par_map_chunked<R, F>(threads: usize, chunk: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_scratch(threads, chunk, n, || (), |(), i| f(i))
}

/// [`par_map`] with **per-worker scratch**: every worker calls `init` once
/// and threads the value mutably through all the indices it claims (the
/// sensitization gather reuses its mark vector this way).
///
/// Scratch must hold scratch, never results — `f` must return the same
/// value for index `i` regardless of which indices the scratch has been
/// through before. With `threads <= 1` a single scratch value serves the
/// whole range inline on the calling thread.
///
/// # Panics
///
/// Propagates a panic from `f` (the first panicking worker's payload is
/// re-raised on the calling thread).
pub fn par_map_scratch<W, R, I, F>(threads: usize, chunk: usize, n: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize) -> R + Sync,
{
    let chunk = chunk.max(1);
    if threads <= 1 || n <= chunk {
        let mut ws = init();
        return (0..n).map(|i| f(&mut ws, i)).collect();
    }
    let n_chunks = n.div_ceil(chunk);
    let workers = threads.min(n_chunks);

    // Work stealing over a shared atomic chunk counter; each worker
    // accumulates `(start, results)` runs locally and the caller scatters
    // them back by index, so the output never depends on completion order.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut ws = init();
                    let mut local: Vec<(usize, Vec<R>)> = Vec::new();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        let start = c * chunk;
                        let end = (start + chunk).min(n);
                        local.push((start, (start..end).map(|i| f(&mut ws, i)).collect()));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(local) => {
                    for (start, results) in local {
                        for (off, r) in results.into_iter().enumerate() {
                            slots[start + off] = Some(r);
                        }
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots.into_iter().map(|r| r.expect("every chunk was claimed exactly once")).collect()
}

/// Ordered chunked parallel-for over a mutable slice: `data` is split into
/// consecutive chunks of `chunk` elements and `f(start, chunk_slice)` runs
/// once per chunk, distributed round-robin across `threads` workers.
///
/// Each chunk owns a disjoint range of `data`, so the writes commute and
/// the result is bitwise independent of the worker count as long as `f`
/// writes its slice as a pure function of `start` (and the shared
/// read-only captures). With `threads <= 1` the chunks run inline, in
/// index order.
///
/// # Panics
///
/// Propagates a panic from `f` (the first panicking worker's payload is
/// re-raised on the calling thread).
pub fn par_for_chunks<T, F>(threads: usize, chunk: usize, data: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk = chunk.max(1);
    if threads <= 1 || data.len() <= chunk {
        for (c, s) in data.chunks_mut(chunk).enumerate() {
            f(c * chunk, s);
        }
        return;
    }
    let workers = threads.min(data.len().div_ceil(chunk));
    let mut per_worker: Vec<Vec<(usize, &mut [T])>> = (0..workers).map(|_| Vec::new()).collect();
    for (c, s) in data.chunks_mut(chunk).enumerate() {
        per_worker[c % workers].push((c * chunk, s));
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = per_worker
            .into_iter()
            .map(|list| {
                let f = &f;
                scope.spawn(move || {
                    for (start, s) in list {
                        f(start, s);
                    }
                })
            })
            .collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_serial_at_any_thread_count() {
        let serial: Vec<u64> = (0..257).map(|i| (i as u64).wrapping_mul(0x9E3779B9)).collect();
        for threads in [1, 2, 3, 8, 64] {
            let par = par_map(threads, 257, |i| (i as u64).wrapping_mul(0x9E3779B9));
            assert_eq!(par, serial, "threads {threads}");
        }
    }

    #[test]
    fn empty_and_single_item_ranges_work() {
        assert!(par_map(8, 0, |i| i).is_empty());
        assert_eq!(par_map(8, 1, |i| i * 3), vec![0]);
        assert_eq!(par_map_chunked(64, 1, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn scratch_workers_see_fresh_then_reused_state() {
        // Scratch is per worker; the result must not depend on it.
        let out = par_map_scratch(4, 2, 40, Vec::<usize>::new, |seen, i| {
            seen.push(i);
            i * i
        });
        let expect: Vec<usize> = (0..40).map(|i| i * i).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn for_chunks_fills_every_range_once() {
        let mut serial = vec![0_u32; 101];
        par_for_chunks(1, 7, &mut serial, |start, s| {
            for (off, v) in s.iter_mut().enumerate() {
                *v = (start + off) as u32 ^ 0xABCD;
            }
        });
        for threads in [2, 3, 16] {
            let mut par = vec![0_u32; 101];
            par_for_chunks(threads, 7, &mut par, |start, s| {
                for (off, v) in s.iter_mut().enumerate() {
                    *v = (start + off) as u32 ^ 0xABCD;
                }
            });
            assert_eq!(par, serial, "threads {threads}");
        }
    }

    #[test]
    fn worker_panics_propagate_from_map() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map_chunked(3, 2, 20, |i| {
                assert!(i != 11, "boom at 11");
                i
            })
        }));
        assert!(result.is_err(), "panic must reach the caller");
    }

    #[test]
    fn worker_panics_propagate_from_for_chunks() {
        let mut data = vec![0_u8; 32];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_for_chunks(4, 4, &mut data, |start, _s| {
                assert!(start != 16, "boom at 16");
            })
        }));
        assert!(result.is_err(), "panic must reach the caller");
    }
}
