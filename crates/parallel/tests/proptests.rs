//! Property-based tests of the deterministic parallel utility: for *any*
//! chunk size and worker count — including workers far exceeding the item
//! count and single-item ranges — the parallel map must equal the serial
//! map bitwise, and a panicking worker must propagate, not deadlock.

use effitest_parallel::{par_map_chunked, par_map_scratch};
use proptest::prelude::*;

/// A work function with enough integer/float mixing that an ordering bug
/// cannot cancel out.
fn work(i: usize) -> (u64, u64) {
    let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ 0x5bd1e995;
    let f = (i as f64 + 0.25).sqrt() * (h % 1024) as f64;
    (h, f.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn par_map_equals_serial_map(
        n in 0_usize..200,
        threads in 1_usize..64,
        chunk in 0_usize..40,
    ) {
        let serial: Vec<(u64, u64)> = (0..n).map(work).collect();
        let par = par_map_chunked(threads, chunk, n, work);
        prop_assert_eq!(par, serial);
    }

    #[test]
    fn workers_far_exceeding_items_are_fine(
        n in 0_usize..3,
        threads in 32_usize..256,
    ) {
        let serial: Vec<(u64, u64)> = (0..n).map(work).collect();
        let par = par_map_chunked(threads, 1, n, work);
        prop_assert_eq!(par, serial);
    }

    #[test]
    fn scratch_reuse_never_leaks_into_results(
        n in 0_usize..120,
        threads in 1_usize..16,
        chunk in 1_usize..16,
    ) {
        // The scratch accumulates everything the worker has seen; the
        // result must still be a pure function of the index.
        let serial: Vec<u64> = (0..n).map(|i| work(i).0).collect();
        let par = par_map_scratch(threads, chunk, n, Vec::<usize>::new, |seen, i| {
            seen.push(i);
            work(i).0
        });
        prop_assert_eq!(par, serial);
    }

    #[test]
    fn panics_propagate_rather_than_deadlock(
        n in 1_usize..60,
        threads in 1_usize..16,
        chunk in 1_usize..8,
        victim_seed in 0_usize..1000,
    ) {
        let victim = victim_seed % n;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map_chunked(threads, chunk, n, |i| {
                assert!(i != victim, "boom at {i}");
                i
            })
        }));
        prop_assert!(result.is_err(), "panic at {} swallowed", victim);
    }
}
