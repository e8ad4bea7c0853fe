//! Property tests for the scheduler's index-ordered merge primitive.
//!
//! The bit-identity contract of the unified scheduler reduces to one
//! algebraic fact: however task completions interleave, results are
//! merged back in (pattern, level, candidate) index order, so any
//! floating-point fold over the merged sequence accumulates in exactly
//! the serial order. These properties drive `sched::ChunkSlots` (and a
//! full `sched::run_graph` fan-out) with *random completion
//! interleavings* and compare against the recorded serial trace — both
//! the element order and the bit pattern of a left-to-right FP sum.

use std::ops::Range;

use mining::sched::{self, ChunkSlots};
use proptest::prelude::*;

/// Left-to-right sum, compared by bit pattern: FP addition is not
/// associative, so this detects any reordering a `==` on the rounded
/// value might miss.
fn fold_bits(xs: &[f64]) -> u64 {
    xs.iter().fold(0.0f64, |a, &x| a + x).to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Completing chunks in an arbitrary order yields the same merged
    /// vector — and the same FP accumulation — as completing them in
    /// index order (the serial trace).
    #[test]
    fn chunk_merge_invariant_under_completion_order(
        values in prop::collection::vec(-1.0e6f64..1.0e6, 1..200),
        workers in 1usize..9,
        min_chunk in 1usize..9,
        keys in prop::collection::vec(any::<u64>(), 64),
    ) {
        let ranges = sched::chunk_ranges(values.len(), workers, min_chunk);

        // Serial trace: chunks complete in index order.
        let serial_slots = ChunkSlots::new(ranges.len());
        for (i, r) in ranges.iter().enumerate() {
            serial_slots.complete(i, values[r.clone()].to_vec());
        }
        let serial = serial_slots.merged();
        prop_assert_eq!(&serial, &values);

        // Adversarial trace: the same chunks complete in a random
        // interleaving (indices sorted by random keys).
        let mut order: Vec<usize> = (0..ranges.len()).collect();
        order.sort_by_key(|&i| keys[i % keys.len()]);
        let slots = ChunkSlots::new(ranges.len());
        for (pos, &i) in order.iter().enumerate() {
            let done = slots.complete(i, values[ranges[i].clone()].to_vec());
            // `complete` reports readiness exactly once: on the final
            // chunk of the interleaving, whichever index that is.
            prop_assert_eq!(done, pos + 1 == order.len(), "chunk {} at {}", i, pos);
        }
        let merged = slots.merged();
        prop_assert_eq!(&merged, &serial);
        prop_assert_eq!(fold_bits(&merged), fold_bits(&serial));
    }

    /// Full fan-out through `run_graph`: (pattern × chunk) tasks are
    /// injected in a random order and executed by a real worker pool,
    /// yet every pattern's merged output and the cross-pattern FP fold
    /// match the serial trace bit-for-bit.
    #[test]
    fn run_graph_merge_matches_serial_trace(
        per_pattern in prop::collection::vec(
            prop::collection::vec(-1.0e3f64..1.0e3, 1..60), 1..6),
        workers in 1usize..5,
        keys in prop::collection::vec(any::<u64>(), 32),
    ) {
        // Serial trace: each pattern processed alone, candidates in order.
        let eval = |x: f64| x * 1.5 + 1.0;
        let serial: Vec<Vec<f64>> = per_pattern
            .iter()
            .map(|v| v.iter().map(|&x| eval(x)).collect())
            .collect();
        let serial_fold = fold_bits(
            &serial.iter().flatten().copied().collect::<Vec<_>>());

        let ranges: Vec<Vec<Range<usize>>> = per_pattern
            .iter()
            .map(|v| sched::chunk_ranges(v.len(), workers, 4))
            .collect();
        let slots: Vec<ChunkSlots<f64>> =
            ranges.iter().map(|r| ChunkSlots::new(r.len())).collect();

        // Inject (pattern, chunk) tasks in a random interleaving.
        let mut tasks: Vec<(usize, usize)> = ranges
            .iter()
            .enumerate()
            .flat_map(|(p, rs)| (0..rs.len()).map(move |c| (p, c)))
            .collect();
        tasks.sort_by_key(|&(p, c)| keys[(p * 31 + c) % keys.len()]);

        sched::run_graph(workers, tasks, |(p, c), _spawn| {
            let out: Vec<f64> =
                per_pattern[p][ranges[p][c].clone()].iter().map(|&x| eval(x)).collect();
            slots[p].complete(c, out);
        });

        let merged: Vec<Vec<f64>> = slots.iter().map(|s| s.merged()).collect();
        prop_assert_eq!(&merged, &serial);
        let merged_fold = fold_bits(
            &merged.iter().flatten().copied().collect::<Vec<_>>());
        prop_assert_eq!(merged_fold, serial_fold);
    }
}
