//! The casted and the baseline backward sort their lookups with one
//! stable LSD radix sort (`tcast_embedding::radix_sort_pairs`). This suite
//! proptests both of its users — Algorithm 2's cast and Algorithm 1's
//! coalescer — bit for bit against the comparison sort they ran before,
//! on the id distributions that stress it: flat and Zipf-skewed ids,
//! all-equal ids, empty and one-lookup arrays, and the largest ids at the
//! 2^11 / 2^22 boundaries where the pass count changes and at `u32::MAX`.
//! Every case first sorts a larger array through the same scratch, so
//! stale buffer contents must never leak into a smaller sort.

use proptest::prelude::*;
use tensor_casting::core::{tensor_casting, tensor_casting_into, CastedIndexArray};
use tensor_casting::datasets::{Popularity, TableWorkload};
use tensor_casting::embedding::{
    gradient_coalesce_into, CoalescedGradients, IndexArray, RadixScratch,
};
use tensor_casting::tensor::{Matrix, SplitMix64};

/// The comparison sort both paths ran before: `(src, position)` packed
/// into a `u64` makes every key distinct, so an unstable sort of them is
/// the stable sort by `src`.
fn packed_sort(index: &IndexArray) -> Vec<u64> {
    let mut keys: Vec<u64> = index
        .src()
        .iter()
        .enumerate()
        .map(|(pos, &src)| (src as u64) << 32 | pos as u64)
        .collect();
    keys.sort_unstable();
    keys
}

/// Algorithm 2 over the oracle's order, through the validating
/// constructor.
fn oracle_cast(index: &IndexArray) -> CastedIndexArray {
    let (mut gather, mut reduce, mut unique) = (Vec::new(), Vec::new(), Vec::new());
    for key in packed_sort(index) {
        let src = (key >> 32) as u32;
        if unique.last() != Some(&src) {
            unique.push(src);
        }
        gather.push(index.dst()[key as u32 as usize]);
        reduce.push(unique.len() as u32 - 1);
    }
    CastedIndexArray::new(gather, reduce, unique, index.num_outputs()).unwrap()
}

/// Algorithm 1's accumulation over the oracle's order: `(rows, grads)`.
fn oracle_coalesce(expanded: &Matrix, index: &IndexArray) -> (Vec<u32>, Vec<f32>) {
    let (mut rows, mut grads) = (Vec::new(), Vec::<f32>::new());
    let dim = expanded.cols();
    for key in packed_sort(index) {
        let (src, row) = ((key >> 32) as u32, expanded.row(key as u32 as usize));
        if rows.last() == Some(&src) {
            let at = grads.len() - dim;
            for (acc, &g) in grads[at..].iter_mut().zip(row) {
                *acc += g;
            }
        } else {
            rows.push(src);
            grads.extend_from_slice(row);
        }
    }
    (rows, grads)
}

/// The largest ids at which the radix sort's pass count changes, and the
/// largest id there is.
const BOUNDARIES: [u32; 5] = [(1 << 11) - 1, 1 << 11, (1 << 22) - 1, 1 << 22, u32::MAX];

/// One index array of the family `kind` with about `n` lookups.
fn family(kind: u32, n: usize, seed: u64) -> IndexArray {
    let mut rng = SplitMix64::new(seed);
    let pooling = 1 + rng.next_below(8) as usize;
    let batch = (n / pooling).max(1);
    let outputs = 1 + rng.next_below(64) as usize;
    let pairs = |src: Vec<u32>, rng: &mut SplitMix64| {
        let dst = src
            .iter()
            .map(|_| rng.next_below(outputs as u64) as u32)
            .collect();
        IndexArray::from_pairs(src, dst, outputs).unwrap()
    };
    match kind {
        // Skew 0: flat ids over up to 16M rows.
        0 => {
            let rows = 1 + rng.next_below(1 << 24) as usize;
            TableWorkload::new(Popularity::Uniform { rows }, pooling)
                .generator(seed)
                .next_batch(batch)
        }
        // Zipf 1.05, the benchmark's table skew: long runs of hot ids.
        1 => {
            let rows = 1 + rng.next_below(50_000) as usize;
            TableWorkload::new(
                Popularity::Zipf {
                    rows,
                    exponent: 1.05,
                },
                pooling,
            )
            .generator(seed)
            .next_batch(batch)
        }
        // All-equal ids, anywhere in the id space.
        2 => {
            let id = rng.next_u64() as u32;
            pairs(vec![id; n], &mut rng)
        }
        // Empty.
        3 => IndexArray::from_pairs(Vec::new(), Vec::new(), outputs).unwrap(),
        // One lookup.
        4 => pairs(vec![rng.next_u64() as u32], &mut rng),
        // Largest id at a pass-count boundary, the rest below it.
        _ => {
            let max = BOUNDARIES[rng.next_below(BOUNDARIES.len() as u64) as usize];
            let mut src: Vec<u32> = (0..n)
                .map(|_| rng.next_below(max as u64 + 1) as u32)
                .collect();
            src.push(max);
            pairs(src, &mut rng)
        }
    }
}

/// What every case sorts first, through the same scratch: more lookups
/// and more passes than any case.
fn larger_array() -> IndexArray {
    let src: Vec<u32> = (0..2048u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let dst = (0..2048).map(|i| i % 7).collect();
    IndexArray::from_pairs(src, dst, 7).unwrap()
}

fn expanded_for(index: &IndexArray, seed: u64) -> Matrix {
    let mut expanded = Matrix::zeros(index.len(), 3);
    for (i, v) in expanded.as_mut_slice().iter_mut().enumerate() {
        // Magnitudes 2^-20..2^20 apart: any change in accumulation order
        // changes the rounded sums.
        *v = ((i as u64 ^ seed) as f32).sin() * 2f32.powi((i % 41) as i32 - 20);
    }
    expanded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn cast_matches_the_comparison_sort(
        kind in 0u32..6,
        n in 1usize..600,
        seed in any::<u64>(),
    ) {
        let index = family(kind, n, seed);
        let expected = oracle_cast(&index);
        prop_assert_eq!(&tensor_casting(&index), &expected);
        // Into buffers a larger cast left dirty.
        let (mut out, mut scratch) = (CastedIndexArray::default(), RadixScratch::default());
        tensor_casting_into(&larger_array(), &mut out, &mut scratch);
        tensor_casting_into(&index, &mut out, &mut scratch);
        prop_assert_eq!(&out, &expected, "kind {} after a larger cast", kind);
    }

    #[test]
    fn coalesce_matches_the_comparison_sort(
        kind in 0u32..6,
        n in 1usize..600,
        seed in any::<u64>(),
    ) {
        let index = family(kind, n, seed);
        let expanded = expanded_for(&index, seed);
        let (rows, grads) = oracle_coalesce(&expanded, &index);
        let mut out = CoalescedGradients::default();
        let mut scratch = RadixScratch::default();
        let larger = larger_array();
        let larger_expanded = expanded_for(&larger, seed);
        gradient_coalesce_into(&larger_expanded, &larger, &mut out, &mut scratch)
            .unwrap();
        gradient_coalesce_into(&expanded, &index, &mut out, &mut scratch).unwrap();
        prop_assert_eq!(out.rows(), &rows[..], "kind {}", kind);
        let bits = |v: &[f32]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(out.grads().as_slice()), bits(&grads), "kind {}", kind);
    }
}
