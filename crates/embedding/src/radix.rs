//! The one sort-by-key of the embedding backward: a stable LSD radix sort
//! over `(u32 key, u32 payload)` pairs.
//!
//! Algorithm 1's argsort ([`crate::gradient_coalesce_into`], payload = the
//! lookup's position) and Algorithm 2's sort-by-key (`tcast-core`'s
//! casting, payload = the lookup's `dst`) both run it, so the baseline and
//! the casted backward order tied lookups identically by construction —
//! what makes their equivalence bitwise. LSD radix is stable, so ties keep
//! their original pair order, exactly as a stable comparison sort would.
//!
//! The sort is linear in the number of pairs:
//!
//! * **Passes.** The pass count follows from the largest key
//!   ([`radix_passes`]): its significant bits split into equal digits of
//!   at most 11 bits, so 400k rows is two 10-bit passes and 5M rows three
//!   8-bit ones.
//! * **Histograms.** One read packs the pairs and counts every digit's
//!   histogram at once.
//! * **Scratch.** The passes ping-pong between two pair arrays held in a
//!   caller-owned [`RadixScratch`], so a warm sort allocates nothing.

/// The widest digit, in bits: a 2048-bucket histogram (8 KB) stays in L1.
const MAX_DIGIT_BITS: u32 = 11;

/// How many digit passes [`radix_sort_pairs`] makes over keys no larger
/// than `max_key`: `ceil(bits / 11)` for the key's `bits` significant
/// bits — 2 for RM1's 400k rows (19 bits), 3 for 5M rows (23 bits) and
/// for `u32::MAX`, none when every key is 0.
pub(crate) fn radix_passes(max_key: u32) -> u32 {
    (u32::BITS - max_key.leading_zeros()).div_ceil(MAX_DIGIT_BITS)
}

/// The equal digit width, in bits, of `passes` passes over `max_key`'s
/// significant bits (0 when there are no passes).
fn digit_bits(max_key: u32, passes: u32) -> u32 {
    match passes {
        0 => 0,
        p => (u32::BITS - max_key.leading_zeros()).div_ceil(p),
    }
}

/// Reusable buffers of [`radix_sort_pairs`]: the two pair arrays the
/// passes ping-pong between and the digit histograms. Each keeps its
/// capacity across calls, and stale contents from a larger earlier sort
/// are never read.
#[derive(Debug, Clone, Default)]
pub struct RadixScratch {
    pairs: Vec<u64>,
    alt: Vec<u64>,
    /// One histogram per pass, turned into that pass's bucket offsets
    /// right before it runs.
    counts: Vec<u32>,
}

/// Sorts the pairs `(keys[i], payloads[i])` by key, stably, and returns
/// them packed as `key << 32 | payload` in ascending key order — borrowed
/// from `scratch`, valid until its next use.
///
/// # Panics
///
/// Panics if `payloads` does not yield exactly one payload per key.
///
/// ```
/// use tcast_embedding::{radix_sort_pairs, RadixScratch};
///
/// let mut scratch = RadixScratch::default();
/// let sorted = radix_sort_pairs(&[4, 2, 4, 0], [10, 11, 12, 13], &mut scratch);
/// let pairs: Vec<(u32, u32)> = sorted.iter().map(|&p| ((p >> 32) as u32, p as u32)).collect();
/// assert_eq!(pairs, [(0, 13), (2, 11), (4, 10), (4, 12)]);
/// ```
pub fn radix_sort_pairs<'s, P>(
    keys: &[u32],
    payloads: P,
    scratch: &'s mut RadixScratch,
) -> &'s [u64]
where
    P: IntoIterator<Item = u32>,
    P::IntoIter: ExactSizeIterator,
{
    let payloads = payloads.into_iter();
    let n = keys.len();
    assert_eq!(payloads.len(), n, "one payload per key");
    let max_key = keys.iter().copied().max().unwrap_or(0);
    let passes = radix_passes(max_key);
    let digits = Digits::new(digit_bits(max_key, passes));

    let RadixScratch { pairs, alt, counts } = scratch;
    for buf in [&mut *pairs, &mut *alt] {
        if buf.len() < n {
            buf.resize(n, 0);
        }
    }
    counts.clear();
    counts.resize(passes as usize * digits.radix(), 0);
    let packed = keys.iter().zip(payloads).zip(pairs.iter_mut());
    match passes {
        0 => pack_and_count::<0>(packed, counts, digits),
        1 => pack_and_count::<1>(packed, counts, digits),
        2 => pack_and_count::<2>(packed, counts, digits),
        _ => pack_and_count::<3>(packed, counts, digits),
    }

    // One stable scatter per digit, least significant first.
    let (mut from, mut to) = (&mut pairs[..n], &mut alt[..n]);
    for (pass, offsets) in counts.chunks_exact_mut(digits.radix()).enumerate() {
        let mut next = 0;
        for slot in offsets.iter_mut() {
            let count = *slot;
            *slot = next;
            next += count;
        }
        let shift = 32 + digits.bits * pass as u32;
        let digit = |pair: u64| digits.of((pair >> shift) as u32, 0);
        // Two pairs a step, both offsets read before either is bumped: a
        // bucket hit twice in a row (a skewed table's hot rows) then
        // costs one dependent offset update per two pairs, not two.
        let mut twos = from.chunks_exact(2);
        for two in &mut twos {
            let (a, b) = (two[0], two[1]);
            let (da, db) = (digit(a), digit(b));
            let at_a = offsets[da];
            let at_b = offsets[db] + (da == db) as u32;
            offsets[da] = at_a + 1;
            offsets[db] = at_b + 1;
            to[at_a as usize] = a;
            to[at_b as usize] = b;
        }
        for &pair in twos.remainder() {
            let bucket = &mut offsets[digit(pair)];
            to[*bucket as usize] = pair;
            *bucket += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    from
}

/// Equal-width digits of a key.
#[derive(Debug, Clone, Copy)]
struct Digits {
    bits: u32,
    mask: u32,
}

impl Digits {
    fn new(bits: u32) -> Self {
        Self {
            bits,
            mask: (1 << bits) - 1,
        }
    }

    /// Buckets a digit takes.
    fn radix(self) -> usize {
        self.mask as usize + 1
    }

    /// Digit `pass` of `key`, least significant first.
    fn of(self, key: u32, pass: usize) -> usize {
        ((key >> (self.bits * pass as u32)) & self.mask) as usize
    }
}

/// Packs each `(key, payload)` as `key << 32 | payload` into its slot and
/// counts all `PASSES` digit histograms of the key in the same read.
fn pack_and_count<'a, const PASSES: usize>(
    packed: impl Iterator<Item = ((&'a u32, u32), &'a mut u64)>,
    counts: &mut [u32],
    digits: Digits,
) {
    let mut chunks = counts.chunks_exact_mut(digits.radix());
    let mut hists: [&mut [u32]; PASSES] =
        std::array::from_fn(|_| chunks.next().expect("a histogram a pass"));
    for ((&key, payload), slot) in packed {
        *slot = (key as u64) << 32 | payload as u64;
        for (pass, hist) in hists.iter_mut().enumerate() {
            hist[digits.of(key, pass)] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexArray;

    /// The comparison-sort oracle ([`IndexArray::sorted_by_src`]), packed
    /// like the radix sort's output.
    fn oracle(keys: &[u32], payloads: &[u32]) -> Vec<u64> {
        let pairs = IndexArray::from_pairs(keys.to_vec(), payloads.to_vec(), 1 << 32).unwrap();
        let (keys, payloads) = pairs.sorted_by_src();
        keys.iter()
            .zip(payloads)
            .map(|(&k, p)| (k as u64) << 32 | p as u64)
            .collect()
    }

    #[test]
    fn pass_counts_follow_the_largest_key() {
        let plan = |max| {
            let passes = radix_passes(max);
            (passes, digit_bits(max, passes))
        };
        assert_eq!(plan(400_000 - 1), (2, 10));
        assert_eq!(plan(10_000 - 1), (2, 7));
        assert_eq!(plan(5_000_000 - 1), (3, 8));
        assert_eq!(plan(u32::MAX), (3, 11));
        assert_eq!(plan(0), (0, 0));
        assert_eq!(plan(1), (1, 1));
        // Where the pass count changes.
        assert_eq!(plan((1 << 11) - 1), (1, 11));
        assert_eq!(plan(1 << 11), (2, 6));
        assert_eq!(plan((1 << 22) - 1), (2, 11));
        assert_eq!(plan(1 << 22), (3, 8));
    }

    #[test]
    fn sort_passes_are_the_kernels() {
        // What the kernel makes over RM1's 400k-row tables and a 5M-row
        // one: the pass counts the paper model's sort traffic assumes.
        assert_eq!(radix_passes(400_000 - 1), 2);
        assert_eq!(radix_passes(5_000_000 - 1), 3);
    }

    #[test]
    fn matches_the_comparison_sort_on_ties_and_every_pass_count() {
        let mut scratch = RadixScratch::default();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for max in [0u32, 1, 1 << 11, 1 << 22, u32::MAX] {
            for n in [0usize, 1, 7, 300, 5000] {
                // Few distinct keys: heavy ties.
                let keys: Vec<u32> = (0..n)
                    .map(|i| match i % 3 {
                        0 => max,
                        _ => (next() % (max as u64 + 1)) as u32 & !0xF,
                    })
                    .collect();
                let payloads: Vec<u32> = (0..n).map(|_| next() as u32).collect();
                let sorted = radix_sort_pairs(&keys, payloads.iter().copied(), &mut scratch);
                assert_eq!(sorted, oracle(&keys, &payloads), "max {max}, n {n}");
            }
        }
    }

    #[test]
    fn dirty_scratch_is_never_read() {
        let mut scratch = RadixScratch::default();
        let big: Vec<u32> = (0..4096u32)
            .rev()
            .map(|k| k.wrapping_mul(2_654_435_761))
            .collect();
        radix_sort_pairs(&big, 0..big.len() as u32, &mut scratch);
        let small = [3u32, 1, 3, 0];
        let sorted = radix_sort_pairs(&small, 0..4, &mut scratch);
        assert_eq!(sorted, oracle(&small, &[0, 1, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "one payload per key")]
    fn rejects_a_payload_count_mismatch() {
        radix_sort_pairs(&[1, 2], 0..1, &mut RadixScratch::default());
    }
}
