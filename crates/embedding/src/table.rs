//! The embedding table: a dense `rows x dim` array of trainable vectors,
//! stored contiguously exactly as described in Section II-A of the paper
//! ("stored contiguously within the memory address space as a single
//! dimensional array").
//!
//! A table slab larger than one 2 MB huge page asks Linux for transparent
//! huge pages (`madvise(MADV_HUGEPAGE)`) before it is first written. Each
//! random row a gather or scatter touches is a DRAM miss, and on 4 KB
//! pages most of them also miss the TLB and pay a page walk; a 2 MB page
//! covers 512 times the rows. The advice changes how pages are backed,
//! never what they hold, and a host that does not grant it (THP `never`,
//! another OS) keeps 4 KB pages.

use crate::error::EmbeddingError;
use std::mem::MaybeUninit;
use tcast_tensor::SplitMix64;

/// Bytes of an x86-64 / arm64 transparent huge page: slabs at most this
/// large are left on base pages.
#[cfg(target_os = "linux")]
const HUGE_PAGE: usize = 2 << 20;

#[cfg(target_os = "linux")]
extern "C" {
    // From the C library std already links.
    fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
}

/// `madvise`'s transparent-huge-page advice (`asm-generic/mman-common.h`).
#[cfg(target_os = "linux")]
const MADV_HUGEPAGE: i32 = 14;

/// Floats in one band of a seeded fill at the least (16 MB): a slab under
/// two of them fills on the calling thread alone. Starting a thread costs
/// tens of microseconds; drawing 16 MB costs milliseconds.
const BAND_FLOOR: usize = 4 << 20;

/// Floats a band zeroes and then draws over at a time (16 KB): small
/// enough that the draws overwrite the zeros in L1, so each byte of the
/// slab is written to memory once.
const FILL_CHUNK: usize = 4 << 10;

/// An empty slab with room for `len` floats, advised onto huge pages
/// (where that applies: over [`HUGE_PAGE`], on Linux) before anything
/// writes it, so its pages fault in huge rather than waiting for the
/// kernel to collapse them.
fn advised(len: usize) -> Vec<f32> {
    let mut data = Vec::with_capacity(len);
    #[cfg(target_os = "linux")]
    if len * std::mem::size_of::<f32>() > HUGE_PAGE {
        // `madvise` takes whole base pages: the range is the allocation
        // shrunk to 4 KB boundaries (the allocator's header usually puts
        // its start just past one).
        let (start, bytes) = (data.as_mut_ptr() as usize, len * std::mem::size_of::<f32>());
        let lo = start.next_multiple_of(4096);
        let hi = (start + bytes) / 4096 * 4096;
        debug_assert!(start <= lo && lo < hi && hi <= start + bytes);
        // SAFETY: `lo..hi` lies inside the allocation `data` owns (the
        // capacity reserved above). MADV_HUGEPAGE changes only how the
        // kernel backs those pages, never their contents or their
        // mapping, so no Rust-visible memory changes; a refusal (THP off,
        // an older kernel) is harmless and its result is ignored.
        unsafe { madvise(lo as *mut std::ffi::c_void, hi - lo, MADV_HUGEPAGE) };
    }
    data
}

/// Bands a seeded slab of `len` floats fills in: one per available core,
/// each at least [`BAND_FLOOR`] floats.
fn band_count(len: usize) -> usize {
    match len / BAND_FLOOR {
        0 | 1 => 1,
        most => std::thread::available_parallelism().map_or(1, |n| n.get().min(most)),
    }
}

/// An [`advised`] slab of `len` floats holding `rng`'s `next_range(lo,
/// hi)` stream, written in `bands` contiguous bands: the calling thread
/// fills the last, a scoped thread each of the others, band `b` from
/// draw `first_b` on ([`SplitMix64::fill_range`] needs no draw before
/// it). A band's work allocates nothing, and each thread takes the
/// first-touch page faults of its own band. `bands` is [`band_count`]
/// except in tests.
fn seeded_slab(len: usize, rng: &SplitMix64, lo: f32, hi: f32, bands: usize) -> Vec<f32> {
    let mut data = advised(len);
    let fill = |band: &mut [MaybeUninit<f32>], first: usize| {
        for (i, chunk) in band.chunks_mut(FILL_CHUNK).enumerate() {
            chunk.fill(MaybeUninit::new(0.0));
            // SAFETY: every element of `chunk` was initialized just above,
            // and `MaybeUninit<f32>` has `f32`'s layout.
            let chunk = unsafe { &mut *(chunk as *mut [MaybeUninit<f32>] as *mut [f32]) };
            rng.fill_range((first + i * FILL_CHUNK) as u64, chunk, lo, hi);
        }
    };
    std::thread::scope(|scope| {
        let (mut rest, mut first) = (&mut data.spare_capacity_mut()[..len], 0);
        for b in 1..=bands {
            let end = len * b / bands;
            let (band, tail) = std::mem::take(&mut rest).split_at_mut(end - first);
            if b == bands {
                fill(band, first);
            } else {
                scope.spawn(move || fill(band, first));
            }
            (rest, first) = (tail, end);
        }
    });
    // SAFETY: the scope joined every band, and the bands cover `0..len`
    // of the capacity `advised` reserved, each element written.
    unsafe { data.set_len(len) };
    data
}

/// A trainable embedding table.
///
/// Rows are the embedding vectors of each categorical value; the whole
/// table is one contiguous `Vec<f32>` so gathers exhibit the same
/// sparse-row access pattern the paper analyzes.
///
/// ```
/// use tcast_embedding::EmbeddingTable;
///
/// let table = EmbeddingTable::seeded(1000, 64, 1);
/// assert_eq!(table.rows(), 1000);
/// assert_eq!(table.dim(), 64);
/// assert_eq!(table.row(5).len(), 64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    rows: usize,
    dim: usize,
    data: Vec<f32>,
}

impl EmbeddingTable {
    /// Creates a zero-initialized table.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        let mut data = advised(rows * dim);
        data.resize(rows * dim, 0.0);
        Self { rows, dim, data }
    }

    /// Creates a table with small uniform random entries in
    /// `[-1/sqrt(dim), 1/sqrt(dim)]` (DLRM's embedding init), seeded for
    /// reproducibility.
    ///
    /// Entry `i` of the row-major slab is draw `i` of
    /// `SplitMix64::new(seed)`'s `next_range` stream. Every byte is
    /// written before this returns; a slab of two 16 MB bands or more is
    /// written by one thread per core.
    pub fn seeded(rows: usize, dim: usize, seed: u64) -> Self {
        let bound = 1.0 / (dim.max(1) as f32).sqrt();
        let len = rows * dim;
        let data = seeded_slab(len, &SplitMix64::new(seed), -bound, bound, band_count(len));
        Self { rows, dim, data }
    }

    /// Builds a table from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::LengthMismatch`] if
    /// `data.len() != rows * dim`.
    pub fn from_vec(rows: usize, dim: usize, data: Vec<f32>) -> Result<Self, EmbeddingError> {
        if data.len() != rows * dim {
            return Err(EmbeddingError::LengthMismatch {
                expected: rows * dim,
                found: data.len(),
            });
        }
        Ok(Self { rows, dim, data })
    }

    /// Number of embedding vectors (categorical cardinality).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding vector width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &self.data[r * self.dim..(r + 1) * self.dim]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.dim..(r + 1) * self.dim]
    }

    /// Immutable view of the whole backing storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the whole backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Maximum absolute elementwise difference against another table.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::DimMismatch`] if shapes differ.
    pub fn max_abs_diff(&self, other: &EmbeddingTable) -> Result<f32, EmbeddingError> {
        if self.rows != other.rows || self.dim != other.dim {
            return Err(EmbeddingError::DimMismatch {
                expected: self.dim,
                found: other.dim,
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_layout() {
        let t = EmbeddingTable::zeros(4, 3);
        assert_eq!(t.rows(), 4);
        assert_eq!(t.dim(), 3);
        assert_eq!(t.as_slice().len(), 12);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn seeded_is_deterministic_and_bounded() {
        let a = EmbeddingTable::seeded(10, 16, 9);
        let b = EmbeddingTable::seeded(10, 16, 9);
        assert_eq!(a, b);
        let bound = 1.0 / 4.0;
        assert!(a.as_slice().iter().all(|v| v.abs() <= bound));
        let c = EmbeddingTable::seeded(10, 16, 10);
        assert!(a.max_abs_diff(&c).unwrap() > 0.0);
    }

    #[test]
    fn huge_page_slabs_hold_the_same_bits() {
        // One table under the 2 MB huge page and one over it (2.5 MB): the
        // values `seeded` always drew, and zeros. Where the pages come
        // from is the host's business and not asserted.
        for (rows, dim) in [(1_000, 64), (10_000, 64)] {
            let bound = 1.0 / 8.0;
            let mut rng = SplitMix64::new(5);
            let drawn: Vec<u32> = (0..rows * dim)
                .map(|_| rng.next_range(-bound, bound).to_bits())
                .collect();
            let table = EmbeddingTable::seeded(rows, dim, 5);
            let bits: Vec<u32> = table.as_slice().iter().map(|v| v.to_bits()).collect();
            assert!(bits == drawn, "{rows} x {dim}");
            let zeros = EmbeddingTable::zeros(rows, dim);
            assert_eq!(zeros.as_slice().len(), rows * dim);
            assert!(zeros.as_slice().iter().all(|v| v.to_bits() == 0));
        }
    }

    /// The banded fill against the per-element `next_range` loop it
    /// replaced, bit for bit: one to four bands (so bands of zero floats
    /// too), lengths around the sixteen-draw block, [`FILL_CHUNK`] and
    /// [`BAND_FLOOR`].
    #[test]
    fn banded_fill_is_the_next_range_stream() {
        let (seed, bound) = (0x7AB1E, 0.125);
        let floor = BAND_FLOOR;
        let mut rng = SplitMix64::new(seed);
        let drawn: Vec<u32> = (0..=floor + 1)
            .map(|_| rng.next_range(-bound, bound).to_bits())
            .collect();
        for len in [0, 1, 7, 8, 9, 63, 64, 65, floor - 1, floor, floor + 1] {
            for bands in 1..=4 {
                let out = seeded_slab(len, &SplitMix64::new(seed), -bound, bound, bands);
                assert_eq!(out.len(), len);
                let same = out.iter().zip(&drawn).all(|(v, &d)| v.to_bits() == d);
                assert!(same, "{len} floats in {bands} bands");
            }
        }
    }

    #[test]
    fn only_slabs_of_two_floors_are_banded() {
        for len in [0, 1, BAND_FLOOR, 2 * BAND_FLOOR - 1] {
            assert_eq!(band_count(len), 1, "{len}");
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(band_count(2 * BAND_FLOOR), cores.min(2));
        assert_eq!(band_count(64 * BAND_FLOOR), cores.min(64));
    }

    /// FNV-1a over the bit patterns of `seeded(1000, 64, 1)`, recorded
    /// from the per-element `next_range` loop `seeded` ran before it
    /// filled in bands. Never re-pin it.
    #[test]
    fn seeded_table_is_pinned() {
        let table = EmbeddingTable::seeded(1000, 64, 1);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in table.as_slice() {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x4e4d_dedc_f758_809e);
    }

    #[test]
    fn from_vec_validates() {
        assert!(EmbeddingTable::from_vec(2, 2, vec![0.0; 4]).is_ok());
        assert!(EmbeddingTable::from_vec(2, 2, vec![0.0; 5]).is_err());
    }

    #[test]
    fn row_views_are_contiguous() {
        let t = EmbeddingTable::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.row(0), &[1.0, 2.0]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut t = EmbeddingTable::zeros(2, 2);
        t.row_mut(1)[0] = 9.0;
        assert_eq!(t.as_slice()[2], 9.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        EmbeddingTable::zeros(1, 1).row(1);
    }

    #[test]
    fn max_abs_diff_shape_check() {
        let a = EmbeddingTable::zeros(2, 2);
        let b = EmbeddingTable::zeros(2, 3);
        assert!(a.max_abs_diff(&b).is_err());
    }
}
