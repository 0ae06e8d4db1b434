//! Analytic memory-traffic model for the embedding-layer primitives
//! (Section III-C of the paper).
//!
//! "To quantify the microarchitecture independent behavior of embedding
//! layer's key primitives, we derive the amount of data the processor
//! loads and stores for each primitive, which can be derived analytically
//! by its algorithmic property." — this module is that derivation.
//!
//! The model is parameterized by the *workload shape*: number of lookups
//! `n`, number of pooled outputs `B` (the mini-batch), number of unique
//! `src` ids `U`, and the embedding dimension `D`. All counts are bytes
//! with `f32` (4 B) elements and `(u32, u32)` (8 B) index pairs.
//!
//! These formulas regenerate Fig. 6 and, combined with effective-bandwidth
//! numbers, the latency model behind Figs. 4/12/13.

use tcast_embedding::IndexArray;

/// Bytes per embedding element (`f32`).
pub const ELEM_BYTES: u64 = 4;
/// Bytes per `(src, dst)` index pair (`u32` each).
pub const PAIR_BYTES: u64 = 8;
/// Bytes per single index (`u32`).
pub const INDEX_BYTES: u64 = 4;

/// The shape of one table's mini-batch workload, the independent variables
/// of the traffic model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadShape {
    /// Total lookups `n` (index pairs).
    pub lookups: u64,
    /// Pooled output slots `B` (mini-batch size).
    pub outputs: u64,
    /// Unique `src` ids `U` (size of the coalesced gradient).
    pub unique: u64,
    /// Embedding dimension `D`.
    pub dim: u64,
}

impl WorkloadShape {
    /// Derives the shape of an actual index array.
    pub fn of(index: &IndexArray, dim: usize) -> Self {
        Self {
            lookups: index.len() as u64,
            outputs: index.num_outputs() as u64,
            unique: index.unique_src_count() as u64,
            dim: dim as u64,
        }
    }

    /// Bytes of one embedding row.
    pub fn row_bytes(&self) -> u64 {
        self.dim * ELEM_BYTES
    }
}

/// Read/write byte counts of one primitive invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    /// Bytes loaded from memory.
    pub read_bytes: u64,
    /// Bytes stored to memory.
    pub write_bytes: u64,
}

impl Traffic {
    /// Creates a traffic record.
    pub fn new(read_bytes: u64, write_bytes: u64) -> Self {
        Self {
            read_bytes,
            write_bytes,
        }
    }

    /// Total moved bytes.
    pub fn total(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

impl std::ops::Add for Traffic {
    type Output = Traffic;

    fn add(self, rhs: Traffic) -> Traffic {
        Traffic::new(
            self.read_bytes + rhs.read_bytes,
            self.write_bytes + rhs.write_bytes,
        )
    }
}

impl std::iter::Sum for Traffic {
    fn sum<I: Iterator<Item = Traffic>>(iter: I) -> Traffic {
        iter.fold(Traffic::default(), |a, b| a + b)
    }
}

/// Fused tensor gather-reduce (forward): reads `n` embedding rows plus the
/// index pairs, writes `B` pooled rows. The fusion means no `n x D`
/// intermediate is ever written (Fig. 2a caption).
pub fn gather_reduce(s: &WorkloadShape) -> Traffic {
    Traffic::new(
        s.lookups * s.row_bytes() + s.lookups * PAIR_BYTES,
        s.outputs * s.row_bytes(),
    )
}

/// Unfused gather (ablation): like [`gather_reduce`] but writes all `n`
/// gathered rows.
pub fn gather_unfused(s: &WorkloadShape) -> Traffic {
    Traffic::new(
        s.lookups * s.row_bytes() + s.lookups * PAIR_BYTES,
        s.lookups * s.row_bytes(),
    )
}

/// Standalone reduce over gathered rows (second half of the unfused path).
pub fn reduce_unfused(s: &WorkloadShape) -> Traffic {
    Traffic::new(s.lookups * s.row_bytes(), s.outputs * s.row_bytes())
}

/// Gradient expand (backward step 1): reads the `B` backpropagated rows
/// and the `dst` indices, writes `n` expanded rows.
pub fn gradient_expand(s: &WorkloadShape) -> Traffic {
    Traffic::new(
        s.outputs * s.row_bytes() + s.lookups * INDEX_BYTES,
        s.lookups * s.row_bytes(),
    )
}

/// Gradient-coalesce accumulation (backward step 2, Step B of Algorithm 1
/// only): reads the `n` expanded rows, writes `U` coalesced rows.
///
/// Matches Fig. 6's convention: "the Coalesce bar only accounts for the
/// gradient accumulation step" — sorting traffic is reported separately by
/// [`coalesce_sort`].
pub fn coalesce_accumulate(s: &WorkloadShape) -> Traffic {
    Traffic::new(s.lookups * s.row_bytes(), s.unique * s.row_bytes())
}

/// Index-sorting traffic of Algorithm 1 Step A, modelled as an LSD radix
/// sort over the 8-byte `(src, position)` keys with `passes` read+write
/// sweeps. The kernel both backward paths run
/// ([`tcast_embedding::radix_sort_pairs`]) takes its pass count from the largest
/// id: the id's significant bits in equal digits of at most 11 bits — 2
/// passes for RM1's 400k rows, 3 for 5M rows or a full 32-bit id space.
pub fn coalesce_sort(s: &WorkloadShape, passes: u32) -> Traffic {
    let bytes = s.lookups * PAIR_BYTES * passes as u64;
    Traffic::new(bytes, bytes)
}

/// Gradient scatter (backward step 3) with an optimizer whose per-element
/// state traffic is `state_bytes_per_elem` (0 for SGD, 8 for
/// Adagrad/RMSprop/momentum — one f32 accumulator read + write).
///
/// Reads the `U` coalesced gradient rows, the `U` current table rows and
/// the row ids; writes the `U` updated table rows.
pub fn scatter(s: &WorkloadShape, state_bytes_per_elem: u64) -> Traffic {
    let state = s.unique * s.dim * state_bytes_per_elem;
    Traffic::new(
        2 * s.unique * s.row_bytes() + s.unique * INDEX_BYTES + state / 2,
        s.unique * s.row_bytes() + state / 2,
    )
}

/// The casted gradient gather-reduce (Algorithm 3): reads `n` rows of the
/// `B x D` gradient table (plus casted index pairs), writes `U` coalesced
/// rows. One fused pass — the expanded `n x D` intermediate never exists.
pub fn casted_gather_reduce(s: &WorkloadShape) -> Traffic {
    Traffic::new(
        s.lookups * s.row_bytes() + s.lookups * PAIR_BYTES,
        s.unique * s.row_bytes(),
    )
}

/// Index-transformation traffic of the casting step itself (Algorithm 2):
/// sort-by-key over `n` pairs plus the scan and cumulative-sum sweeps over
/// `n` `u32`s. This is *index-only* traffic — independent of `D` — which
/// is why it is cheap and hideable under forward propagation.
pub fn casting(s: &WorkloadShape, sort_passes: u32) -> Traffic {
    let sort = coalesce_sort(s, sort_passes);
    // scan: read n u32, write n u32; cumsum: read n, write n.
    let sweep = 2 * s.lookups * INDEX_BYTES;
    Traffic::new(sort.read_bytes + sweep, sort.write_bytes + sweep)
}

/// Total baseline backward traffic before scatter: expand + coalesce
/// accumulation (the quantity Tensor Casting halves).
pub fn expand_coalesce_total(s: &WorkloadShape) -> Traffic {
    gradient_expand(s) + coalesce_accumulate(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 5/6 setup: pooling factor 10, so `n = 10 B`, with
    /// `U ~ n` for the uniform-random dataset.
    fn fig6_random_shape() -> WorkloadShape {
        WorkloadShape {
            lookups: 10 * 2048,
            outputs: 2048,
            unique: (10.0 * 2048.0 * 0.95) as u64, // near-distinct under uniform
            dim: 64,
        }
    }

    #[test]
    fn shape_from_index_array() {
        let idx = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]]).unwrap();
        let s = WorkloadShape::of(&idx, 16);
        assert_eq!(s.lookups, 5);
        assert_eq!(s.outputs, 2);
        assert_eq!(s.unique, 4);
        assert_eq!(s.dim, 16);
        assert_eq!(s.row_bytes(), 64);
    }

    #[test]
    fn gather_reduce_reads_dominate_writes_at_high_pooling() {
        let s = fig6_random_shape();
        let t = gather_reduce(&s);
        // n = 10B: read ~10x write.
        let ratio = t.read_bytes as f64 / t.write_bytes as f64;
        assert!(ratio > 9.0 && ratio < 11.5, "ratio {ratio}");
    }

    #[test]
    fn expand_mirrors_gather_reduce() {
        // Expand is the dual: writes what gather-reduce reads (rows), reads
        // what it writes.
        let s = fig6_random_shape();
        let g = gather_reduce(&s);
        let e = gradient_expand(&s);
        assert_eq!(e.write_bytes, s.lookups * s.row_bytes());
        assert_eq!(g.write_bytes, s.outputs * s.row_bytes());
        assert!(e.write_bytes > e.read_bytes);
    }

    #[test]
    fn expand_coalesce_is_about_3x_gather_reduce() {
        // The paper: "the gradient expand-coalesce step in aggregate incurs
        // an around 3x higher memory traffic than embedding gather-reduce".
        let s = fig6_random_shape();
        let ec = expand_coalesce_total(&s).total() as f64;
        let gr = gather_reduce(&s).total() as f64;
        let ratio = ec / gr;
        assert!(
            (2.5..=3.5).contains(&ratio),
            "expand-coalesce / gather-reduce = {ratio}, expected ~3"
        );
    }

    #[test]
    fn casting_halves_backward_traffic() {
        // The headline claim: casted gather-reduce moves ~2x less data than
        // expand + coalesce (exactly 2x when U << n; >=1.5x when U ~ n).
        for unique_frac in [0.05, 0.5, 0.95] {
            let mut s = fig6_random_shape();
            s.unique = (s.lookups as f64 * unique_frac) as u64;
            let baseline = expand_coalesce_total(&s).total() as f64;
            let casted = casted_gather_reduce(&s).total() as f64;
            let ratio = baseline / casted;
            assert!(
                (1.45..=2.3).contains(&ratio),
                "unique_frac={unique_frac}: ratio {ratio}"
            );
        }
    }

    #[test]
    fn fusion_saves_an_intermediate() {
        let s = fig6_random_shape();
        let fused = gather_reduce(&s).total();
        let unfused = (gather_unfused(&s) + reduce_unfused(&s)).total();
        // Unfused writes + re-reads the n x D intermediate.
        assert_eq!(unfused - fused, 2 * s.lookups * s.row_bytes());
    }

    #[test]
    fn scatter_traffic_scales_with_unique_not_lookups() {
        let mut a = fig6_random_shape();
        a.unique = 100;
        let mut b = fig6_random_shape();
        b.unique = 10_000;
        assert!(scatter(&b, 0).total() > scatter(&a, 0).total());
        // Lookup count does not appear in scatter at all.
        let mut c = a;
        c.lookups *= 10;
        assert_eq!(scatter(&a, 0).total(), scatter(&c, 0).total());
    }

    #[test]
    fn stateful_optimizer_increases_scatter_traffic() {
        let s = fig6_random_shape();
        let sgd = scatter(&s, 0).total();
        let adagrad = scatter(&s, 8).total();
        assert_eq!(adagrad - sgd, s.unique * s.dim * 8);
    }

    #[test]
    fn casting_traffic_is_dim_independent() {
        let mut a = fig6_random_shape();
        let mut b = fig6_random_shape();
        a.dim = 32;
        b.dim = 256;
        assert_eq!(casting(&a, 4), casting(&b, 4));
    }

    #[test]
    fn casting_is_much_cheaper_than_coalesce_for_wide_rows() {
        let s = fig6_random_shape();
        // Index-only work vs row-granular work: > 5x lighter at D=64.
        assert!(coalesce_accumulate(&s).total() > 5 * casting(&s, 4).total());
    }

    #[test]
    fn sort_passes_are_the_kernels() {
        // RM1's tables take the radix kernel two passes (its own tests pin
        // the count): each pass reads every pair once.
        let s = fig6_random_shape();
        assert_eq!(coalesce_sort(&s, 2).read_bytes, 2 * s.lookups * PAIR_BYTES);
    }

    #[test]
    fn traffic_arithmetic() {
        let a = Traffic::new(10, 20);
        let b = Traffic::new(1, 2);
        assert_eq!((a + b).total(), 33);
        let sum: Traffic = [a, b].into_iter().sum();
        assert_eq!(sum, Traffic::new(11, 22));
    }
}
