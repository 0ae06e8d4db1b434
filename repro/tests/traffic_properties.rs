//! Property tests on the analytic traffic model: the algebraic
//! relationships Section III-C's formulas must satisfy for *every*
//! workload shape, not just the measured configurations.

use proptest::prelude::*;
use tcast_system::traffic::{self, WorkloadShape};

fn shapes() -> impl Strategy<Value = WorkloadShape> {
    // outputs >= 1, lookups >= outputs (every sample gathers >= 1),
    // 1 <= unique <= lookups, dim in a realistic range.
    (1u64..4096, 1u64..64, 1u64..512)
        .prop_flat_map(|(outputs, pooling, dim)| {
            let lookups = outputs * pooling;
            (Just(outputs), Just(lookups), 1u64..=lookups, Just(dim))
        })
        .prop_map(|(outputs, lookups, unique, dim)| WorkloadShape {
            lookups,
            outputs,
            unique,
            dim,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline inequality: the casted backward never moves more
    /// bytes than expand + coalesce, for any shape.
    #[test]
    fn casted_backward_never_exceeds_baseline(s in shapes()) {
        let baseline = traffic::expand_coalesce_total(&s).total();
        let casted = traffic::casted_gather_reduce(&s).total();
        prop_assert!(casted <= baseline);
    }

    /// The reduction is bounded by 2x plus the index-array overhead
    /// (Section IV-A's "memory intensity reduced by 2x" is asymptotic in
    /// row bytes; at small dims index bytes temper it).
    #[test]
    fn casted_reduction_is_at_most_2x_in_row_bytes(s in shapes()) {
        let baseline_rows = (s.outputs + 2 * s.lookups + s.unique) * s.row_bytes();
        let casted_rows = (s.lookups + s.unique) * s.row_bytes();
        // Row-byte ratio in (1, 2]: strictly > 1 (expand intermediate
        // gone), <= 2 + epsilon-from-outputs.
        let ratio = baseline_rows as f64 / casted_rows as f64;
        prop_assert!(ratio > 1.0);
        prop_assert!(ratio <= 2.0 + s.outputs as f64 / s.lookups as f64);
    }

    /// Fusion is always worth exactly the intermediate tensor (one write
    /// + one read of n rows).
    #[test]
    fn fusion_saving_is_exactly_the_intermediate(s in shapes()) {
        let unfused = (traffic::gather_unfused(&s) + traffic::reduce_unfused(&s)).total();
        let fused = traffic::gather_reduce(&s).total();
        prop_assert_eq!(unfused - fused, 2 * s.lookups * s.row_bytes());
    }

    /// Every primitive's traffic is monotone in the embedding dimension.
    #[test]
    fn traffic_is_monotone_in_dim(s in shapes()) {
        let mut wider = s;
        wider.dim += 16;
        prop_assert!(traffic::gather_reduce(&wider).total() >= traffic::gather_reduce(&s).total());
        prop_assert!(traffic::gradient_expand(&wider).total() >= traffic::gradient_expand(&s).total());
        prop_assert!(traffic::coalesce_accumulate(&wider).total() >= traffic::coalesce_accumulate(&s).total());
        prop_assert!(traffic::scatter(&wider, 0).total() >= traffic::scatter(&s, 0).total());
        prop_assert!(traffic::casted_gather_reduce(&wider).total() >= traffic::casted_gather_reduce(&s).total());
    }

    /// More coalescing (smaller unique) strictly reduces coalesce-write,
    /// scatter, and casted traffic, and leaves gather/expand untouched.
    #[test]
    fn locality_only_affects_the_backward_tail(s in shapes()) {
        prop_assume!(s.unique > 1);
        let mut hotter = s;
        hotter.unique = s.unique / 2;
        prop_assert!(traffic::coalesce_accumulate(&hotter).total() < traffic::coalesce_accumulate(&s).total());
        prop_assert!(traffic::scatter(&hotter, 0).total() < traffic::scatter(&s, 0).total());
        prop_assert!(traffic::casted_gather_reduce(&hotter).total() < traffic::casted_gather_reduce(&s).total());
        prop_assert_eq!(traffic::gather_reduce(&hotter).total(), traffic::gather_reduce(&s).total());
        prop_assert_eq!(traffic::gradient_expand(&hotter).total(), traffic::gradient_expand(&s).total());
    }

    /// Casting-stage traffic is independent of dim and linear in lookups.
    #[test]
    fn casting_traffic_scaling(s in shapes()) {
        let mut wider = s;
        wider.dim *= 2;
        prop_assert_eq!(traffic::casting(&s, 4), traffic::casting(&wider, 4));
        let mut doubled = s;
        doubled.lookups *= 2;
        prop_assert_eq!(
            traffic::casting(&doubled, 4).total(),
            2 * traffic::casting(&s, 4).total()
        );
    }

    /// Optimizer state bytes split evenly between read and write halves.
    #[test]
    fn optimizer_state_split(s in shapes()) {
        let sgd = traffic::scatter(&s, 0);
        let stateful = traffic::scatter(&s, 8);
        let extra_read = stateful.read_bytes - sgd.read_bytes;
        let extra_write = stateful.write_bytes - sgd.write_bytes;
        prop_assert_eq!(extra_read, extra_write);
        prop_assert_eq!(extra_read + extra_write, s.unique * s.dim * 8);
    }
}
