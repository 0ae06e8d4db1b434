//! Property tests: the FR-FCFS scheduler never emits an illegal DDR4
//! command sequence, verified from its own command traces by the
//! independent protocol checker in `tcast_dram::verify`.

use proptest::prelude::*;
use tcast_dram::{streams, verify, AddressMapping, DramConfig, MemorySystem, Request, RowPolicy};

fn run_and_verify(cfg: DramConfig, reqs: Vec<Request>) -> (usize, Vec<String>) {
    let timing = cfg.timing;
    let open_policy = cfg.row_policy == RowPolicy::Open;
    let mut mem = MemorySystem::new(cfg);
    mem.set_trace_enabled(true);
    let stats = mem.run_trace(reqs);
    let mut violations = Vec::new();
    for trace in mem.take_traces() {
        let v = if open_policy {
            verify::verify_trace(&trace, &timing)
        } else {
            verify::verify_trace_timing_only(&trace, &timing)
        };
        violations.extend(v.into_iter().map(|v| v.to_string()));
    }
    ((stats.reads + stats.writes) as usize, violations)
}

#[test]
fn scheduler_is_protocol_clean_on_canonical_streams() {
    for cfg in [
        DramConfig::ddr4_3200(),
        DramConfig::ddr4_3200().with_mapping(AddressMapping::ColumnFirst),
        DramConfig::ddr4_3200()
            .with_mapping(AddressMapping::BankInterleaved)
            .with_row_policy(RowPolicy::Closed),
        DramConfig::cpu_ddr4(),
    ] {
        let blocks = cfg.total_blocks();
        for (name, stream) in [
            ("sequential", streams::sequential_reads(2_000)),
            ("random", streams::random_reads(2_000, blocks, 9)),
            (
                "gather",
                streams::gather_reads(
                    &(0..500u32)
                        .map(|i| i.wrapping_mul(7919) % 10_000)
                        .collect::<Vec<_>>(),
                    256,
                    0,
                ),
            ),
            (
                "rmw",
                streams::update_rmw(
                    &(0..300u32)
                        .map(|i| i.wrapping_mul(104729) % 5_000)
                        .collect::<Vec<_>>(),
                    256,
                    0,
                ),
            ),
        ] {
            let expected = stream.len();
            let (completed, violations) = run_and_verify(cfg.clone(), stream);
            assert_eq!(completed, expected, "{name}: all requests must complete");
            assert!(
                violations.is_empty(),
                "{name} under {:?}/{:?}: {} violations, first: {}",
                cfg.mapping,
                cfg.row_policy,
                violations.len(),
                violations[0]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any mix of reads/writes over any addresses is serviced completely
    /// and protocol-clean.
    #[test]
    fn scheduler_protocol_clean_on_random_mixes(
        ops in proptest::collection::vec((any::<u32>(), any::<bool>()), 1..400),
        col_first in any::<bool>(),
    ) {
        let cfg = if col_first {
            DramConfig::ddr4_3200().with_mapping(AddressMapping::ColumnFirst)
        } else {
            DramConfig::ddr4_3200()
        };
        let blocks = cfg.total_blocks();
        let reqs: Vec<Request> = ops
            .iter()
            .map(|&(addr, is_read)| {
                let block = addr as u64 % blocks;
                if is_read {
                    Request::read(block)
                } else {
                    Request::write(block)
                }
            })
            .collect();
        let expected = reqs.len();
        let (completed, violations) = run_and_verify(cfg, reqs);
        prop_assert_eq!(completed, expected);
        prop_assert!(violations.is_empty(), "first violation: {:?}", violations.first());
    }

    /// Effective bandwidth never exceeds the configured peak.
    #[test]
    fn bandwidth_never_exceeds_peak(
        count in 64u64..2048,
        seed in 0u64..100,
    ) {
        let cfg = DramConfig::ddr4_3200();
        let mut mem = MemorySystem::new(cfg.clone());
        let stats = mem.run_trace(streams::random_reads(count, cfg.total_blocks(), seed));
        let eff = stats.effective_bandwidth_gbps(&cfg);
        prop_assert!(eff <= cfg.peak_bandwidth_gbps() * 1.001, "eff {eff}");
    }
}
