//! DRAM-simulator edge cases: behaviours at the boundaries of the model
//! (refresh interaction with load, write recovery, queue saturation,
//! single-bank pathologies) that the main invariants suite reaches only
//! probabilistically.

use tcast_repro::dram::{
    power, streams, verify, AddressMapping, DramConfig, MemorySystem, Request, RowPolicy,
};

#[test]
fn traffic_spanning_many_refresh_windows_stays_protocol_clean() {
    // A long sequential stream crosses multiple tREFI boundaries; every
    // refresh must black out the rank without breaking any timing rule.
    let cfg = DramConfig::ddr4_3200();
    let mut mem = MemorySystem::new(cfg.clone());
    mem.set_trace_enabled(true);
    let stats = mem.run_trace(streams::sequential_reads(60_000));
    assert!(
        stats.refreshes >= 2,
        "expected multiple refreshes, got {}",
        stats.refreshes
    );
    for trace in mem.take_traces() {
        let v = verify::verify_trace(&trace, &cfg.timing);
        assert!(v.is_empty(), "first violation: {}", v[0]);
    }
    // Refresh steals only a few percent of bandwidth.
    let eff = stats.effective_bandwidth_gbps(&cfg);
    assert!(eff > 0.85 * cfg.peak_bandwidth_gbps());
}

#[test]
fn write_to_read_turnaround_is_respected() {
    // Alternating write/read to the same row exercises tWTR and the bus
    // turnaround; verify cleanliness and that throughput suffers versus
    // a pure stream (turnarounds are not free).
    let cfg = DramConfig::ddr4_3200();
    let mut mixed: Vec<Request> = Vec::new();
    for i in 0..2_000u64 {
        if i % 2 == 0 {
            mixed.push(Request::write(i));
        } else {
            mixed.push(Request::read(i));
        }
    }
    let mut mem = MemorySystem::new(cfg.clone());
    mem.set_trace_enabled(true);
    let mixed_stats = mem.run_trace(mixed);
    for trace in mem.take_traces() {
        let v = verify::verify_trace(&trace, &cfg.timing);
        assert!(v.is_empty(), "first violation: {}", v[0]);
    }
    let pure = MemorySystem::new(cfg.clone())
        .run_trace(streams::sequential_reads(2_000))
        .effective_bandwidth_gbps(&cfg);
    let mixed_bw = mixed_stats.effective_bandwidth_gbps(&cfg);
    assert!(
        mixed_bw < pure,
        "alternating R/W ({mixed_bw:.1}) must trail pure reads ({pure:.1})"
    );
}

#[test]
fn single_bank_hammering_is_trc_bound() {
    // Every access to a different row of ONE bank: throughput collapses
    // to ~64 B per tRC — the worst case the paper's interleaving avoids.
    let cfg = DramConfig::ddr4_3200();
    // Same bank under RowBankColumn: stride one full row-walk.
    let stride = cfg.channels as u64
        * cfg.bankgroups as u64
        * cfg.columns
        * cfg.ranks_per_channel as u64
        * cfg.banks_per_group as u64;
    let reqs: Vec<Request> = (0..200).map(|i| Request::read(i * stride)).collect();
    let mut mem = MemorySystem::new(cfg.clone());
    let stats = mem.run_trace(reqs);
    let cycles_per_access = stats.last_data_cycle as f64 / 200.0;
    assert!(
        cycles_per_access >= cfg.timing.trc as f64 * 0.95,
        "row-conflict stream should pace at ~tRC ({}), got {cycles_per_access:.1}",
        cfg.timing.trc
    );
    assert_eq!(stats.row_conflicts + stats.row_misses, 200);
}

#[test]
fn closed_page_avoids_explicit_precharges() {
    let open = DramConfig::ddr4_3200();
    let closed = DramConfig::ddr4_3200().with_row_policy(RowPolicy::Closed);
    let blocks = open.total_blocks();
    let open_stats = MemorySystem::new(open).run_trace(streams::random_reads(2_000, blocks, 3));
    let closed_stats = MemorySystem::new(closed).run_trace(streams::random_reads(2_000, blocks, 3));
    // Closed page auto-precharges: no explicit PRE commands at all.
    assert_eq!(closed_stats.precharges, 0);
    assert!(open_stats.precharges > 0);
}

#[test]
fn energy_model_charges_row_cycling_for_conflict_streams() {
    let cfg = DramConfig::ddr4_3200().with_mapping(AddressMapping::BankInterleaved);
    let p = power::PowerParams::default();
    let blocks = cfg.total_blocks();
    let conflict_stats =
        MemorySystem::new(cfg.clone()).run_trace(streams::random_reads(2_000, blocks, 5));
    let stream_stats = MemorySystem::new(cfg.clone()).run_trace(streams::sequential_reads(2_000));
    let conflict_e = power::dram_energy(&conflict_stats, &cfg, &p);
    let stream_e = power::dram_energy(&stream_stats, &cfg, &p);
    assert!(conflict_e.act_pre_mj > 3.0 * stream_e.act_pre_mj);
}

#[test]
fn zero_and_single_request_streams() {
    let cfg = DramConfig::ddr4_3200();
    let empty = MemorySystem::new(cfg.clone()).run_trace(Vec::<Request>::new());
    assert_eq!(empty.bytes(), 0);
    let one = MemorySystem::new(cfg.clone()).run_trace(vec![Request::read(0)]);
    assert_eq!(one.reads, 1);
    let t = cfg.timing;
    assert_eq!(one.total_read_latency, t.trcd + t.cl + t.burst_cycles());
}
