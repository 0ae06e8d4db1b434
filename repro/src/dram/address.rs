//! Physical-address to DRAM-coordinate mapping.
//!
//! Addresses enter the simulator as 64 B *block ids* (byte address >> 6).
//! The mapping decides which bits select channel / rank / bank / row /
//! column — a first-order determinant of achievable bandwidth, so three
//! canonical layouts are provided.

use crate::dram::config::DramConfig;

/// Block-id bit layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressMapping {
    /// `row : bank : rank : column : bankgroup : channel` (low bits right).
    ///
    /// Consecutive blocks stripe across channels, then across *bank
    /// groups* (so back-to-back bursts pace at tCCD_S, not tCCD_L), then
    /// walk a full row's columns: the streaming-optimized layout real
    /// DDR4 controllers use.
    #[default]
    RowBankColumn,
    /// `row : column : rank : bank : channel` (low bits right).
    ///
    /// Consecutive blocks stripe across channels then *banks*: maximizes
    /// bank-level parallelism for isolated 64 B accesses.
    BankInterleaved,
    /// `row : rank : bank : bankgroup : column : channel` (low bits right).
    ///
    /// Consecutive blocks walk the columns of one DRAM row, so a
    /// multi-block embedding vector lands entirely in one row (one ACT
    /// per vector); different vectors scatter across bank groups and
    /// banks, which FR-FCFS interleaves at tCCD_S. This is the
    /// gather-optimized layout the NMP DIMMs use.
    ColumnFirst,
}

/// A fully decoded DRAM coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddr {
    /// Channel index.
    pub channel: usize,
    /// Rank within the channel.
    pub rank: usize,
    /// Bank group within the rank.
    pub bankgroup: usize,
    /// Bank within the group.
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
    /// 64 B column burst within the row.
    pub column: u64,
}

impl AddressMapping {
    /// Decodes a 64 B block id under this mapping for `config`'s geometry.
    ///
    /// Ids beyond the configured capacity wrap (the simulator is a timing
    /// model, not a memory protection unit).
    pub fn decode(&self, block: u64, config: &DramConfig) -> DecodedAddr {
        let channels = config.channels as u64;
        let ranks = config.ranks_per_channel as u64;
        let groups = config.bankgroups as u64;
        let banks = config.banks_per_group as u64;
        let columns = config.columns;
        let rows = config.rows;

        let mut x = block;
        let mut take = |n: u64| {
            let v = x % n;
            x /= n;
            v
        };

        match self {
            AddressMapping::RowBankColumn => {
                let channel = take(channels);
                let bankgroup = take(groups);
                let column = take(columns);
                let rank = take(ranks);
                let bank = take(banks);
                let row = take(rows);
                DecodedAddr {
                    channel: channel as usize,
                    rank: rank as usize,
                    bankgroup: bankgroup as usize,
                    bank: bank as usize,
                    row,
                    column,
                }
            }
            AddressMapping::BankInterleaved => {
                let channel = take(channels);
                let bank = take(banks);
                let bankgroup = take(groups);
                let rank = take(ranks);
                let column = take(columns);
                let row = take(rows);
                DecodedAddr {
                    channel: channel as usize,
                    rank: rank as usize,
                    bankgroup: bankgroup as usize,
                    bank: bank as usize,
                    row,
                    column,
                }
            }
            AddressMapping::ColumnFirst => {
                let channel = take(channels);
                let column = take(columns);
                let bankgroup = take(groups);
                let bank = take(banks);
                let rank = take(ranks);
                let row = take(rows);
                DecodedAddr {
                    channel: channel as usize,
                    rank: rank as usize,
                    bankgroup: bankgroup as usize,
                    bank: bank as usize,
                    row,
                    column,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::config::DramConfig;

    fn cfg() -> DramConfig {
        DramConfig::ddr4_3200().with_channels(2)
    }

    #[test]
    fn row_bank_column_stripes_bankgroups_then_columns() {
        let c = cfg();
        // Same channel, consecutive blocks alternate bank groups (tCCD_S).
        let a = AddressMapping::RowBankColumn.decode(0, &c);
        let b = AddressMapping::RowBankColumn.decode(2, &c);
        assert_eq!(a.channel, 0);
        assert_eq!(b.channel, 0);
        assert_eq!(b.bankgroup, a.bankgroup + 1);
        assert_eq!(a.column, b.column);
        // One full channel x group sweep later: next column, same bank/row.
        let stride = (c.channels * c.bankgroups) as u64;
        let d = AddressMapping::RowBankColumn.decode(stride, &c);
        assert_eq!(d.bankgroup, a.bankgroup);
        assert_eq!(d.bank, a.bank);
        assert_eq!(d.row, a.row);
        assert_eq!(d.column, a.column + 1);
    }

    #[test]
    fn channel_bit_is_lowest_in_both() {
        let c = cfg();
        for m in [
            AddressMapping::RowBankColumn,
            AddressMapping::BankInterleaved,
            AddressMapping::ColumnFirst,
        ] {
            assert_eq!(m.decode(0, &c).channel, 0);
            assert_eq!(m.decode(1, &c).channel, 1);
            assert_eq!(m.decode(2, &c).channel, 0);
        }
    }

    #[test]
    fn bank_interleaved_switches_banks_first() {
        let c = cfg();
        let a = AddressMapping::BankInterleaved.decode(0, &c);
        let b = AddressMapping::BankInterleaved.decode(2, &c);
        // Same channel, consecutive banks, same column.
        assert_eq!(a.channel, b.channel);
        assert_eq!(a.column, b.column);
        assert!(b.bank != a.bank || b.bankgroup != a.bankgroup);
    }

    #[test]
    fn decode_is_a_bijection_over_capacity() {
        // Every block id below capacity maps to a distinct coordinate.
        let mut c = cfg();
        c.rows = 4;
        c.columns = 4;
        let total = c.total_blocks();
        assert_eq!(total, 2 * 16 * 4 * 4);
        for m in [
            AddressMapping::RowBankColumn,
            AddressMapping::BankInterleaved,
            AddressMapping::ColumnFirst,
        ] {
            let mut seen = std::collections::HashSet::new();
            for blk in 0..total {
                let d = m.decode(blk, &c);
                assert!(d.row < c.rows);
                assert!(d.column < c.columns);
                assert!(d.channel < c.channels);
                assert!(
                    seen.insert((d.channel, d.rank, d.bankgroup, d.bank, d.row, d.column)),
                    "duplicate coordinate for block {blk} under {m:?}"
                );
            }
        }
    }

    #[test]
    fn column_first_keeps_vectors_in_one_row() {
        let c = cfg();
        // Four consecutive blocks on one channel (a 256 B embedding
        // vector): same row, same bank, consecutive columns.
        let m = AddressMapping::ColumnFirst;
        let base = m.decode(0, &c);
        for i in 1..4u64 {
            let d = m.decode(i * c.channels as u64, &c);
            assert_eq!(d.row, base.row);
            assert_eq!(d.bank, base.bank);
            assert_eq!(d.bankgroup, base.bankgroup);
            assert_eq!(d.column, base.column + i);
        }
        // The next vector over lands in a different bank group.
        let next = m.decode(c.columns * c.channels as u64, &c);
        assert_ne!(next.bankgroup, base.bankgroup);
    }

    #[test]
    fn out_of_range_ids_wrap() {
        let mut c = cfg();
        c.rows = 4;
        c.columns = 4;
        let total = c.total_blocks();
        let m = AddressMapping::RowBankColumn;
        assert_eq!(m.decode(0, &c), m.decode(total, &c));
    }
}
