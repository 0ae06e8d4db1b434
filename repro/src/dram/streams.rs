//! Canonical address-stream generators for bandwidth characterization.
//!
//! These produce the access patterns the paper's methodology cares about:
//! sequential streaming (upper bound), uniform-random 64 B accesses
//! (lower bound), and *embedding-gather* streams — one burst of
//! `row_bytes/64` consecutive blocks per looked-up row, rows scattered —
//! which is the pattern the NMP cores actually service.

use crate::dram::request::Request;

/// `count` back-to-back sequential 64 B reads starting at block 0.
pub fn sequential_reads(count: u64) -> Vec<Request> {
    (0..count).map(Request::read).collect()
}

/// `count` sequential 64 B writes starting at block 0.
pub fn sequential_writes(count: u64) -> Vec<Request> {
    (0..count).map(Request::write).collect()
}

/// `count` uniform-random 64 B reads over `[0, range)` blocks, seeded.
pub fn random_reads(count: u64, range: u64, seed: u64) -> Vec<Request> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..count)
        .map(|_| {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            Request::read(r % range.max(1))
        })
        .collect()
}

/// An embedding-gather read stream: for every looked-up row id, read the
/// `row_bytes / 64` consecutive blocks that hold that embedding vector.
///
/// `row_ids` come from an index array's `src` column; `base_block` is the
/// table's base address (in blocks). Rows narrower than 64 B still cost a
/// full block (the DRAM minimum access granularity the paper leans on:
/// "the minimum access granularity per each rank is 64 bytes").
pub fn gather_reads(row_ids: &[u32], row_bytes: u64, base_block: u64) -> Vec<Request> {
    let blocks_per_row = row_bytes.div_ceil(64).max(1);
    let mut out = Vec::with_capacity(row_ids.len() * blocks_per_row as usize);
    for &r in row_ids {
        let first = base_block + r as u64 * blocks_per_row;
        for b in 0..blocks_per_row {
            out.push(Request::read(first + b));
        }
    }
    out
}

/// The scatter dual of [`gather_reads`]: write every block of every
/// updated row.
pub fn scatter_writes(row_ids: &[u32], row_bytes: u64, base_block: u64) -> Vec<Request> {
    let blocks_per_row = row_bytes.div_ceil(64).max(1);
    let mut out = Vec::with_capacity(row_ids.len() * blocks_per_row as usize);
    for &r in row_ids {
        let first = base_block + r as u64 * blocks_per_row;
        for b in 0..blocks_per_row {
            out.push(Request::write(first + b));
        }
    }
    out
}

/// A read-modify-write stream per row: the scatter-with-optimizer pattern
/// (read current row, write updated row).
pub fn update_rmw(row_ids: &[u32], row_bytes: u64, base_block: u64) -> Vec<Request> {
    let blocks_per_row = row_bytes.div_ceil(64).max(1);
    let mut out = Vec::with_capacity(row_ids.len() * 2 * blocks_per_row as usize);
    for &r in row_ids {
        let first = base_block + r as u64 * blocks_per_row;
        for b in 0..blocks_per_row {
            out.push(Request::read(first + b));
        }
        for b in 0..blocks_per_row {
            out.push(Request::write(first + b));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_dense_and_ordered() {
        let s = sequential_reads(4);
        assert_eq!(s.len(), 4);
        assert!(s
            .iter()
            .enumerate()
            .all(|(i, r)| r.block == i as u64 && r.is_read()));
    }

    #[test]
    fn random_is_seeded_and_in_range() {
        let a = random_reads(100, 1000, 5);
        let b = random_reads(100, 1000, 5);
        let c = random_reads(100, 1000, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|r| r.block < 1000));
    }

    #[test]
    fn gather_expands_rows_into_blocks() {
        // dim-64 f32 rows = 256 B = 4 blocks each.
        let s = gather_reads(&[0, 2], 256, 100);
        assert_eq!(s.len(), 8);
        assert_eq!(s[0].block, 100);
        assert_eq!(s[3].block, 103);
        assert_eq!(s[4].block, 108); // row 2 starts at 100 + 2*4
        assert!(s.iter().all(Request::is_read));
    }

    #[test]
    fn narrow_rows_round_up_to_one_block() {
        // dim-8 f32 rows = 32 B: still one 64 B block (min granularity).
        let s = gather_reads(&[0, 1], 32, 0);
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].block, 1);
    }

    #[test]
    fn scatter_mirrors_gather() {
        let g = gather_reads(&[3, 7], 256, 0);
        let s = scatter_writes(&[3, 7], 256, 0);
        assert_eq!(g.len(), s.len());
        for (a, b) in g.iter().zip(s.iter()) {
            assert_eq!(a.block, b.block);
            assert!(a.is_read());
            assert!(!b.is_read());
        }
    }

    #[test]
    fn rmw_reads_then_writes_each_row() {
        let s = update_rmw(&[1], 128, 0); // 2 blocks per row
        assert_eq!(s.len(), 4);
        assert!(s[0].is_read() && s[1].is_read());
        assert!(!s[2].is_read() && !s[3].is_read());
        assert_eq!(s[0].block, s[2].block);
    }
}
