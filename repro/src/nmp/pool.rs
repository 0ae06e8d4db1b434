//! The disaggregated NMP memory pool (Fig. 10, Table I).
//!
//! Tables are sliced *column-wise* across a group of NMP channels at the
//! 64 B minimum access granularity: a `dim`-wide table occupies
//! `ceil(dim / 16)` channels, each holding a 64 B slice of every row.
//! Every member channel then executes the *same* `(src, dst)` stream over
//! its own slice — gathers, scatters and casted gather-reduces all stay
//! entirely rank-local, which is how "the effective memory throughput
//! available across the NMP cores [is] amplified as a function of the
//! number of ranks". Different tables round-robin across channel groups,
//! activating the whole pool when a model has many tables.

use crate::core::{NmpCore, SLICE_FLOATS};
use crate::dram::{AddressMapping, DramConfig};
use crate::isa::NmpInstruction;
use tcast_core::CastedIndexArray;
use tcast_embedding::{CoalescedGradients, EmbeddingError, EmbeddingTable, IndexArray};
use tcast_tensor::Matrix;

/// Pool-level configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolConfig {
    /// Number of NMP channels (Table I: 32 ranks).
    pub channels: usize,
    /// Per-channel memory configuration. The default models one 128 GB
    /// dual-rank LRDIMM on a DDR4-3200 channel with the gather-optimized
    /// column-first layout.
    pub channel: DramConfig,
}

impl PoolConfig {
    /// A small pool for unit tests and examples.
    pub fn small(channels: usize) -> Self {
        Self {
            channels,
            channel: Self::default_channel(),
        }
    }

    fn default_channel() -> DramConfig {
        let mut cfg = DramConfig::ddr4_3200().with_mapping(AddressMapping::ColumnFirst);
        cfg.ranks_per_channel = 2;
        cfg
    }

    /// Aggregate peak bandwidth in GB/s.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.channels as f64 * self.channel.peak_bandwidth_gbps()
    }
}

/// Handle to a table resident in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableHandle(usize);

/// Timing report for one pool-level operation.
///
/// Member channels run in parallel, so wall time is the slowest member;
/// byte counts are summed across members.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoolExec {
    /// Wall-clock nanoseconds (max over participating channels).
    pub nanoseconds: f64,
    /// Memory cycles of the slowest participating channel.
    pub cycles: u64,
    /// Total DRAM bytes moved across all participating channels.
    pub dram_bytes: u64,
    /// Number of channels that participated.
    pub channels_used: usize,
}

impl PoolExec {
    /// Sequential composition of two pool operations.
    pub fn then(self, next: PoolExec) -> PoolExec {
        PoolExec {
            nanoseconds: self.nanoseconds + next.nanoseconds,
            cycles: self.cycles + next.cycles,
            dram_bytes: self.dram_bytes + next.dram_bytes,
            channels_used: self.channels_used.max(next.channels_used),
        }
    }

    /// Effective bandwidth of this operation in GB/s.
    pub fn effective_bandwidth_gbps(&self) -> f64 {
        if self.nanoseconds == 0.0 {
            return 0.0;
        }
        self.dram_bytes as f64 / self.nanoseconds
    }
}

#[derive(Debug, Clone)]
struct PooledTable {
    rows: usize,
    dim: usize,
    /// Channel ids holding this table's slices.
    members: Vec<usize>,
    /// Column range per member.
    col_ranges: Vec<(usize, usize)>,
    /// Local table id on each member.
    local_ids: Vec<usize>,
    /// Local gradient-staging table per member (lazily allocated, keyed by
    /// capacity in rows).
    grad_staging: Option<(usize, Vec<usize>)>,
}

/// The disaggregated memory node with one NMP core per channel.
#[derive(Debug)]
pub struct NmpPool {
    config: PoolConfig,
    cores: Vec<NmpCore>,
    tables: Vec<PooledTable>,
    next_group_start: usize,
}

impl NmpPool {
    /// Builds a pool with `config.channels` NMP cores.
    pub fn new(config: PoolConfig) -> Self {
        let cores = (0..config.channels)
            .map(|_| NmpCore::new(config.channel.clone()))
            .collect();
        Self {
            config,
            cores,
            tables: Vec::new(),
            next_group_start: 0,
        }
    }

    /// The pool configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Per-channel cumulative busy cycles (for utilization accounting).
    pub fn busy_cycles(&self) -> Vec<u64> {
        self.cores.iter().map(NmpCore::busy_cycles).collect()
    }

    /// Loads an embedding table into the pool, slicing it column-wise
    /// across `ceil(dim/16)` channels. The load itself is untimed
    /// (one-time placement).
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::DimMismatch`] if the table is wider than
    /// the whole pool can slice (`dim > 16 * channels`).
    pub fn load_table(&mut self, table: &EmbeddingTable) -> Result<TableHandle, EmbeddingError> {
        let dim = table.dim();
        let group = dim.div_ceil(SLICE_FLOATS).max(1);
        if group > self.config.channels {
            return Err(EmbeddingError::DimMismatch {
                expected: SLICE_FLOATS * self.config.channels,
                found: dim,
            });
        }
        let mut members = Vec::with_capacity(group);
        let mut col_ranges = Vec::with_capacity(group);
        let mut local_ids = Vec::with_capacity(group);
        for k in 0..group {
            let ch = (self.next_group_start + k) % self.config.channels;
            let lo = k * SLICE_FLOATS;
            let hi = ((k + 1) * SLICE_FLOATS).min(dim);
            let width = hi - lo;
            let local = self.cores[ch].alloc_table(table.rows(), width);
            // Gather this member's column slice of every row.
            let mut slice = Vec::with_capacity(table.rows() * width);
            for r in 0..table.rows() {
                slice.extend_from_slice(&table.row(r)[lo..hi]);
            }
            self.cores[ch].load_slice(local, &slice)?;
            members.push(ch);
            col_ranges.push((lo, hi));
            local_ids.push(local);
        }
        self.next_group_start = (self.next_group_start + group) % self.config.channels;
        let handle = TableHandle(self.tables.len());
        self.tables.push(PooledTable {
            rows: table.rows(),
            dim,
            members,
            col_ranges,
            local_ids,
            grad_staging: None,
        });
        Ok(handle)
    }

    /// Reassembles the full table from its slices (verification helper).
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::InvalidIndex`] for an unknown handle.
    pub fn read_table(&self, handle: TableHandle) -> Result<EmbeddingTable, EmbeddingError> {
        let t = self.pooled(handle)?;
        let mut out = EmbeddingTable::zeros(t.rows, t.dim);
        for r in 0..t.rows {
            for ((&ch, &local), &(lo, hi)) in t.members.iter().zip(&t.local_ids).zip(&t.col_ranges)
            {
                out.row_mut(r)[lo..hi].copy_from_slice(self.cores[ch].row_slice(local, r as u32));
            }
        }
        Ok(out)
    }

    /// Executes a fused tensor gather-reduce over a pooled table (forward
    /// propagation), returning the pooled embeddings and the timing.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown handles or out-of-range indices.
    pub fn gather_reduce(
        &mut self,
        handle: TableHandle,
        index: &IndexArray,
    ) -> Result<(Matrix, PoolExec), EmbeddingError> {
        let t = self.pooled(handle)?.clone();
        index.validate_against_rows(t.rows)?;
        let pairs: Vec<(u32, u32)> = index.iter().collect();
        let mut out = Matrix::zeros(index.num_outputs(), t.dim);
        let mut exec = PoolExec::default();
        for ((&ch, &local), &(lo, hi)) in t.members.iter().zip(&t.local_ids).zip(&t.col_ranges) {
            let instr = NmpInstruction::GatherReduce {
                table: local,
                pairs: pairs.clone(),
                num_outputs: index.num_outputs(),
            };
            let (slice_out, core_exec) = self.cores[ch].execute(&instr)?;
            let width = hi - lo;
            for (b, chunk) in slice_out.chunks_exact(width).enumerate() {
                out.row_mut(b)[lo..hi].copy_from_slice(chunk);
            }
            exec.nanoseconds = exec.nanoseconds.max(core_exec.nanoseconds);
            exec.cycles = exec.cycles.max(core_exec.cycles);
            exec.dram_bytes += core_exec.dram_bytes;
            exec.channels_used += 1;
        }
        Ok((out, exec))
    }

    /// Executes a tensor scatter with SGD over a pooled table (the model
    /// update). `grads_in_dram` selects whether gradient rows are staged
    /// in pool memory (true for the casted path, whose gather-reduce
    /// drained them locally) or stream in from the host link.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown handles, out-of-range rows, or a
    /// gradient width mismatch.
    pub fn scatter_sgd(
        &mut self,
        handle: TableHandle,
        coalesced: &CoalescedGradients,
        lr: f32,
        grads_in_dram: bool,
    ) -> Result<PoolExec, EmbeddingError> {
        let t = self.pooled(handle)?.clone();
        if coalesced.grads().cols() != t.dim {
            return Err(EmbeddingError::DimMismatch {
                expected: t.dim,
                found: coalesced.grads().cols(),
            });
        }
        if let Some(&bad) = coalesced.rows().iter().find(|&&r| r as usize >= t.rows) {
            return Err(EmbeddingError::SrcOutOfBounds {
                src: bad,
                rows: t.rows,
            });
        }
        let mut exec = PoolExec::default();
        for ((&ch, &local), &(lo, hi)) in t.members.iter().zip(&t.local_ids).zip(&t.col_ranges) {
            let updates: Vec<(u32, Vec<f32>)> = coalesced
                .rows()
                .iter()
                .enumerate()
                .map(|(i, &row)| (row, coalesced.grads().row(i)[lo..hi].to_vec()))
                .collect();
            let instr = NmpInstruction::ScatterSgd {
                table: local,
                updates,
                lr,
                grads_in_dram,
            };
            let (_, core_exec) = self.cores[ch].execute(&instr)?;
            exec.nanoseconds = exec.nanoseconds.max(core_exec.nanoseconds);
            exec.cycles = exec.cycles.max(core_exec.cycles);
            exec.dram_bytes += core_exec.dram_bytes;
            exec.channels_used += 1;
        }
        Ok(exec)
    }

    /// Executes the T.Casted gradient gather-reduce (Algorithm 3) on the
    /// NMP pool: broadcasts the `B x dim` gradient table to the table's
    /// member channels (slice-wise), then runs the same gather-reduce
    /// datapath over it, leaving coalesced gradients staged in pool
    /// memory.
    ///
    /// Returns the coalesced gradients (for verification / host use) and
    /// the combined timing of broadcast + gather-reduce.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown handles or shape mismatches.
    pub fn casted_gather_reduce(
        &mut self,
        handle: TableHandle,
        grads: &Matrix,
        casted: &CastedIndexArray,
    ) -> Result<(CoalescedGradients, PoolExec), EmbeddingError> {
        let t = self.pooled(handle)?.clone();
        if grads.cols() != t.dim {
            return Err(EmbeddingError::DimMismatch {
                expected: t.dim,
                found: grads.cols(),
            });
        }
        if grads.rows() != casted.num_gradient_rows() {
            return Err(EmbeddingError::LengthMismatch {
                expected: casted.num_gradient_rows(),
                found: grads.rows(),
            });
        }
        // Stage the gradient table on every member (timed: these writes
        // land in pool DRAM as the host link delivers them).
        let staging = self.grad_staging_tables(handle, grads.rows())?;
        let mut exec = PoolExec::default();
        let pairs: Vec<(u32, u32)> = casted
            .gather_src()
            .iter()
            .zip(casted.reduce_dst().iter())
            .map(|(&s, &d)| (s, d))
            .collect();
        let unique = casted.num_unique();
        let mut out = Matrix::zeros(unique, t.dim);
        for (k, ((&ch, &grad_table), &(lo, hi))) in t
            .members
            .iter()
            .zip(&staging)
            .zip(&t.col_ranges)
            .enumerate()
        {
            let _ = k;
            let rows: Vec<(u32, Vec<f32>)> = (0..grads.rows())
                .map(|b| (b as u32, grads.row(b)[lo..hi].to_vec()))
                .collect();
            let (_, write_exec) = self.cores[ch].execute(&NmpInstruction::WriteRows {
                table: grad_table,
                rows,
            })?;
            let instr = NmpInstruction::GatherReduce {
                table: grad_table,
                pairs: pairs.clone(),
                num_outputs: unique,
            };
            let (slice_out, gr_exec) = self.cores[ch].execute(&instr)?;
            let width = hi - lo;
            for (u, chunk) in slice_out.chunks_exact(width).enumerate() {
                out.row_mut(u)[lo..hi].copy_from_slice(chunk);
            }
            let member_ns = write_exec.nanoseconds + gr_exec.nanoseconds;
            exec.nanoseconds = exec.nanoseconds.max(member_ns);
            exec.cycles = exec.cycles.max(write_exec.cycles + gr_exec.cycles);
            exec.dram_bytes += write_exec.dram_bytes + gr_exec.dram_bytes;
            exec.channels_used += 1;
        }
        let coalesced = CoalescedGradients::new(casted.unique_rows().to_vec(), out)?;
        Ok((coalesced, exec))
    }

    fn grad_staging_tables(
        &mut self,
        handle: TableHandle,
        rows: usize,
    ) -> Result<Vec<usize>, EmbeddingError> {
        let idx = handle.0;
        if idx >= self.tables.len() {
            return Err(EmbeddingError::InvalidIndex(format!(
                "unknown table handle {idx}"
            )));
        }
        if let Some((cap, ids)) = &self.tables[idx].grad_staging {
            if *cap >= rows {
                return Ok(ids.clone());
            }
        }
        let (members, col_ranges) = {
            let t = &self.tables[idx];
            (t.members.clone(), t.col_ranges.clone())
        };
        let mut ids = Vec::with_capacity(members.len());
        for (&ch, &(lo, hi)) in members.iter().zip(&col_ranges) {
            ids.push(self.cores[ch].alloc_table(rows, hi - lo));
        }
        self.tables[idx].grad_staging = Some((rows, ids.clone()));
        Ok(ids)
    }

    fn pooled(&self, handle: TableHandle) -> Result<&PooledTable, EmbeddingError> {
        self.tables.get(handle.0).ok_or_else(|| {
            EmbeddingError::InvalidIndex(format!("unknown table handle {}", handle.0))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcast_core::tensor_casting;
    use tcast_embedding::{
        gather_reduce, gradient_expand_coalesce,
        optim::{RowOptimizer, UpdateRule},
        scatter_apply,
    };
    use tcast_tensor::SplitMix64;

    fn workload(
        rows: usize,
        dim: usize,
        batch: usize,
        pooling: usize,
        seed: u64,
    ) -> (EmbeddingTable, IndexArray, Matrix) {
        let table = EmbeddingTable::seeded(rows, dim, seed);
        let mut rng = SplitMix64::new(seed ^ 0x5555);
        let samples: Vec<Vec<u32>> = (0..batch)
            .map(|_| {
                (0..pooling)
                    .map(|_| rng.next_below(rows as u64) as u32)
                    .collect()
            })
            .collect();
        let index = IndexArray::from_samples(&samples).unwrap();
        let mut grads = Matrix::zeros(batch, dim);
        for v in grads.as_mut_slice() {
            *v = rng.next_range(-1.0, 1.0);
        }
        (table, index, grads)
    }

    #[test]
    fn load_and_read_roundtrip_multi_slice() {
        // dim 40 -> 3 member channels (16+16+8 floats).
        let mut pool = NmpPool::new(PoolConfig::small(4));
        let table = EmbeddingTable::seeded(64, 40, 3);
        let h = pool.load_table(&table).unwrap();
        let back = pool.read_table(h).unwrap();
        assert_eq!(back.max_abs_diff(&table).unwrap(), 0.0);
    }

    #[test]
    fn table_too_wide_for_pool_rejected() {
        let mut pool = NmpPool::new(PoolConfig::small(2));
        let table = EmbeddingTable::zeros(4, 16 * 2 + 1);
        assert!(pool.load_table(&table).is_err());
    }

    #[test]
    fn pool_gather_reduce_matches_host_kernel() {
        let mut pool = NmpPool::new(PoolConfig::small(4));
        let (table, index, _) = workload(128, 24, 16, 4, 1);
        let h = pool.load_table(&table).unwrap();
        let (pooled, exec) = pool.gather_reduce(h, &index).unwrap();
        let reference = gather_reduce(&table, &index).unwrap();
        assert!(pooled.max_abs_diff(&reference).unwrap() < 1e-6);
        assert_eq!(exec.channels_used, 2); // dim 24 -> 2 slices
        assert!(exec.nanoseconds > 0.0);
    }

    #[test]
    fn pool_scatter_matches_host_kernel() {
        let mut pool = NmpPool::new(PoolConfig::small(4));
        let (mut table, index, grads) = workload(96, 16, 8, 3, 2);
        let h = pool.load_table(&table).unwrap();
        let coalesced = gradient_expand_coalesce(&grads, &index).unwrap();
        pool.scatter_sgd(h, &coalesced, 0.05, false).unwrap();
        scatter_apply(
            &mut table,
            &coalesced,
            &mut RowOptimizer::new(UpdateRule::Sgd { lr: 0.05 }),
        )
        .unwrap();
        let back = pool.read_table(h).unwrap();
        assert!(back.max_abs_diff(&table).unwrap() < 1e-6);
    }

    #[test]
    fn pool_casted_backward_matches_baseline() {
        let mut pool = NmpPool::new(PoolConfig::small(4));
        let (table, index, grads) = workload(200, 32, 24, 5, 3);
        let h = pool.load_table(&table).unwrap();
        let casted = tensor_casting(&index);
        let (coalesced, exec) = pool.casted_gather_reduce(h, &grads, &casted).unwrap();
        let baseline = gradient_expand_coalesce(&grads, &index).unwrap();
        assert_eq!(coalesced.rows(), baseline.rows());
        assert!(coalesced.max_abs_diff(&baseline).unwrap() < 1e-5);
        assert!(exec.nanoseconds > 0.0);
    }

    #[test]
    fn full_training_step_on_pool_equals_host() {
        let mut pool = NmpPool::new(PoolConfig::small(4));
        let (mut host_table, index, grads) = workload(150, 16, 12, 4, 4);
        let h = pool.load_table(&host_table).unwrap();

        // Pool path: casted gather-reduce then scatter from pool DRAM.
        let casted = tensor_casting(&index);
        let (coalesced, _) = pool.casted_gather_reduce(h, &grads, &casted).unwrap();
        pool.scatter_sgd(h, &coalesced, 0.1, true).unwrap();

        // Host path: baseline expand-coalesce + scatter.
        let baseline = gradient_expand_coalesce(&grads, &index).unwrap();
        scatter_apply(
            &mut host_table,
            &baseline,
            &mut RowOptimizer::new(UpdateRule::Sgd { lr: 0.1 }),
        )
        .unwrap();

        let back = pool.read_table(h).unwrap();
        assert!(back.max_abs_diff(&host_table).unwrap() < 1e-5);
    }

    #[test]
    fn wider_tables_use_more_channels() {
        let mut pool = NmpPool::new(PoolConfig::small(8));
        let narrow = EmbeddingTable::zeros(32, 8);
        let wide = EmbeddingTable::zeros(32, 128);
        let hn = pool.load_table(&narrow).unwrap();
        let hw = pool.load_table(&wide).unwrap();
        let idx = IndexArray::from_samples(&[vec![0, 1]]).unwrap();
        let (_, en) = pool.gather_reduce(hn, &idx).unwrap();
        let (_, ew) = pool.gather_reduce(hw, &idx).unwrap();
        assert_eq!(en.channels_used, 1);
        assert_eq!(ew.channels_used, 8);
    }

    #[test]
    fn tables_round_robin_across_channel_groups() {
        let mut pool = NmpPool::new(PoolConfig::small(4));
        let t = EmbeddingTable::zeros(16, 16); // one channel each
        let idx = IndexArray::from_samples(&[vec![0]]).unwrap();
        for _ in 0..4 {
            let h = pool.load_table(&t).unwrap();
            pool.gather_reduce(h, &idx).unwrap();
        }
        // All four channels must have seen work.
        assert!(pool.busy_cycles().iter().all(|&c| c > 0));
    }

    #[test]
    fn pool_exec_composition() {
        let a = PoolExec {
            nanoseconds: 10.0,
            cycles: 100,
            dram_bytes: 640,
            channels_used: 2,
        };
        let b = PoolExec {
            nanoseconds: 5.0,
            cycles: 50,
            dram_bytes: 320,
            channels_used: 4,
        };
        let c = a.then(b);
        assert_eq!(c.nanoseconds, 15.0);
        assert_eq!(c.dram_bytes, 960);
        assert_eq!(c.channels_used, 4);
        assert!((a.effective_bandwidth_gbps() - 64.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_handle_is_an_error() {
        let pool = NmpPool::new(PoolConfig::small(2));
        assert!(pool.read_table(TableHandle(0)).is_err());
    }

    #[test]
    fn table_i_peak_bandwidth() {
        // Table I: 32 channels x 25.6 GB/s = 819.2 GB/s aggregate peak.
        let cfg = PoolConfig::small(32);
        assert!((cfg.peak_bandwidth_gbps() - 819.2).abs() < 1.0);
    }
}
