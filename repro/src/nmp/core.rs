//! One NMP core: the Fig. 11 microarchitecture.
//!
//! The core owns one memory channel (a dual-rank DDR4-3200 LRDIMM, the
//! 128 GB modules of Section IV-C) and executes [`NmpInstruction`]s
//! against its local column-slices of the pool's tables. Execution is
//! simultaneously:
//!
//! * **functional** — real `f32` data is gathered, reduced and updated,
//!   so results are bit-checkable against the host kernels; and
//! * **temporal** — each instruction is compiled into its 64 B DRAM
//!   command stream (gather reads, output-drain writes, RMW updates) and
//!   replayed on the cycle-level `dram` simulator; the vector ALU
//!   (16 f32 lanes, clocked with the memory bus) is modelled as a
//!   throughput bound overlapped with the DRAM stream.

use crate::dram::{streams, DramConfig, MemorySystem, Request};
use crate::isa::NmpInstruction;
use tcast_embedding::EmbeddingError;

/// Execution report for one instruction on one core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreExec {
    /// Memory-clock cycles the instruction occupied the channel.
    pub cycles: u64,
    /// Wall-clock nanoseconds (cycles x tCK).
    pub nanoseconds: f64,
    /// Bytes moved to/from DRAM.
    pub dram_bytes: u64,
    /// Vector-ALU cycles (reported; overlapped with DRAM time).
    pub alu_cycles: u64,
}

/// The byte width of one table slice on one core: the DRAM minimum access
/// granularity the paper builds on.
pub const SLICE_BYTES: usize = 64;
/// f32 lanes in one slice (and in the vector ALU).
pub const SLICE_FLOATS: usize = SLICE_BYTES / 4;

#[derive(Debug, Clone)]
struct LocalTable {
    rows: usize,
    /// Floats actually used in this core's slice (<= SLICE_FLOATS).
    width: usize,
    data: Vec<f32>,
    base_block: u64,
}

/// One rank-level NMP core with its private memory channel.
#[derive(Debug)]
pub struct NmpCore {
    channel_config: DramConfig,
    tables: Vec<LocalTable>,
    next_block: u64,
    busy_cycles: u64,
}

impl NmpCore {
    /// Creates a core over the given channel configuration.
    pub fn new(channel_config: DramConfig) -> Self {
        Self {
            channel_config,
            tables: Vec::new(),
            next_block: 0,
            busy_cycles: 0,
        }
    }

    /// Allocates a local table of `rows` slices, each `width <=`
    /// [`SLICE_FLOATS`] floats wide, returning its local id.
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds [`SLICE_FLOATS`].
    pub fn alloc_table(&mut self, rows: usize, width: usize) -> usize {
        assert!(width <= SLICE_FLOATS, "slice width {width} exceeds 64 B");
        let id = self.tables.len();
        self.tables.push(LocalTable {
            rows,
            width,
            data: vec![0.0; rows * width],
            base_block: self.next_block,
        });
        self.next_block += rows as u64; // one 64 B block per row slice
        id
    }

    /// Number of local tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Cumulative busy cycles across all executed instructions.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Immutable view of a local table's row slice (for verification).
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range.
    pub fn row_slice(&self, table: usize, row: u32) -> &[f32] {
        let t = &self.tables[table];
        let r = row as usize;
        assert!(r < t.rows, "local row {row} out of bounds");
        &t.data[r * t.width..(r + 1) * t.width]
    }

    /// Bulk-initializes a local table's data without timing it.
    ///
    /// Initial table placement happens once, off the training critical
    /// path, so the pool loads slices functionally and only *training*
    /// instructions pay simulated DRAM time.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::LengthMismatch`] if `data` does not have
    /// exactly `rows * width` elements.
    pub fn load_slice(&mut self, table: usize, data: &[f32]) -> Result<(), EmbeddingError> {
        let t = self.table_mut(table)?;
        if data.len() != t.rows * t.width {
            return Err(EmbeddingError::LengthMismatch {
                expected: t.rows * t.width,
                found: data.len(),
            });
        }
        t.data.copy_from_slice(data);
        Ok(())
    }

    /// Executes one instruction: computes its functional result (returned
    /// as flattened output slices for `GatherReduce`, empty otherwise)
    /// and its timing.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError`] on out-of-range local rows or slice
    /// width mismatches.
    pub fn execute(
        &mut self,
        instr: &NmpInstruction,
    ) -> Result<(Vec<f32>, CoreExec), EmbeddingError> {
        match instr {
            NmpInstruction::WriteRows { table, rows } => {
                let (trace, alu) = {
                    let t = self.table_mut(*table)?;
                    for (row, values) in rows {
                        let r = *row as usize;
                        if r >= t.rows {
                            return Err(EmbeddingError::SrcOutOfBounds {
                                src: *row,
                                rows: t.rows,
                            });
                        }
                        if values.len() != t.width {
                            return Err(EmbeddingError::DimMismatch {
                                expected: t.width,
                                found: values.len(),
                            });
                        }
                        t.data[r * t.width..(r + 1) * t.width].copy_from_slice(values);
                    }
                    let ids: Vec<u32> = rows.iter().map(|(r, _)| *r).collect();
                    (
                        streams::scatter_writes(&ids, SLICE_BYTES as u64, t.base_block),
                        0,
                    )
                };
                let exec = self.time_trace(trace, alu);
                Ok((Vec::new(), exec))
            }
            NmpInstruction::GatherReduce {
                table,
                pairs,
                num_outputs,
            } => {
                let (out, trace, alu) = {
                    let t = self.table(*table)?;
                    let mut out = vec![0.0f32; num_outputs * t.width];
                    for &(src, dst) in pairs {
                        let s = src as usize;
                        if s >= t.rows {
                            return Err(EmbeddingError::SrcOutOfBounds { src, rows: t.rows });
                        }
                        let d = dst as usize;
                        if d >= *num_outputs {
                            return Err(EmbeddingError::DstOutOfBounds {
                                dst,
                                outputs: *num_outputs,
                            });
                        }
                        let row = &t.data[s * t.width..(s + 1) * t.width];
                        let acc = &mut out[d * t.width..(d + 1) * t.width];
                        for (a, &v) in acc.iter_mut().zip(row.iter()) {
                            *a += v;
                        }
                    }
                    // Trace: one 64 B read per pair (on-the-fly reduction in
                    // the output buffer), one 64 B write per output slot as
                    // results drain to local memory for the host link.
                    let srcs: Vec<u32> = pairs.iter().map(|&(s, _)| s).collect();
                    let mut trace = streams::gather_reads(&srcs, SLICE_BYTES as u64, t.base_block);
                    let outs: Vec<u32> = (0..*num_outputs as u32).collect();
                    trace.extend(streams::scatter_writes(
                        &outs,
                        SLICE_BYTES as u64,
                        self.next_block, // output staging region
                    ));
                    // One ALU cycle per 16-lane accumulate.
                    (out, trace, pairs.len() as u64)
                };
                let exec = self.time_trace(trace, alu);
                Ok((out, exec))
            }
            NmpInstruction::ScatterSgd {
                table,
                updates,
                lr,
                grads_in_dram,
            } => {
                let staging = self.next_block;
                let (trace, alu) = {
                    let t = self.table_mut(*table)?;
                    for (row, grad) in updates {
                        let r = *row as usize;
                        if r >= t.rows {
                            return Err(EmbeddingError::SrcOutOfBounds {
                                src: *row,
                                rows: t.rows,
                            });
                        }
                        if grad.len() != t.width {
                            return Err(EmbeddingError::DimMismatch {
                                expected: t.width,
                                found: grad.len(),
                            });
                        }
                        let p = &mut t.data[r * t.width..(r + 1) * t.width];
                        for (w, &g) in p.iter_mut().zip(grad.iter()) {
                            *w -= lr * g;
                        }
                    }
                    let ids: Vec<u32> = updates.iter().map(|(r, _)| *r).collect();
                    let mut trace = Vec::new();
                    if *grads_in_dram {
                        let grad_ids: Vec<u32> = (0..updates.len() as u32).collect();
                        trace.extend(streams::gather_reads(
                            &grad_ids,
                            SLICE_BYTES as u64,
                            staging,
                        ));
                    }
                    trace.extend(streams::update_rmw(&ids, SLICE_BYTES as u64, t.base_block));
                    (trace, updates.len() as u64)
                };
                let exec = self.time_trace(trace, alu);
                Ok((Vec::new(), exec))
            }
        }
    }

    fn table(&self, id: usize) -> Result<&LocalTable, EmbeddingError> {
        self.tables
            .get(id)
            .ok_or_else(|| EmbeddingError::InvalidIndex(format!("local table {id} not allocated")))
    }

    fn table_mut(&mut self, id: usize) -> Result<&mut LocalTable, EmbeddingError> {
        self.tables
            .get_mut(id)
            .ok_or_else(|| EmbeddingError::InvalidIndex(format!("local table {id} not allocated")))
    }

    /// Replays a request trace on a fresh instance of the core's channel
    /// and converts cycles to time; the ALU bound is overlapped (decoupled
    /// access-execute), so instruction time = max(dram, alu).
    fn time_trace(&mut self, trace: Vec<Request>, alu_cycles: u64) -> CoreExec {
        if trace.is_empty() {
            return CoreExec {
                cycles: 0,
                nanoseconds: 0.0,
                dram_bytes: 0,
                alu_cycles,
            };
        }
        let mut mem = MemorySystem::new(self.channel_config.clone());
        let stats = mem.run_trace(trace);
        let dram_cycles = stats.last_data_cycle;
        let cycles = dram_cycles.max(alu_cycles);
        self.busy_cycles += cycles;
        CoreExec {
            cycles,
            nanoseconds: cycles as f64 * self.channel_config.timing.tck_ps as f64 * 1e-3,
            dram_bytes: stats.bytes(),
            alu_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::{AddressMapping, DramConfig};

    fn core() -> NmpCore {
        let mut cfg = DramConfig::ddr4_3200().with_mapping(AddressMapping::ColumnFirst);
        cfg.ranks_per_channel = 2;
        NmpCore::new(cfg)
    }

    fn write_rows(c: &mut NmpCore, table: usize, rows: &[(u32, Vec<f32>)]) {
        let instr = NmpInstruction::WriteRows {
            table,
            rows: rows.to_vec(),
        };
        c.execute(&instr).unwrap();
    }

    #[test]
    fn alloc_and_write_roundtrip() {
        let mut c = core();
        let t = c.alloc_table(8, 4);
        write_rows(&mut c, t, &[(3, vec![1.0, 2.0, 3.0, 4.0])]);
        assert_eq!(c.row_slice(t, 3), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.row_slice(t, 0), &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "exceeds 64 B")]
    fn oversized_slice_rejected() {
        core().alloc_table(4, SLICE_FLOATS + 1);
    }

    #[test]
    fn gather_reduce_functional_result() {
        let mut c = core();
        let t = c.alloc_table(8, 2);
        write_rows(
            &mut c,
            t,
            &[
                (0, vec![1.0, 10.0]),
                (1, vec![2.0, 20.0]),
                (2, vec![4.0, 40.0]),
            ],
        );
        let instr = NmpInstruction::GatherReduce {
            table: t,
            pairs: vec![(0, 0), (2, 0), (1, 1)],
            num_outputs: 2,
        };
        let (out, exec) = c.execute(&instr).unwrap();
        assert_eq!(out, vec![5.0, 50.0, 2.0, 20.0]);
        assert!(exec.cycles > 0);
        // 3 gather reads + 2 output writes = 5 blocks = 320 B.
        assert_eq!(exec.dram_bytes, 5 * 64);
    }

    #[test]
    fn gather_reduce_validates_indices() {
        let mut c = core();
        let t = c.alloc_table(4, 2);
        let bad_src = NmpInstruction::GatherReduce {
            table: t,
            pairs: vec![(9, 0)],
            num_outputs: 1,
        };
        assert!(c.execute(&bad_src).is_err());
        let bad_dst = NmpInstruction::GatherReduce {
            table: t,
            pairs: vec![(0, 5)],
            num_outputs: 1,
        };
        assert!(c.execute(&bad_dst).is_err());
    }

    #[test]
    fn scatter_sgd_applies_update() {
        let mut c = core();
        let t = c.alloc_table(4, 2);
        write_rows(&mut c, t, &[(1, vec![1.0, 1.0])]);
        let instr = NmpInstruction::ScatterSgd {
            table: t,
            updates: vec![(1, vec![0.5, -0.5])],
            lr: 1.0,
            grads_in_dram: false,
        };
        let (_, exec) = c.execute(&instr).unwrap();
        assert_eq!(c.row_slice(t, 1), &[0.5, 1.5]);
        // RMW: 1 read + 1 write = 128 B.
        assert_eq!(exec.dram_bytes, 2 * 64);
    }

    #[test]
    fn scatter_with_dram_gradients_costs_an_extra_read() {
        let mut c1 = core();
        let t1 = c1.alloc_table(16, 2);
        let mut c2 = core();
        let t2 = c2.alloc_table(16, 2);
        let updates: Vec<(u32, Vec<f32>)> = (0..8).map(|i| (i, vec![0.1, 0.1])).collect();
        let (_, from_queue) = c1
            .execute(&NmpInstruction::ScatterSgd {
                table: t1,
                updates: updates.clone(),
                lr: 0.1,
                grads_in_dram: false,
            })
            .unwrap();
        let (_, from_dram) = c2
            .execute(&NmpInstruction::ScatterSgd {
                table: t2,
                updates,
                lr: 0.1,
                grads_in_dram: true,
            })
            .unwrap();
        assert_eq!(from_dram.dram_bytes - from_queue.dram_bytes, 8 * 64);
    }

    #[test]
    fn busy_cycles_accumulate() {
        let mut c = core();
        let t = c.alloc_table(64, 4);
        assert_eq!(c.busy_cycles(), 0);
        let instr = NmpInstruction::GatherReduce {
            table: t,
            pairs: (0..32).map(|i| (i, i % 4)).collect(),
            num_outputs: 4,
        };
        c.execute(&instr).unwrap();
        let after_one = c.busy_cycles();
        assert!(after_one > 0);
        c.execute(&instr).unwrap();
        assert!(c.busy_cycles() > after_one);
    }

    #[test]
    fn bigger_gathers_take_longer() {
        let mut c = core();
        let t = c.alloc_table(1024, 16);
        let small = NmpInstruction::GatherReduce {
            table: t,
            pairs: (0..64u32).map(|i| (i * 7 % 1024, i % 16)).collect(),
            num_outputs: 16,
        };
        let big = NmpInstruction::GatherReduce {
            table: t,
            pairs: (0..640u32).map(|i| (i * 7 % 1024, i % 16)).collect(),
            num_outputs: 16,
        };
        let (_, e_small) = c.execute(&small).unwrap();
        let (_, e_big) = c.execute(&big).unwrap();
        assert!(e_big.cycles > 5 * e_small.cycles);
    }
}
