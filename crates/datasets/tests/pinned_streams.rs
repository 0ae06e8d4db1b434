//! Pinned digests of the generated streams.
//!
//! Every loss, checkpoint and served score in the workspace is a function
//! of these streams, so a change to how a lookup is drawn must not move a
//! single id. Each test hashes a stream (FNV-1a over the bits of every
//! id, feature and label) and compares it against a constant recorded
//! from the exact `f64` binary-search sampler these streams were first
//! drawn with. A mismatch means the draws changed: fix the sampler, do
//! not re-pin the constant.

use tcast_datasets::{CtrBatch, Popularity, SyntheticCtr, TableWorkload};
use tcast_embedding::IndexArray;
use tcast_tensor::SplitMix64;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u32(&mut self, x: u32) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn index(&mut self, index: &IndexArray) {
        self.u32(index.num_outputs() as u32);
        self.u32(index.len() as u32);
        for (src, dst) in index.iter() {
            self.u32(src);
            self.u32(dst);
        }
    }

    fn batch(&mut self, batch: &CtrBatch) {
        for v in batch.dense.as_slice() {
            self.u32(v.to_bits());
        }
        for index in batch.indices.iter() {
            self.index(index);
        }
        for v in batch.labels.as_slice() {
            self.u32(v.to_bits());
        }
    }
}

fn zipf(rows: usize, exponent: f64, pooling: usize) -> TableWorkload {
    TableWorkload::new(Popularity::Zipf { rows, exponent }, pooling)
}

fn digest_batches(mut ctr: SyntheticCtr, batches: usize, batch: usize) -> u64 {
    let mut h = Fnv::new();
    for _ in 0..batches {
        h.batch(&ctr.next_batch(batch));
    }
    h.0
}

#[test]
fn rm1_shaped_stream_is_pinned() {
    // RM1's tables: ten Zipf(1.05) tables of 400k rows, 80 lookups a sample.
    let ctr = SyntheticCtr::new(vec![zipf(400_000, 1.05, 80); 10], 13, 7);
    assert_eq!(digest_batches(ctr, 3, 128), 0x3495_33d4_5fbe_7368);
}

#[test]
fn mixed_table_stream_is_pinned() {
    let shared = zipf(5_000, 1.2, 4);
    let tables = vec![
        TableWorkload::new(Popularity::Uniform { rows: 1_000 }, 3),
        zipf(400_000, 1.05, 8),
        zipf(17, 0.5, 2),
        shared,
        shared,
    ];
    let ctr = SyntheticCtr::new(tables, 5, 11);
    assert_eq!(digest_batches(ctr, 3, 64), 0xdcb1_6757_c143_dcd4);
}

#[test]
fn multihot_and_sample_many_streams_are_pinned() {
    let mut h = Fnv::new();
    let mut gen = zipf(10_000, 1.05, 6).generator(3);
    for _ in 0..2 {
        h.index(&gen.next_batch_multihot(64));
    }
    let sampler = Popularity::Zipf {
        rows: 100_000,
        exponent: 0.8,
    }
    .sampler();
    for id in sampler.sample_many(10_000, &mut SplitMix64::new(5)) {
        h.u32(id);
    }
    assert_eq!(h.0, 0x2dd3_a4a4_0972_d66d);
}
