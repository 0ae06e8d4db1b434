//! A compact on-disk format for lookup traces.
//!
//! Research workflows want reproducible index streams that can be
//! generated once and replayed across experiments (the paper replays the
//! same dataset-derived lookups through every design point). This module
//! serializes a sequence of [`IndexArray`]s to a simple little-endian
//! binary format:
//!
//! ```text
//! magic  "TCTR"            4 bytes
//! version u32              (currently 1)
//! batches u32
//! per batch:
//!   num_outputs u32
//!   len         u32
//!   src         len x u32
//!   dst         len x u32
//! ```
//!
//! No external serialization crates are needed; the format is fully
//! specified above and guarded by magic/version/shape validation on
//! load.

use crate::workload::TableWorkload;
use std::io::{self, Read, Write};
use tcast_embedding::{EmbeddingError, IndexArray};

const MAGIC: &[u8; 4] = b"TCTR";
const VERSION: u32 = 1;

/// Errors from reading a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a trace file, or an unsupported version.
    Format(String),
    /// The payload decoded but violated index-array invariants.
    Invalid(EmbeddingError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Format(m) => write!(f, "malformed trace: {m}"),
            TraceError::Invalid(e) => write!(f, "invalid trace payload: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Invalid(e) => Some(e),
            TraceError::Format(_) => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<EmbeddingError> for TraceError {
    fn from(e: EmbeddingError) -> Self {
        TraceError::Invalid(e)
    }
}

/// Writes a sequence of index arrays to `w`.
///
/// # Errors
///
/// Returns [`TraceError::Io`] on write failure or
/// [`TraceError::Format`] if there are more than `u32::MAX` batches.
pub fn write_trace(w: &mut impl Write, batches: &[IndexArray]) -> Result<(), TraceError> {
    let count: u32 = batches
        .len()
        .try_into()
        .map_err(|_| TraceError::Format("too many batches".to_string()))?;
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&count.to_le_bytes())?;
    for b in batches {
        let outputs: u32 = b
            .num_outputs()
            .try_into()
            .map_err(|_| TraceError::Format("batch too large".to_string()))?;
        let len: u32 = b
            .len()
            .try_into()
            .map_err(|_| TraceError::Format("batch too large".to_string()))?;
        w.write_all(&outputs.to_le_bytes())?;
        w.write_all(&len.to_le_bytes())?;
        for &s in b.src() {
            w.write_all(&s.to_le_bytes())?;
        }
        for &d in b.dst() {
            w.write_all(&d.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads a trace written by [`write_trace`].
///
/// # Errors
///
/// Returns [`TraceError::Format`] for bad magic/version/truncation,
/// [`TraceError::Invalid`] when a decoded batch violates index-array
/// invariants, or [`TraceError::Io`] on read failure.
pub fn read_trace(r: &mut impl Read) -> Result<Vec<IndexArray>, TraceError> {
    let mut magic = [0u8; 4];
    read_exact(r, &mut magic, "file shorter than header")?;
    if &magic != MAGIC {
        return Err(TraceError::Format(format!(
            "bad magic {magic:?}, expected {MAGIC:?}"
        )));
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(TraceError::Format(format!("unsupported version {version}")));
    }
    // Counts come from the file: pre-allocate at most a bounded amount, so
    // a hostile header fails as truncation instead of aborting the process.
    let count = read_u32(r)? as usize;
    let mut out = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let outputs = read_u32(r)? as usize;
        let len = read_u32(r)? as usize;
        let mut src = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            src.push(read_u32(r)?);
        }
        let mut dst = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            dst.push(read_u32(r)?);
        }
        out.push(IndexArray::from_pairs(src, dst, outputs)?);
    }
    Ok(out)
}

fn read_u32(r: &mut impl Read) -> Result<u32, TraceError> {
    let mut buf = [0u8; 4];
    read_exact(r, &mut buf, "truncated trace")?;
    Ok(u32::from_le_bytes(buf))
}

/// `read_exact` where only an early end of input is a [`TraceError::Format`]
/// (named by `short`); any other read failure stays [`TraceError::Io`].
fn read_exact(r: &mut impl Read, buf: &mut [u8], short: &str) -> Result<(), TraceError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => TraceError::Format(short.to_string()),
        _ => TraceError::Io(e),
    })
}

/// Generates `iterations` mini-batches from a workload and serializes
/// them — the one-call "record a training trace" helper.
///
/// # Errors
///
/// Propagates [`write_trace`] errors.
pub fn record_trace(
    w: &mut impl Write,
    workload: &TableWorkload,
    batch: usize,
    iterations: usize,
    seed: u64,
) -> Result<(), TraceError> {
    let mut generator = workload.generator(seed);
    let batches: Vec<IndexArray> = (0..iterations)
        .map(|_| generator.next_batch(batch))
        .collect();
    write_trace(w, &batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::popularity::Popularity;

    fn sample_batches() -> Vec<IndexArray> {
        vec![
            IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]]).unwrap(),
            IndexArray::from_samples(&[vec![9], vec![9], vec![3, 3]]).unwrap(),
        ]
    }

    #[test]
    fn roundtrip() {
        let batches = sample_batches();
        let mut buf = Vec::new();
        write_trace(&mut buf, &batches).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back, batches);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        assert_eq!(read_trace(&mut buf.as_slice()).unwrap(), vec![]);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_batches()).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceError::Format(_))
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_batches()).unwrap();
        buf[4] = 99;
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceError::Format(m)) if m.contains("version")
        ));
    }

    #[test]
    fn truncated_file_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_batches()).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceError::Format(m)) if m.contains("truncated")
        ));
    }

    #[test]
    fn hostile_counts_are_truncation_not_an_abort() {
        let header = |fields: &[u32]| {
            let mut buf = MAGIC.to_vec();
            for f in [VERSION].iter().chain(fields) {
                buf.extend_from_slice(&f.to_le_bytes());
            }
            buf
        };
        // `u32::MAX` batches, then nothing; one batch of `u32::MAX` lookups.
        for buf in [header(&[u32::MAX]), header(&[1, 1, u32::MAX])] {
            assert!(matches!(
                read_trace(&mut buf.as_slice()),
                Err(TraceError::Format(m)) if m.contains("truncated")
            ));
        }
    }

    #[test]
    fn a_read_failure_is_io_not_truncation() {
        /// Serves `ok` bytes of `data`, then fails every read.
        struct Failing<'a> {
            data: &'a [u8],
            ok: usize,
        }
        impl Read for Failing<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.ok == 0 {
                    return Err(io::Error::other("device gone"));
                }
                let n = buf.len().min(self.ok).min(self.data.len());
                buf[..n].copy_from_slice(&self.data[..n]);
                self.data = &self.data[n..];
                self.ok -= n;
                Ok(n)
            }
        }
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_batches()).unwrap();
        // At the magic, in the header, and partway through a batch's lookups.
        for ok in [0, 6, buf.len() - 6] {
            let mut r = Failing { data: &buf, ok };
            assert!(
                matches!(read_trace(&mut r), Err(TraceError::Io(ref e)) if e.to_string() == "device gone"),
                "failing after {ok} bytes"
            );
        }
    }

    #[test]
    fn corrupted_dst_rejected_by_invariants() {
        let batches = vec![IndexArray::from_samples(&[vec![1]]).unwrap()];
        let mut buf = Vec::new();
        write_trace(&mut buf, &batches).unwrap();
        // Overwrite the single dst (last 4 bytes) with an out-of-range slot.
        let n = buf.len();
        buf[n - 4..].copy_from_slice(&5u32.to_le_bytes());
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceError::Invalid(_))
        ));
    }

    #[test]
    fn record_trace_is_deterministic() {
        let w = TableWorkload::new(
            Popularity::Zipf {
                rows: 1000,
                exponent: 1.0,
            },
            4,
        );
        let mut a = Vec::new();
        let mut b = Vec::new();
        record_trace(&mut a, &w, 32, 3, 7).unwrap();
        record_trace(&mut b, &w, 32, 3, 7).unwrap();
        assert_eq!(a, b);
        let batches = read_trace(&mut a.as_slice()).unwrap();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].num_outputs(), 32);
        assert_eq!(batches[0].len(), 128);
    }

    #[test]
    fn error_display_and_source() {
        let e = TraceError::Format("oops".to_string());
        assert!(e.to_string().contains("oops"));
        let e: TraceError = io::Error::other("disk").into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
