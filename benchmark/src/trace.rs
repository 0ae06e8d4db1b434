//! Spans recorded from the benchmark's side of each layer boundary, kept
//! in a pre-allocated buffer and written out when the run ends. Nothing
//! under `crates/` is instrumented: a span is either wall time measured
//! around a call into a public function, or an interval laid out from the
//! phase durations that call returned.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// `parent` value of a root span.
pub const NO_PARENT: u32 = 0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// This span's own id (1-based; 0 is "no parent").
    pub id: u32,
    /// The span that caused this one.
    pub parent: u32,
    /// The step or query every span of one unit of work shares.
    pub trace: u64,
}

#[derive(Debug)]
pub struct Tracer {
    spans: Vec<Span>,
    dropped: u64,
    next_id: u32,
}

impl Tracer {
    /// A tracer that keeps at most `capacity` spans; recording never
    /// allocates, and spans past the capacity are counted, not kept.
    pub fn new(capacity: usize) -> Self {
        Self {
            spans: Vec::with_capacity(capacity),
            dropped: 0,
            next_id: 1,
        }
    }

    /// Records one span and returns its id (usable as a child's parent
    /// even when the span itself was dropped).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        trace: u64,
    ) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
        } else {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                id,
                parent,
                trace,
            });
        }
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total self time per span name: each span's duration minus the part
    /// of its interval that its child spans cover (overlapping children
    /// are merged, children are clipped to the parent).
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// Writes `{"workload", "seed", "spans_dropped", "spans": [...]}`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the write or the flush.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_dropped\":{},\"spans\":[",
            self.dropped
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            // Span names are identifiers chosen by this program: no escaping needed.
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"trace\":{}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.id, s.parent, s.trace
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let mut t = Tracer::new(16);
        let push = t.record("push", 100, 200, NO_PARENT, 7);
        t.record("fwd", 110, 150, push, 7);
        t.record("bwd", 140, 190, push, 7); // overlaps fwd by 10
        t.record("late", 195, 260, push, 7); // clipped to the parent's end
        let own = t.self_time_ns();
        // push covers [110,190) and [195,200): 100 - 80 - 5 = 15.
        assert_eq!(own["push"], 15);
        assert_eq!(own["fwd"], 40);
        assert_eq!(own["bwd"], 50);
    }

    #[test]
    fn a_full_buffer_counts_drops_and_never_grows() {
        let mut t = Tracer::new(2);
        for i in 0..5 {
            t.record("s", i, i + 1, NO_PARENT, i);
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans.capacity(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn the_span_file_parses_as_json() {
        let mut t = Tracer::new(4);
        let root = t.record("query", 0, 10, NO_PARENT, 1);
        t.record("service", 2, 10, root, 1);
        let dir = crate::report::out_root().join(format!("unit-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.traced.json");
        t.write(&path, "serve_hot", 3).unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(1.0));
        assert_eq!(spans[1].get("name").unwrap().as_str(), Some("service"));
    }
}
