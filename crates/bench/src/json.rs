//! Minimal JSON-lines emission for machine-readable benchmark tracking.
//!
//! Every figure/bench binary can append rows to a `BENCH_*.json` file so
//! the performance trajectory of the repository is recorded as data, not
//! prose. Two entry points:
//!
//! * `repro_all --json [PATH]` exports `TCAST_BENCH_JSON` to its children
//!   so each figure binary (and any [`crate::harness::BenchGroup`])
//!   appends rows to one shared sink;
//! * `kernel_bench` writes `BENCH_kernel.json` directly.
//!
//! No serde: rows are built with [`JsonRow`], a tiny escaping writer.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Environment variable naming the shared JSON-lines sink.
pub const JSON_ENV: &str = "TCAST_BENCH_JSON";

/// The sink path from [`JSON_ENV`], if exported and non-empty.
pub fn sink_from_env() -> Option<PathBuf> {
    match std::env::var(JSON_ENV) {
        Ok(path) if !path.is_empty() => Some(PathBuf::from(path)),
        _ => None,
    }
}

/// One JSON object, built field by field.
#[derive(Debug, Default, Clone)]
pub struct JsonRow {
    buf: String,
}

impl JsonRow {
    /// An empty row.
    pub fn new() -> Self {
        Self::default()
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
    }

    fn push_escaped(&mut self, s: &str) {
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\t' => self.buf.push_str("\\t"),
                '\r' => self.buf.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    /// Adds a string field.
    pub fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        self.sep();
        self.push_escaped(key);
        self.buf.push(':');
        self.push_escaped(value);
        self
    }

    /// Adds a float field (`null` for non-finite values).
    pub fn f64_field(&mut self, key: &str, value: f64) -> &mut Self {
        self.sep();
        self.push_escaped(key);
        self.buf.push(':');
        if value.is_finite() {
            self.buf.push_str(&format!("{value}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64_field(&mut self, key: &str, value: u64) -> &mut Self {
        self.sep();
        self.push_escaped(key);
        self.buf.push(':');
        self.buf.push_str(&format!("{value}"));
        self
    }

    /// Adds a boolean field.
    pub fn bool_field(&mut self, key: &str, value: bool) -> &mut Self {
        self.sep();
        self.push_escaped(key);
        self.buf.push(':');
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// The serialized object.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Appends `row` as one line to `path` (creating the file if needed).
///
/// # Errors
///
/// Propagates any I/O error from opening or writing the sink.
pub fn append_row(path: &Path, row: &JsonRow) -> std::io::Result<()> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(file, "{}", row.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_serializes_and_escapes() {
        let mut row = JsonRow::new();
        row.str_field("name", "a\"b\\c\nd")
            .f64_field("x", 1.5)
            .u64_field("n", 42)
            .bool_field("ok", true)
            .f64_field("bad", f64::NAN);
        assert_eq!(
            row.to_json(),
            r#"{"name":"a\"b\\c\nd","x":1.5,"n":42,"ok":true,"bad":null}"#
        );
    }

    #[test]
    fn empty_row_is_empty_object() {
        assert_eq!(JsonRow::new().to_json(), "{}");
    }

    #[test]
    fn append_creates_and_appends() {
        let path =
            std::env::temp_dir().join(format!("tcast_json_test_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut row = JsonRow::new();
        row.u64_field("a", 1);
        append_row(&path, &row).unwrap();
        append_row(&path, &row).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"a\":1}\n");
        let _ = std::fs::remove_file(&path);
    }
}
