//! What a run prints and writes: the header that pins down where a number
//! came from, the metric table, the run file `compare` reads, and the
//! one-line JSON result the driver reads.

use std::path::{Component, Path, PathBuf};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Value;
use crate::workloads::RunResult;

/// Everything this program writes goes under `benchmark/out/`.
pub fn out_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Resolves `--out <subdir>` below [`out_root`], refusing anything that
/// could land outside it.
///
/// # Errors
///
/// Returns a message for an absolute path or one with `..` in it.
pub fn out_dir(subdir: Option<&str>) -> Result<PathBuf, String> {
    let Some(sub) = subdir else {
        return Ok(out_root());
    };
    let path = Path::new(sub);
    let inside = !sub.is_empty()
        && path
            .components()
            .all(|c| matches!(c, Component::Normal(_) | Component::CurDir));
    if !inside {
        return Err(format!(
            "--out {sub:?} refused: results are only written below {}",
            out_root().display()
        ));
    }
    Ok(out_root().join(path))
}

/// Where a number came from. `compare` refuses to compare runs whose
/// kernel tier or core count differ.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    pub tier: String,
    pub nproc: usize,
    pub git_sha: String,
    pub rustc: String,
    pub timestamp: String,
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Civil date from days since 1970-01-01 (proleptic Gregorian).
fn civil(days: i64) -> (i64, i64, i64) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (yoe + era * 400 + i64::from(m <= 2), m, d)
}

pub fn utc_timestamp(secs: u64) -> String {
    let (y, m, d) = civil((secs / 86_400) as i64);
    let s = secs % 86_400;
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        s / 3600,
        s % 3600 / 60,
        s % 60
    )
}

impl Header {
    pub fn capture() -> Self {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let secs = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        Self {
            tier: tcast_tensor::simd::dispatch().name().to_string(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            // The driver's checkout is not a git repository: "unknown" there.
            git_sha: command_line("git", &["rev-parse", "--short=12", "HEAD"], here)
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: command_line("rustc", &["--version"], here)
                .unwrap_or_else(|| "unknown".to_string()),
            timestamp: utc_timestamp(secs),
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("tier", Value::str(&self.tier)),
            ("nproc", Value::Num(self.nproc as f64)),
            ("git_sha", Value::str(&self.git_sha)),
            ("rustc", Value::str(&self.rustc)),
            ("timestamp", Value::str(&self.timestamp)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Self> {
        let text = |k: &str| v.get(k)?.as_str().map(str::to_string);
        Some(Self {
            tier: text("tier")?,
            nproc: v.get("nproc")?.as_f64()? as usize,
            git_sha: text("git_sha")?,
            rustc: text("rustc")?,
            timestamp: text("timestamp")?,
        })
    }

    pub fn line(&self) -> String {
        format!(
            "tier {}  nproc {}  git {}  {}  {}",
            self.tier, self.nproc, self.git_sha, self.rustc, self.timestamp
        )
    }
}

/// The object the driver reads from the last line of standard output.
pub fn result_json(result: &RunResult) -> Value {
    Value::obj(vec![
        ("correct", Value::Bool(result.correct())),
        ("attempted", Value::Num(result.attempted as f64)),
        ("failed", Value::Num(result.failed as f64)),
        (
            "metrics",
            Value::Obj(
                result
                    .metrics
                    .iter()
                    .map(|(m, v)| {
                        (
                            m.name.to_string(),
                            Value::obj(vec![
                                ("value", Value::Num(*v)),
                                ("unit", Value::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The run file: the result plus everything needed to audit it.
pub fn run_file_json(header: &Header, result: &RunResult) -> Value {
    let mut pairs = vec![
        ("header".to_string(), header.to_json()),
        ("workload".to_string(), Value::str(result.workload)),
        ("seed".to_string(), Value::Num(result.options.seed as f64)),
        ("seconds".to_string(), Value::Num(result.options.seconds)),
        ("trace".to_string(), Value::Bool(result.options.trace)),
        ("quick".to_string(), Value::Bool(result.options.quick)),
    ];
    if let Value::Obj(core) = result_json(result) {
        pairs.extend(core);
    }
    pairs.push((
        "checks".to_string(),
        Value::Arr(
            result
                .checks
                .iter()
                .map(|c| {
                    Value::obj(vec![
                        ("name", Value::str(c.name)),
                        ("pass", Value::Bool(c.pass)),
                        ("detail", Value::str(&c.detail)),
                    ])
                })
                .collect(),
        ),
    ));
    pairs.push(("detail".to_string(), result.detail.clone()));
    Value::Obj(pairs)
}

/// Prints one run: every metric by name with unit, direction and bound,
/// the counts, and each correctness check.
pub fn print_run(header: &Header, result: &RunResult) {
    let o = &result.options;
    println!(
        "== {}  seed {}  {}{}",
        result.workload,
        o.seed,
        if o.trace {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        },
        if o.quick {
            "  QUICK: smoke shapes, bounds not enforced"
        } else {
            ""
        },
    );
    println!("   {}", header.line());
    println!(
        "   timings are {}",
        if o.trace {
            "wall time; bench.host_factor says how slow the host was"
        } else {
            "quiet-host time: wall time over the host factor (README.md)"
        }
    );
    println!(
        "   {:<44} {:>16}  {:<8} {:<7} bound",
        "metric", "value", "unit", "better"
    );
    for (m, v) in &result.metrics {
        println!(
            "   {:<44} {:>16.6}  {:<8} {:<7} {}",
            m.name,
            v,
            m.unit,
            m.better.as_str(),
            m.bound
                .map_or_else(|| "-".to_string(), |b| format!("{b:.2}")),
        );
    }
    println!(
        "   attempted {}  failed {}  correct: {}",
        result.attempted,
        result.failed,
        result.correct()
    );
    if let Some(misses) = result.detail.get("reference_limit_misses") {
        println!(
            "   answered after the 20 ms limit at the reference rate: {} (reported, not failed)",
            misses.as_f64().unwrap_or(0.0)
        );
    }
    for c in &result.checks {
        println!(
            "   check {:<28} {}  {}",
            c.name,
            if c.pass { "ok  " } else { "FAIL" },
            c.detail
        );
    }
}

/// Writes the run file (and the span file of a traced run) into `dir`.
///
/// # Errors
///
/// Returns the I/O error, with the path it concerns.
pub fn write_run(dir: &Path, header: &Header, result: &RunResult) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let kind = if result.options.trace {
        "layers"
    } else {
        "run"
    };
    let path = dir.join(format!(
        "{}.s{}.{kind}.json",
        result.workload, result.options.seed
    ));
    std::fs::write(&path, run_file_json(header, result).encode_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(tracer) = &result.tracer {
        let path = dir.join(format!("{}.traced.json", result.workload));
        tracer
            .write(&path, result.workload, result.options.seed)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_only_written_below_the_out_directory() {
        assert_eq!(out_dir(None).unwrap(), out_root());
        assert_eq!(
            out_dir(Some("selfcheck/A")).unwrap(),
            out_root().join("selfcheck/A")
        );
        for bad in ["/tmp/x", "../x", "a/../../x", "", "a/../b"] {
            assert!(out_dir(Some(bad)).is_err(), "{bad:?} should be refused");
        }
    }

    #[test]
    fn timestamps_are_utc_civil_dates() {
        assert_eq!(utc_timestamp(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_timestamp(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_timestamp(1_790_553_599), "2026-09-27T23:59:59Z");
    }

    #[test]
    fn the_header_round_trips_through_a_run_file() {
        let h = Header {
            tier: "avx2".into(),
            nproc: 2,
            git_sha: "unknown".into(),
            rustc: "rustc 1.95.0".into(),
            timestamp: utc_timestamp(1_790_000_000),
        };
        let text = h.to_json().encode_pretty();
        assert_eq!(
            Header::from_json(&crate::json::parse(&text).unwrap()),
            Some(h)
        );
    }
}
