//! `compare <dirA> <dirB>` applies the bounds to two sets of run files;
//! `selfcheck` produces two interleaved sets from this one binary and
//! requires them to agree.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use crate::json::{parse, Value};
use crate::report::{out_dir, Header};
use crate::spec::{Better, MetricSpec, END_TO_END, TIMING_METRICS, WORKLOADS};
use crate::stats::{max_of, min_of, quartiles};

/// How far a single run's timing may sit from its set's median before
/// `selfcheck` fails.
const SINGLE_RUN_TOLERANCE: f64 = 0.10;
/// Runs in each of `selfcheck`'s two sets.
const SELFCHECK_PAIRS: usize = 5;
/// Every `selfcheck` run uses this seed: the check is of the host and the
/// estimators, so the inputs are held fixed.
const SELFCHECK_SEED: u64 = 1;

#[derive(Debug, Clone)]
pub struct RunFile {
    pub header: Header,
    pub workload: String,
    pub quick: bool,
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
}

impl RunFile {
    pub fn from_json(doc: &Value) -> Option<Self> {
        let metrics = doc
            .get("metrics")?
            .as_obj()?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        Some(Self {
            header: Header::from_json(doc.get("header")?)?,
            workload: doc.get("workload")?.as_str()?.to_string(),
            quick: doc.get("quick")?.as_bool()?,
            correct: doc.get("correct")?.as_bool()?,
            metrics,
        })
    }
}

/// Every untraced run file (`*.run.json`) in `dir`, sorted by name.
///
/// # Errors
///
/// Returns a message when the directory cannot be read, holds no run
/// files, or a run file does not parse.
pub fn load_set(dir: &Path) -> Result<Vec<RunFile>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.to_string_lossy().ends_with(".run.json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no *.run.json files", dir.display()));
    }
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            let doc = parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
            RunFile::from_json(&doc).ok_or_else(|| format!("{}: not a run file", p.display()))
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static MetricSpec,
    /// First quartile, median, third quartile of each side.
    pub a: [f64; 3],
    pub b: [f64; 3],
    /// How much worse B's median is than A's, as a share of A's
    /// (negative: better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// The decision rule. `a` is the parent's values, `b` the change's.
///
/// * Medians differ by more than the bound, quartile ranges apart:
///   `regressed`. Ranges overlapping: the runs cannot tell the two apart
///   that finely — `unresolved`.
/// * Medians within the bound: `ok`, unless either side's own
///   interquartile range is wider than the bound (the noise could hide a
///   regression that large) — then `unresolved`, except when every run of
///   B reads better than every run of A.
pub fn judge(workload: &str, metric: &'static MetricSpec, a: &[f64], b: &[f64]) -> Row {
    let bound = metric.bound.expect("only end-to-end metrics are judged");
    let (qa, qb) = (quartiles(a), quartiles(b));
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (qb[1] - qa[1]) / qa[1];
    let overlap = qa[0] <= qb[2] && qb[0] <= qa[2];
    let spread = f64::max(qa[2] - qa[0], qb[2] - qb[0]) / qa[1].abs();
    let b_always_better = match metric.better {
        Better::Lower => max_of(b) < min_of(a),
        Better::Higher => min_of(b) > max_of(a),
    };
    let verdict = if worse_by > bound {
        if overlap {
            Verdict::Unresolved
        } else {
            Verdict::Regressed
        }
    } else if spread > bound && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Row {
        workload: workload.to_string(),
        metric,
        a: qa,
        b: qb,
        worse_by,
        verdict,
    }
}

fn values(set: &[RunFile], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// One row per (workload, end-to-end metric) both sets have runs for.
///
/// # Errors
///
/// Refuses sets measured on different kernel tiers or core counts, and
/// sets that mix smoke runs with real ones.
pub fn compare_sets(a: &[RunFile], b: &[RunFile]) -> Result<Vec<Row>, String> {
    let all = || a.iter().chain(b.iter());
    let first = &a[0].header;
    if let Some(other) =
        all().find(|r| r.header.tier != first.tier || r.header.nproc != first.nproc)
    {
        return Err(format!(
            "refusing to compare: tier {} nproc {} against tier {} nproc {}",
            first.tier, first.nproc, other.header.tier, other.header.nproc
        ));
    }
    if all().any(|r| r.quick) {
        return Err("refusing to compare --quick runs: their shapes are smoke shapes".to_string());
    }
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        for metric in &END_TO_END {
            let (va, vb) = (
                values(a, workload, metric.name),
                values(b, workload, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            rows.push(judge(workload, metric, &va, &vb));
        }
    }
    if rows.is_empty() {
        return Err("the two sets share no workload".to_string());
    }
    Ok(rows)
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<18} {:<17} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "worse", "bound"
    );
    for r in rows {
        let range = |q: &[f64; 3]| format!("[{:.4}, {:.4}]", q[0], q[2]);
        println!(
            "{:<18} {:<17} {:>12.4} {:>25} {:>12.4} {:>25} {:>+7.2}% {:>6.2}  {}",
            r.workload,
            r.metric.name,
            r.a[1],
            range(&r.a),
            r.b[1],
            range(&r.b),
            r.worse_by * 100.0,
            r.metric.bound.expect("judged metrics are bounded"),
            r.verdict.as_str()
        );
    }
}

/// `compare <dirA> <dirB>`: exit code 0 when nothing regressed.
///
/// # Errors
///
/// Returns a message when a set cannot be loaded or compared.
pub fn compare_command(dir_a: &Path, dir_b: &Path) -> Result<i32, String> {
    let (a, b) = (load_set(dir_a)?, load_set(dir_b)?);
    println!(
        "A: {} ({} runs, {})",
        dir_a.display(),
        a.len(),
        a[0].header.line()
    );
    println!(
        "B: {} ({} runs, {})",
        dir_b.display(),
        b.len(),
        b[0].header.line()
    );
    let incorrect = a.iter().chain(&b).filter(|r| !r.correct).count();
    let rows = compare_sets(&a, &b)?;
    print_rows(&rows);
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved; {incorrect} runs failed their correctness checks",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    Ok(i32::from(count(Verdict::Regressed) > 0 || incorrect > 0))
}

/// Every single run's timing metrics against its own set's median.
/// Returns the offending `(workload, metric, run, deviation)` tuples, `run`
/// counting the workload's runs in the set from 1.
pub fn single_run_outliers(set: &[RunFile]) -> Vec<(String, &'static str, usize, f64)> {
    let mut out = Vec::new();
    for workload in WORKLOADS {
        for metric in TIMING_METRICS {
            let med = match values(set, workload, metric).as_slice() {
                [] => continue,
                v => quartiles(v)[1],
            };
            let runs = set.iter().filter(|r| r.workload == workload);
            for (i, run) in runs.enumerate() {
                if let Some(v) = run.metrics.get(metric) {
                    let dev = (v - med) / med;
                    if dev.abs() > SINGLE_RUN_TOLERANCE {
                        out.push((workload.to_string(), metric, i + 1, dev));
                    }
                }
            }
        }
    }
    out
}

/// `selfcheck`: two sets of 5 runs of this same binary on the same seed,
/// interleaved (A B A B ...) so both see the same stretch of host noise.
/// Passes only if every (workload, metric) pair is `ok` and every single
/// run's timings lie within 0.10 of its set's median.
///
/// # Errors
///
/// Returns a message when a child run cannot be started or fails.
pub fn selfcheck_command(seconds: f64) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let root = out_dir(Some("selfcheck"))?;
    if root.exists() {
        std::fs::remove_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    }
    println!("selfcheck: {SELFCHECK_PAIRS} pairs of `--workload all --seed {SELFCHECK_SEED}` runs of one binary, interleaved A B A B, --seconds {seconds}");
    println!("{}", Header::capture().line());
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for run in 1..=SELFCHECK_PAIRS {
        for (name, set) in [("A", &mut a), ("B", &mut b)] {
            let dir = format!("selfcheck/{name}{run}");
            let out = Command::new(&exe)
                .args(["--workload", "all", "--seed", &SELFCHECK_SEED.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--out", &dir])
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            if !out.status.success() {
                return Err(format!(
                    "run {name}{run} exited with {}:\n{}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            set.extend(load_set(&root.join(format!("{name}{run}")))?);
            println!("run {name}{run}: done");
        }
    }
    let rows = compare_sets(&a, &b)?;
    print_rows(&rows);
    let not_ok = rows.iter().filter(|r| r.verdict != Verdict::Ok).count();
    let mut outliers = 0;
    for (name, set) in [("A", &a), ("B", &b)] {
        for (workload, metric, run, dev) in single_run_outliers(set) {
            outliers += 1;
            println!(
                "outlier: {name}{run} {workload} {metric} is {:+.1}% from its set's median",
                dev * 100.0
            );
        }
    }
    let incorrect = a.iter().chain(&b).filter(|r| !r.correct).count();
    let pass = not_ok == 0 && outliers == 0 && incorrect == 0;
    println!(
        "selfcheck {}: {} of {} pairs ok, {outliers} single runs beyond {SINGLE_RUN_TOLERANCE:.2} of their set's median, {incorrect} incorrect runs",
        if pass { "PASSED" } else { "FAILED" },
        rows.len() - not_ok,
        rows.len()
    );
    Ok(i32::from(!pass))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{out_root, utc_timestamp};
    use crate::spec::end_to_end;

    fn header(tier: &str, nproc: usize) -> Header {
        Header {
            tier: tier.into(),
            nproc,
            git_sha: "unknown".into(),
            rustc: "rustc".into(),
            timestamp: utc_timestamp(0),
        }
    }

    /// Hand-made run files, through the real writer and loader.
    fn write_set(
        name: &str,
        tier: &str,
        latency: &[f64],
        throughput: &[f64],
    ) -> std::path::PathBuf {
        let dir = out_root().join(format!("unit-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (i, (l, t)) in latency.iter().zip(throughput).enumerate() {
            let doc = Value::obj(vec![
                ("header", header(tier, 2).to_json()),
                ("workload", Value::str("train_embed")),
                ("seed", Value::Num(i as f64 + 1.0)),
                ("quick", Value::Bool(false)),
                ("correct", Value::Bool(true)),
                (
                    "metrics",
                    Value::obj(vec![
                        (
                            "latency_ms",
                            Value::obj(vec![("value", Value::Num(*l)), ("unit", Value::str("ms"))]),
                        ),
                        (
                            "throughput_per_s",
                            Value::obj(vec![
                                ("value", Value::Num(*t)),
                                ("unit", Value::str("1/s")),
                            ]),
                        ),
                    ]),
                ),
            ]);
            std::fs::write(
                dir.join(format!("train_embed.s{}.run.json", i + 1)),
                doc.encode_pretty(),
            )
            .unwrap();
        }
        // Files of other kinds in the same directory are not runs.
        std::fs::write(dir.join("train_embed.traced.json"), "{}").unwrap();
        dir
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric.name == metric)
            .unwrap()
            .verdict
    }

    #[test]
    fn verdicts_on_hand_made_run_files() {
        // Built around the bound, so the cases keep their meaning if it is retuned.
        let b = end_to_end("latency_ms").unwrap().bound.unwrap();
        assert_eq!(end_to_end("throughput_per_s").unwrap().bound, Some(b));
        let scaled = |base: f64, factors: [f64; 5]| factors.map(|f| base * f);
        let steady = [1.0, 1.01, 0.99, 1.005, 0.995];
        let base = write_set(
            "base",
            "avx2",
            &scaled(100.0, steady),
            &scaled(5000.0, steady),
        );
        // Twice the bound slower and well separated: regressed. Throughput unchanged: ok.
        let slow = write_set(
            "slow",
            "avx2",
            &scaled(100.0 * (1.0 + 2.0 * b), steady),
            &[5000.0; 5],
        );
        // Median 1.5 bounds worse but the quartile ranges overlap: unresolved.
        // Throughput median unchanged but noisier than the bound: unresolved.
        let noisy = write_set(
            "noisy",
            "avx2",
            &scaled(
                100.0,
                [1.0 - b, 1.0 + 3.5 * b, 1.0 + 1.5 * b, 1.0, 1.0 + 3.0 * b],
            ),
            &scaled(
                5000.0,
                [1.0, 1.0 - 2.0 * b, 1.0 + 1.2 * b, 1.0 - 1.4 * b, 1.0 + b],
            ),
        );
        // Noisier than the bound too, but every run beats every run of the parent: ok.
        let faster = write_set(
            "faster",
            "avx2",
            &scaled(
                100.0,
                [
                    0.2,
                    0.2 + 2.4 * b,
                    0.2 + 1.2 * b,
                    0.2 + 0.5 * b,
                    0.2 + 2.8 * b,
                ],
            ),
            &[5000.0; 5],
        );
        let other_tier = write_set("fma", "fma", &scaled(100.0, steady), &[5000.0; 5]);

        let load = |d: &std::path::Path| load_set(d).unwrap();
        let rows = compare_sets(&load(&base), &load(&slow)).unwrap();
        assert_eq!(verdict_of(&rows, "latency_ms"), Verdict::Regressed);
        assert_eq!(verdict_of(&rows, "throughput_per_s"), Verdict::Ok);
        let rows = compare_sets(&load(&base), &load(&noisy)).unwrap();
        assert_eq!(verdict_of(&rows, "latency_ms"), Verdict::Unresolved);
        assert_eq!(verdict_of(&rows, "throughput_per_s"), Verdict::Unresolved);
        let rows = compare_sets(&load(&base), &load(&faster)).unwrap();
        assert_eq!(verdict_of(&rows, "latency_ms"), Verdict::Ok);
        let rows = compare_sets(&load(&base), &load(&base)).unwrap();
        assert!(rows
            .iter()
            .all(|r| r.verdict == Verdict::Ok && r.worse_by == 0.0));
        assert_eq!(rows.len(), 2, "only metrics both sets report");
        assert!(compare_sets(&load(&base), &load(&other_tier)).is_err());

        assert_eq!(compare_command(&base, &base).unwrap(), 0);
        assert_eq!(compare_command(&base, &slow).unwrap(), 1);
        assert!(single_run_outliers(&load(&base)).is_empty());
        // The noisy set's first run sits a full bound below its set's median.
        let outliers = single_run_outliers(&load(&noisy));
        assert!(outliers
            .iter()
            .any(|(_, m, run, _)| *m == "latency_ms" && *run == 1));

        for d in [base, slow, noisy, faster, other_tier] {
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn higher_is_better_flips_the_sign() {
        let m = end_to_end("throughput_per_s").unwrap();
        let b = m.bound.unwrap();
        let worse = 1000.0 * (1.0 - 2.0 * b);
        let parent = [1000.0, 1001.0, 999.0];
        let row = judge("w", m, &parent, &[worse, worse + 1.0, worse - 1.0]);
        assert!((row.worse_by - 2.0 * b).abs() < 1e-9);
        assert_eq!(row.verdict, Verdict::Regressed);
        let row = judge("w", m, &parent, &[1200.0, 1201.0, 1199.0]);
        assert!(row.worse_by < 0.0);
        assert_eq!(row.verdict, Verdict::Ok);
    }

    #[test]
    fn empty_and_missing_directories_are_errors() {
        assert!(load_set(&out_root().join("no-such-set")).is_err());
    }
}
