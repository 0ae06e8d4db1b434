//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] names *sites* (string labels compiled into the code
//! under test) and arms specific *occurrences* of each site: the Nth
//! time execution reaches the site, the fault fires. Because arming is
//! by occurrence index — not by timer or randomness at fire time — a
//! plan reproduces the identical failure on every run, which is what
//! lets the stress suite assert "this exact crash surfaces as this
//! exact error" instead of hoping a race shows up.
//!
//! The plan is cheaply cloneable (`Arc` inside) so one handle can be
//! held by the test while clones ride into worker threads —
//! after [`CastingPipeline::set_fault_plan`](crate::CastingPipeline::set_fault_plan)
//! a clone rides with every casting job to the worker, which consults it
//! once before casting, and [`FaultyWrite`] wires it into any
//! `io::Write`-based checkpoint path.
//!
//! ```
//! use tcast_core::FaultPlan;
//!
//! let plan = FaultPlan::new();
//! plan.arm("demo", 2); // the third hit fails
//! assert!(!plan.should_fail("demo"));
//! assert!(!plan.should_fail("demo"));
//! assert!(plan.should_fail("demo"));
//! assert_eq!(plan.fired(), vec![("demo".to_string(), 2)]);
//! ```

use std::collections::{BTreeSet, HashMap};
use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard};

#[derive(Debug, Default)]
struct PlanInner {
    /// Site -> set of occurrence indices (0-based) that must fault.
    armed: HashMap<String, BTreeSet<u64>>,
    /// Site -> times execution reached it.
    hits: HashMap<String, u64>,
    /// Faults that actually fired, in firing order.
    fired: Vec<(String, u64)>,
}

/// A seeded, reproducible plan of where and when faults fire.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Arc<Mutex<PlanInner>>,
}

impl FaultPlan {
    /// An empty plan: every site passes until armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the plan, recovering from poisoning — a fault plan's whole
    /// job is to outlive panicking threads.
    fn lock(&self) -> MutexGuard<'_, PlanInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arms occurrence `occurrence` (0-based) of `site`: that hit of
    /// [`FaultPlan::should_fail`] returns `true`.
    pub fn arm(&self, site: &str, occurrence: u64) {
        self.lock()
            .armed
            .entry(site.to_string())
            .or_default()
            .insert(occurrence);
    }

    /// Records one hit of `site` and reports whether this occurrence is
    /// armed. Call exactly once per injection point passed.
    pub fn should_fail(&self, site: &str) -> bool {
        let mut inner = self.lock();
        let hit = *inner
            .hits
            .entry(site.to_string())
            .and_modify(|h| *h += 1)
            .or_insert(0);
        let fail = inner
            .armed
            .get(site)
            .is_some_and(|occs| occs.contains(&hit));
        if fail {
            inner.fired.push((site.to_string(), hit));
        }
        fail
    }

    /// Times `site` has been reached so far.
    pub fn hits(&self, site: &str) -> u64 {
        self.lock().hits.get(site).map_or(0, |&h| h + 1)
    }

    /// Every fault that fired, in order.
    pub fn fired(&self) -> Vec<(String, u64)> {
        self.lock().fired.clone()
    }
}

/// An `io::Write` adapter that consults a [`FaultPlan`] before every
/// `write`/`flush`: an armed occurrence surfaces as
/// `io::ErrorKind::Other` instead of touching the inner writer — the
/// injection point for checkpoint I/O errors.
#[derive(Debug)]
pub struct FaultyWrite<W> {
    inner: W,
    plan: FaultPlan,
    site: String,
}

impl<W: Write> FaultyWrite<W> {
    /// Wraps `inner`; every write/flush hits `site` on `plan` once.
    pub fn new(inner: W, plan: FaultPlan, site: impl Into<String>) -> Self {
        Self {
            inner,
            plan,
            site: site.into(),
        }
    }

    /// Unwraps to the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultyWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.plan.should_fail(&self.site) {
            return Err(io::Error::other(format!(
                "injected I/O fault at {}",
                self.site
            )));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.plan.should_fail(&self.site) {
            return Err(io::Error::other(format!(
                "injected I/O fault at {}",
                self.site
            )));
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_never_fire() {
        let plan = FaultPlan::new();
        for _ in 0..100 {
            assert!(!plan.should_fail("quiet"));
        }
        assert!(plan.fired().is_empty());
        assert_eq!(plan.hits("quiet"), 100);
        assert_eq!(plan.hits("never-reached"), 0);
    }

    #[test]
    fn armed_occurrences_fire_exactly_once_each() {
        let plan = FaultPlan::new();
        plan.arm("s", 0);
        plan.arm("s", 3);
        let fails: Vec<bool> = (0..5).map(|_| plan.should_fail("s")).collect();
        assert_eq!(fails, vec![true, false, false, true, false]);
        assert_eq!(
            plan.fired(),
            vec![("s".to_string(), 0), ("s".to_string(), 3)]
        );
    }

    #[test]
    fn sites_count_independently() {
        let plan = FaultPlan::new();
        plan.arm("b", 1);
        assert!(!plan.should_fail("a"));
        assert!(!plan.should_fail("b"));
        assert!(!plan.should_fail("a"));
        assert!(plan.should_fail("b"));
    }

    #[test]
    fn clones_share_the_counters() {
        let plan = FaultPlan::new();
        let clone = plan.clone();
        plan.arm("s", 1);
        assert!(!clone.should_fail("s"));
        assert!(plan.should_fail("s"), "clone's hit must count");
    }

    #[test]
    fn faulty_write_surfaces_io_errors_deterministically() {
        let plan = FaultPlan::new();
        plan.arm("w", 1);
        let mut w = FaultyWrite::new(Vec::new(), plan, "w");
        assert_eq!(w.write(b"ok").unwrap(), 2);
        let err = w.write(b"boom").unwrap_err();
        assert!(err.to_string().contains("injected I/O fault at w"));
        assert_eq!(w.write(b"on").unwrap(), 2);
        assert_eq!(w.into_inner(), b"okon");
    }
}
