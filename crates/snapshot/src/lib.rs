//! **tcast-snapshot** — epoch-versioned model snapshot publication, the
//! substrate for true concurrent train-and-serve.
//!
//! `serve_online` time-slices one thread between training and serving; a
//! production recommender does both *simultaneously*, which makes model
//! freshness a first-class serving SLA (the DeepRecSys regime: at-scale
//! inference under continuous update). The missing piece is a way for
//! serving engines to read a *consistent* model while the trainer
//! mutates its own — with zero stop-the-world and bounded staleness.
//!
//! [`SnapshotStore`] is that piece, an arc-swap-style publication point
//! built on std only:
//!
//! * the trainer **publishes** an immutable [`ModelSnapshot`] every K
//!   steps — a slab copy of every trainable weight
//!   ([`Dlrm::copy_weights_from`]) into a *recycled* buffer model, so the
//!   steady-state publish allocates nothing;
//! * engines **resolve** the latest snapshot per fused batch
//!   ([`SnapshotStore::latest`] — a mutex-guarded `Arc` clone, never a
//!   torn read: published snapshots are immutable behind `Arc`, and the
//!   writer only recycles buffers whose reference count proves no reader
//!   holds them);
//! * versions are **strictly monotonic** — every publication (including
//!   a rollback re-publication) gets a fresh version, so any served
//!   batch is explainable by exactly one published version;
//! * the last `retain` versions stay resident, so a **rollback**
//!   ([`SnapshotStore::rollback_to`]) re-publishes a prior version's
//!   exact bytes as a new version without pausing serving, and a **hot
//!   swap** is just publishing a checkpoint-restored model mid-traffic.
//!
//! The concurrency argument is structural, not probabilistic: a reader's
//! `Arc<ModelSnapshot>` pins its buffer (the writer's recycle check
//! `Arc::get_mut` fails while any reader share exists), and the version
//! counter only moves forward under the writer lock — which is what
//! makes the concurrent serving mode's scores *bit-identical* to a
//! stop-the-world oracle at the same version (property-tested in
//! `tests/concurrent_serving.rs`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tcast_dlrm::Dlrm;

/// An immutable, epoch-versioned copy of a model's trainable weights.
///
/// Snapshots are handed out behind `Arc`: holding one pins the buffer
/// (the store will not recycle it), and the model inside never changes
/// after publication — scoring through [`ModelSnapshot::model`] is
/// always consistent, whatever the trainer is doing concurrently.
#[derive(Debug)]
pub struct ModelSnapshot {
    version: u64,
    steps: u64,
    published_at: Instant,
    model: Dlrm,
}

impl ModelSnapshot {
    /// The snapshot's version — strictly monotonic across all
    /// publications of one store, starting at 1.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Trainer steps taken when this snapshot was captured.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Wall-clock age of this snapshot in nanoseconds — the *model age*
    /// half of the freshness SLA.
    pub fn age_ns(&self) -> u64 {
        self.published_at.elapsed().as_nanos() as u64
    }

    /// The frozen model. Serving reads it through `&` only.
    pub fn model(&self) -> &Dlrm {
        &self.model
    }
}

/// What can go wrong at the snapshot store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The requested rollback target is not resident (never published,
    /// already evicted from the retained ring, or the current version).
    VersionNotRetained {
        /// The requested version.
        version: u64,
        /// Versions currently available to roll back to.
        retained: Vec<u64>,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::VersionNotRetained { version, retained } => write!(
                f,
                "version {version} is not retained (available: {retained:?})"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Writer-side state, all under one mutex: the published head, the
/// rollback ring, and the recycle pool.
#[derive(Debug)]
struct StoreInner {
    current: Arc<ModelSnapshot>,
    /// Prior versions, oldest first, still resident for rollback.
    retained: VecDeque<Arc<ModelSnapshot>>,
    /// Retired buffers awaiting recycling. A buffer still pinned by a
    /// reader simply waits here until its last share drops.
    free: Vec<Arc<ModelSnapshot>>,
    next_version: u64,
    retain: usize,
}

/// The epoch-versioned snapshot publication point (see module docs).
///
/// One writer (the trainer) publishes; any number of readers (serving
/// engines) resolve. All methods take `&self`, so one
/// `Arc<SnapshotStore>` — or a plain borrow across scoped threads — is
/// the whole sharing story.
#[derive(Debug)]
pub struct SnapshotStore {
    /// Mirror of the current version for lock-free staleness probes.
    version: AtomicU64,
    inner: Mutex<StoreInner>,
}

impl SnapshotStore {
    /// Creates a store and publishes `model` as version 1 (captured at
    /// `steps` trainer steps). `retain` is how many *prior* versions stay
    /// resident for rollback after each publication.
    pub fn new(model: &Dlrm, steps: u64, retain: usize) -> Self {
        let mut buffer = Self::fresh_buffer(model);
        Self::capture(&mut buffer, model, 1, steps);
        Self {
            version: AtomicU64::new(1),
            inner: Mutex::new(StoreInner {
                current: buffer,
                retained: VecDeque::new(),
                free: Vec::new(),
                next_version: 2,
                retain,
            }),
        }
    }

    /// Allocates a buffer model with `model`'s architecture (weights are
    /// overwritten by every capture, so the seed is irrelevant).
    fn fresh_buffer(model: &Dlrm) -> Arc<ModelSnapshot> {
        let buffer = Dlrm::new(model.config().clone(), 0)
            .expect("snapshot buffer shares a validated config");
        Arc::new(ModelSnapshot {
            version: 0,
            steps: 0,
            published_at: Instant::now(),
            model: buffer,
        })
    }

    /// Copies `model`'s weights into `buffer` and stamps it. The caller
    /// guarantees exclusivity (`Arc::get_mut` succeeds).
    fn capture(buffer: &mut Arc<ModelSnapshot>, model: &Dlrm, version: u64, steps: u64) {
        let snap = Arc::get_mut(buffer).expect("capture buffer is exclusively owned");
        snap.model.copy_weights_from(model);
        snap.version = version;
        snap.steps = steps;
        snap.published_at = Instant::now();
    }

    /// The latest published snapshot — a consistent, immutable model any
    /// number of engines can score concurrently. Never blocks on the
    /// slab copy: publication happens in writer-owned buffers and only
    /// the head swap is under the lock.
    pub fn latest(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.inner.lock().expect("snapshot store poisoned").current)
    }

    /// The latest published version, lock-free — the staleness probe an
    /// engine runs per batch to decide whether its held snapshot is
    /// within its staleness bound.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Publishes a new snapshot of `model` (captured at `steps` trainer
    /// steps) and returns its version. Steady-state allocation-free: the
    /// copy lands in a recycled buffer whenever one is unpinned (enforced
    /// in `tests/zero_alloc.rs`).
    pub fn publish(&self, model: &Dlrm, steps: u64) -> u64 {
        let mut inner = self.inner.lock().expect("snapshot store poisoned");
        self.publish_locked(&mut inner, model, steps)
    }

    /// Re-publishes retained `version`'s exact bytes as a **new**
    /// (monotonic) version, without pausing serving: engines keep scoring
    /// whatever snapshot they hold and pick up the rolled-back weights on
    /// their next refresh. Returns the new version.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::VersionNotRetained`] if `version` is not in the
    /// retained ring.
    pub fn rollback_to(&self, version: u64) -> Result<u64, SnapshotError> {
        let mut inner = self.inner.lock().expect("snapshot store poisoned");
        let Some(source) = inner
            .retained
            .iter()
            .find(|s| s.version == version)
            .map(Arc::clone)
        else {
            return Err(SnapshotError::VersionNotRetained {
                version,
                retained: inner.retained.iter().map(|s| s.version).collect(),
            });
        };
        Ok(self.publish_locked(&mut inner, &source.model, source.steps))
    }

    fn publish_locked(&self, inner: &mut StoreInner, model: &Dlrm, steps: u64) -> u64 {
        // Recycle: any retired buffer no reader pins. `Arc::get_mut`
        // succeeding *is* the proof of exclusivity — a reader's share
        // makes it fail, and the buffer simply waits in the pool.
        let mut buffer = match inner.free.iter().position(|b| Arc::strong_count(b) == 1) {
            Some(i) => inner.free.swap_remove(i),
            None => Self::fresh_buffer(model),
        };
        let version = inner.next_version;
        inner.next_version += 1;
        Self::capture(&mut buffer, model, version, steps);
        let previous = std::mem::replace(&mut inner.current, buffer);
        inner.retained.push_back(previous);
        while inner.retained.len() > inner.retain {
            let retired = inner.retained.pop_front().expect("ring non-empty");
            inner.free.push(retired);
        }
        self.version.store(version, Ordering::Release);
        version
    }

    /// Versions currently available to roll back to, oldest first.
    pub fn retained_versions(&self) -> Vec<u64> {
        self.inner
            .lock()
            .expect("snapshot store poisoned")
            .retained
            .iter()
            .map(|s| s.version)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcast_dlrm::DlrmConfig;

    fn model(seed: u64) -> Dlrm {
        Dlrm::new(DlrmConfig::tiny(), seed).unwrap()
    }

    fn weight_bits(m: &Dlrm) -> Vec<u32> {
        let mut bits = Vec::new();
        for layer in m.bottom().layers().iter().chain(m.top().layers()) {
            bits.extend(layer.weight().as_slice().iter().map(|v| v.to_bits()));
            bits.extend(layer.bias().iter().map(|v| v.to_bits()));
        }
        for t in 0..m.num_tables() {
            bits.extend(m.table(t).as_slice().iter().map(|v| v.to_bits()));
        }
        bits
    }

    #[test]
    fn publishes_are_strictly_monotonic_and_bit_exact() {
        let store = SnapshotStore::new(&model(1), 0, 2);
        assert_eq!(store.version(), 1);
        assert_eq!(store.latest().version(), 1);
        let m2 = model(2);
        let v = store.publish(&m2, 7);
        assert_eq!(v, 2);
        let snap = store.latest();
        assert_eq!(snap.version(), 2);
        assert_eq!(snap.steps(), 7);
        assert_eq!(weight_bits(snap.model()), weight_bits(&m2));
    }

    #[test]
    fn retained_ring_holds_the_last_n_prior_versions() {
        let store = SnapshotStore::new(&model(1), 0, 2);
        for s in 0..4u64 {
            store.publish(&model(10 + s), s);
        }
        // Published 1..=5; current is 5; retained are the 2 before it.
        assert_eq!(store.version(), 5);
        assert_eq!(store.retained_versions(), vec![3, 4]);
    }

    #[test]
    fn rollback_republishes_retained_bytes_exactly_as_a_new_version() {
        let store = SnapshotStore::new(&model(1), 0, 3);
        let m2 = model(22);
        store.publish(&m2, 4);
        store.publish(&model(33), 8);
        // Roll back to version 2 (m2's weights).
        let v = store.rollback_to(2).unwrap();
        assert_eq!(v, 4, "rollback is a new monotonic version");
        let snap = store.latest();
        assert_eq!(snap.version(), 4);
        assert_eq!(snap.steps(), 4, "rollback restores the captured steps");
        assert_eq!(weight_bits(snap.model()), weight_bits(&m2));
    }

    #[test]
    fn rollback_to_a_missing_version_is_a_typed_error() {
        let store = SnapshotStore::new(&model(1), 0, 1);
        store.publish(&model(2), 1);
        store.publish(&model(3), 2);
        let err = store.rollback_to(1).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::VersionNotRetained {
                version: 1,
                retained: vec![2],
            }
        );
        assert!(err.to_string().contains("not retained"));
    }

    #[test]
    fn warm_store_recycles_buffers_instead_of_allocating() {
        let m = model(1);
        let store = SnapshotStore::new(&m, 0, 1);
        // Warm: fill current + ring, retire one buffer into the pool.
        store.publish(&m, 1);
        store.publish(&m, 2);
        let recycled_ptr = {
            let inner = store.inner.lock().unwrap();
            assert_eq!(inner.free.len(), 1);
            Arc::as_ptr(&inner.free[0])
        };
        store.publish(&m, 3);
        assert_eq!(
            Arc::as_ptr(&store.latest()),
            recycled_ptr,
            "warm publish must reuse the retired buffer"
        );
    }

    #[test]
    fn a_pinned_buffer_is_never_recycled() {
        let m = model(1);
        let store = SnapshotStore::new(&m, 0, 0);
        let pinned = store.latest(); // reader holds version 1
        let v1_bits = weight_bits(pinned.model());
        // With retain=0 every publish retires the previous head straight
        // into the pool — but the pin must keep it out of reuse.
        for s in 0..4 {
            store.publish(&model(50 + s), s);
        }
        assert_eq!(pinned.version(), 1);
        assert_eq!(
            weight_bits(pinned.model()),
            v1_bits,
            "a held snapshot must never change under the reader"
        );
    }

    #[test]
    fn readers_never_observe_a_torn_snapshot_under_a_hammering_writer() {
        // The writer publishes models whose every weight is one constant;
        // a torn copy would mix two constants inside one snapshot.
        let template = model(1);
        let store = Arc::new(SnapshotStore::new(&template, 0, 1));
        let stop = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            let writer_store = Arc::clone(&store);
            let writer_stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut m = model(1);
                let mut c = 1.0f32;
                while writer_stop.load(Ordering::Acquire) == 0 {
                    for layer in m.bottom_mut().layers_mut() {
                        let bias = vec![c; layer.out_dim()];
                        let w = tcast_tensor::Matrix::filled(layer.in_dim(), layer.out_dim(), c);
                        layer.set_parameters(w, bias).unwrap();
                    }
                    for t in 0..m.num_tables() {
                        m.table_mut(t).as_mut_slice().fill(c);
                    }
                    writer_store.publish(&m, c as u64);
                    c += 1.0;
                }
            });
            for _ in 0..3 {
                let reader_store = Arc::clone(&store);
                s.spawn(move || {
                    let mut last_version = 0;
                    for _ in 0..200 {
                        let snap = reader_store.latest();
                        assert!(
                            snap.version() >= last_version,
                            "versions went backwards: {} then {}",
                            last_version,
                            snap.version()
                        );
                        last_version = snap.version();
                        if snap.version() == 1 {
                            continue; // seeded initial model, not constant
                        }
                        let slab = snap.model().table(0).as_slice();
                        let first = slab[0];
                        assert!(
                            slab.iter().all(|&v| v == first),
                            "torn table slab at version {}",
                            snap.version()
                        );
                        for layer in snap.model().bottom().layers() {
                            assert!(
                                layer.weight().as_slice().iter().all(|&v| v == first),
                                "torn MLP weights at version {}",
                                snap.version()
                            );
                        }
                    }
                });
            }
            // Readers finish first (scope joins them), then stop the writer.
            stop.store(1, Ordering::Release);
        });
        assert!(store.version() >= 1);
    }
}
