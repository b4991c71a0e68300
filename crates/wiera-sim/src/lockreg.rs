//! Lock-order tracking and potential-deadlock detection.
//!
//! The runtime takes ~70 `Mutex`/`RwLock` acquisitions across wiera-coord,
//! the replica protocols and the Tiera instance engine. A deadlock needs two
//! locks taken in opposite orders by two threads — but only *potentially*
//! concurrently: the classic ABBA hazard is a property of the lock-order
//! graph, not of any particular interleaving. This module provides
//! TSan-style lock-order analysis:
//!
//! * [`TrackedMutex`] / [`TrackedRwLock`] — thin wrappers over the
//!   `parking_lot` types. Each lock belongs to a named *class* (e.g.
//!   `"coord.state"`, `"replica.queue"`); every acquisition records its
//!   source location via `#[track_caller]`.
//! * A per-thread held-lock stack: when a thread acquires lock `B` while
//!   holding lock `A`, the class-level edge `A → B` (with both acquisition
//!   sites) is recorded into a [`LockRegistry`].
//! * [`LockRegistry::cycles`] runs Tarjan's SCC algorithm over the class
//!   graph and reports every strongly connected component of size ≥ 2 as a
//!   potential deadlock — even if the schedule never actually interleaved
//!   the two orders.
//!
//! Same-class nesting (two *distinct instances* of one class held at once)
//! is reported separately: the class-level graph cannot order instances
//! within a class, so it is a hazard warning rather than a proven cycle.
//!
//! The registry is process-global by default ([`LockRegistry::global`]);
//! tests and replay harnesses can create isolated registries with
//! [`LockRegistry::new`] and drive them directly through
//! [`LockRegistry::replay_acquire`] / [`LockRegistry::replay_release`]
//! without constructing real locks (used by the proptest schedules and the
//! `wiera-check` adversarial corpus).
//!
//! Cost model: pushing/popping the thread-local held stack is a few
//! nanoseconds per acquisition; the global registry mutex is only touched
//! when a *nested* acquisition sees a class pair this thread has not
//! recorded before (a per-thread cache makes repeat edges free).

use crate::hash::FnvBuildHasher;
use parking_lot as pl;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Acquisition mode, recorded per held-stack entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Shared (read) acquisition.
    Shared,
    /// Exclusive (write / mutex) acquisition.
    Exclusive,
}

/// Where an acquisition happened: a real `#[track_caller]` location or a
/// replay-provided name.
#[derive(Clone, Copy, Debug)]
enum Site {
    Loc(&'static Location<'static>),
    Named(&'static str),
}

impl Site {
    fn render(&self) -> String {
        match self {
            Site::Loc(l) => format!("{}:{}", l.file(), l.line()),
            Site::Named(n) => (*n).to_string(),
        }
    }

    /// Shared acquisitions are annotated so cycle reports show which side of
    /// an edge was only ever a read lock.
    fn render_mode(&self, mode: Mode) -> String {
        match mode {
            Mode::Shared => format!("{} (shared)", self.render()),
            Mode::Exclusive => self.render(),
        }
    }
}

struct HeldEntry {
    /// Unique id of the owning registry (never dereferenced).
    reg: u64,
    lock_id: u64,
    class: u32,
    mode: Mode,
    site: Site,
}

thread_local! {
    static HELD: RefCell<Vec<HeldEntry>> = const { RefCell::new(Vec::new()) };
    /// Per-thread cache of (registry, epoch, from_class, to_class) edges
    /// already pushed to the global graph, so steady-state nesting never
    /// touches the registry mutex. FNV-keyed: every nested acquisition
    /// looks it up, and SipHash cost more than the lookup.
    static SEEN: RefCell<HashSet<(u64, u64, u32, u32), FnvBuildHasher>> =
        RefCell::new(HashSet::default());
}

static NEXT_LOCK_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_lock_id() -> u64 {
    NEXT_LOCK_ID.fetch_add(1, Ordering::Relaxed)
}

/// One recorded class-level ordering edge `from → to`.
#[derive(Clone, Debug)]
pub struct EdgeSnapshot {
    pub from: String,
    pub to: String,
    /// Acquisition site of the held (`from`) lock, first time observed.
    pub held_site: String,
    /// Acquisition site of the acquired (`to`) lock, first time observed.
    pub acquire_site: String,
    /// Number of distinct first-observations (per thread) of this edge.
    pub count: u64,
}

/// A strongly connected component of the lock-order graph: a potential
/// deadlock, reported whether or not the opposing orders ever interleaved.
#[derive(Clone, Debug)]
pub struct CycleReport {
    /// Member classes, sorted by name.
    pub classes: Vec<String>,
    /// The recorded edges among the member classes.
    pub edges: Vec<EdgeSnapshot>,
}

/// Two distinct instances of one lock class held simultaneously by a thread.
#[derive(Clone, Debug)]
pub struct SameClassReport {
    pub class: String,
    pub held_site: String,
    pub acquire_site: String,
    pub count: u64,
}

/// A replayed release with no matching acquisition on the calling thread.
#[derive(Clone, Debug)]
pub struct ImbalanceReport {
    pub class: String,
    pub detail: String,
}

/// Full picture of everything a registry has observed.
#[derive(Clone, Debug, Default)]
pub struct LockOrderSnapshot {
    pub classes: Vec<String>,
    pub edges: Vec<EdgeSnapshot>,
    pub same_class: Vec<SameClassReport>,
    pub imbalances: Vec<ImbalanceReport>,
}

#[derive(Clone)]
struct EdgeInfo {
    held_site: String,
    acquire_site: String,
    count: u64,
}

#[derive(Default)]
struct RegistryState {
    class_names: Vec<String>,
    class_ids: HashMap<String, u32>,
    /// Ordering edges between distinct classes.
    edges: BTreeMap<(u32, u32), EdgeInfo>,
    /// Same-class (distinct-instance) nestings, keyed by class.
    same_class: BTreeMap<u32, EdgeInfo>,
    imbalances: Vec<ImbalanceReport>,
}

/// Process-wide (or scoped) sink for lock-order observations.
pub struct LockRegistry {
    state: pl::Mutex<RegistryState>,
    /// Bumped by [`reset`](Self::reset) to invalidate per-thread edge caches.
    epoch: AtomicU64,
    /// Process-unique id: cache keys and held-stack entries must not key on
    /// the registry's address, which the allocator can reuse after a drop.
    uid: u64,
}

impl Default for LockRegistry {
    fn default() -> Self {
        static NEXT_UID: AtomicU64 = AtomicU64::new(1);
        LockRegistry {
            state: pl::Mutex::new(RegistryState::default()),
            epoch: AtomicU64::new(0),
            uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for LockRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockRegistry").finish_non_exhaustive()
    }
}

impl LockRegistry {
    /// The process-wide registry all [`TrackedMutex::new`] /
    /// [`TrackedRwLock::new`] locks report into.
    pub fn global() -> &'static Arc<LockRegistry> {
        static GLOBAL: OnceLock<Arc<LockRegistry>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(LockRegistry::default()))
    }

    /// A fresh, isolated registry (tests / replay harnesses).
    pub fn new() -> Arc<LockRegistry> {
        Arc::new(LockRegistry::default())
    }

    /// Clear all recorded edges and findings. Intended for tests that share
    /// the global registry; not safe to interleave with concurrent lock
    /// traffic you intend to keep.
    pub fn reset(&self) {
        let mut st = self.state.lock();
        st.edges.clear();
        st.same_class.clear();
        st.imbalances.clear();
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    fn identity(&self) -> u64 {
        self.uid
    }

    fn intern(&self, class: &str) -> u32 {
        let mut st = self.state.lock();
        if let Some(&id) = st.class_ids.get(class) {
            return id;
        }
        let id = st.class_names.len() as u32;
        st.class_names.push(class.to_string());
        st.class_ids.insert(class.to_string(), id);
        id
    }

    /// Record the ordering consequences of acquiring (`class`, `lock_id`)
    /// in `mode` while holding whatever the current thread holds. Called
    /// *before* blocking on the underlying lock.
    fn note_acquire_edges(&self, class: u32, lock_id: u64, mode: Mode, site: Site) {
        let reg = self.identity();
        let epoch = self.epoch.load(Ordering::Relaxed);
        HELD.with(|h| {
            let held = h.borrow();
            for e in held.iter() {
                if e.reg != reg || e.lock_id == lock_id {
                    continue;
                }
                let cached = SEEN.with(|s| !s.borrow_mut().insert((reg, epoch, e.class, class)));
                if cached {
                    continue;
                }
                let mut st = self.state.lock();
                let fresh = || EdgeInfo {
                    held_site: e.site.render_mode(e.mode),
                    acquire_site: site.render_mode(mode),
                    count: 0,
                };
                let info = if e.class == class {
                    st.same_class.entry(class).or_insert_with(fresh)
                } else {
                    st.edges.entry((e.class, class)).or_insert_with(fresh)
                };
                info.count += 1;
            }
        });
    }

    fn push_held(&self, class: u32, lock_id: u64, mode: Mode, site: Site) {
        let reg = self.identity();
        HELD.with(|h| {
            h.borrow_mut().push(HeldEntry {
                reg,
                lock_id,
                class,
                mode,
                site,
            })
        });
    }

    /// Pop the topmost held entry for `lock_id`; returns false if absent.
    fn pop_held(&self, lock_id: u64) -> bool {
        let reg = self.identity();
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held
                .iter()
                .rposition(|e| e.reg == reg && e.lock_id == lock_id)
            {
                held.remove(pos);
                true
            } else {
                false
            }
        })
    }

    /// Replay API: record an acquisition of `instance` of `class` at `site`
    /// on the calling thread, without any real lock. Used to feed synthetic
    /// schedules (proptest, adversarial corpus) through the same detector.
    pub fn replay_acquire(&self, class: &'static str, instance: u64, site: &'static str) {
        let cid = self.intern(class);
        // High bit marks replayed ids so they never collide with real locks.
        let lock_id = (1 << 63) | ((cid as u64) << 32) | (instance & 0xffff_ffff);
        self.note_acquire_edges(cid, lock_id, Mode::Exclusive, Site::Named(site));
        self.push_held(cid, lock_id, Mode::Exclusive, Site::Named(site));
    }

    /// Replay API: release a previously replayed acquisition. A release with
    /// no matching acquisition on this thread is recorded as an imbalance.
    pub fn replay_release(&self, class: &'static str, instance: u64) {
        let cid = self.intern(class);
        let lock_id = (1 << 63) | ((cid as u64) << 32) | (instance & 0xffff_ffff);
        if !self.pop_held(lock_id) {
            let mut st = self.state.lock();
            st.imbalances.push(ImbalanceReport {
                class: class.to_string(),
                detail: format!("release of {class}#{instance} with no matching acquire"),
            });
        }
    }

    /// Everything observed so far, with names resolved.
    pub fn snapshot(&self) -> LockOrderSnapshot {
        let st = self.state.lock();
        let name = |id: u32| st.class_names[id as usize].clone();
        LockOrderSnapshot {
            classes: st.class_names.clone(),
            edges: st
                .edges
                .iter()
                .map(|(&(a, b), info)| EdgeSnapshot {
                    from: name(a),
                    to: name(b),
                    held_site: info.held_site.clone(),
                    acquire_site: info.acquire_site.clone(),
                    count: info.count,
                })
                .collect(),
            same_class: st
                .same_class
                .iter()
                .map(|(&c, info)| SameClassReport {
                    class: name(c),
                    held_site: info.held_site.clone(),
                    acquire_site: info.acquire_site.clone(),
                    count: info.count,
                })
                .collect(),
            imbalances: st.imbalances.clone(),
        }
    }

    /// Tarjan-SCC over the class-level ordering graph. Every strongly
    /// connected component with ≥ 2 classes is a potential deadlock: some
    /// pair of threads can each hold one lock while waiting for the other,
    /// even if the recorded schedules never interleaved that way.
    pub fn cycles(&self) -> Vec<CycleReport> {
        let st = self.state.lock();
        let n = st.class_names.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in st.edges.keys() {
            adj[a as usize].push(b as usize);
        }

        // Iterative Tarjan (explicit stack) so deep chains cannot overflow.
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut sccs: Vec<Vec<usize>> = Vec::new();

        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            // (node, next child position)
            let mut call: Vec<(usize, usize)> = vec![(root, 0)];
            index[root] = next_index;
            low[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;

            while let Some(&mut (v, ref mut child)) = call.last_mut() {
                if *child < adj[v].len() {
                    let w = adj[v][*child];
                    *child += 1;
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        if comp.len() >= 2 {
                            sccs.push(comp);
                        }
                    }
                }
            }
        }

        let name = |id: usize| st.class_names[id].clone();
        let mut reports: Vec<CycleReport> = sccs
            .into_iter()
            .map(|mut comp| {
                comp.sort();
                let members: HashSet<usize> = comp.iter().copied().collect();
                let mut classes: Vec<String> = comp.iter().map(|&c| name(c)).collect();
                classes.sort();
                let mut edges: Vec<EdgeSnapshot> = st
                    .edges
                    .iter()
                    .filter(|(&(a, b), _)| {
                        members.contains(&(a as usize)) && members.contains(&(b as usize))
                    })
                    .map(|(&(a, b), info)| EdgeSnapshot {
                        from: name(a as usize),
                        to: name(b as usize),
                        held_site: info.held_site.clone(),
                        acquire_site: info.acquire_site.clone(),
                        count: info.count,
                    })
                    .collect();
                edges.sort_by(|x, y| (&x.from, &x.to).cmp(&(&y.from, &y.to)));
                CycleReport { classes, edges }
            })
            .collect();
        reports.sort_by(|a, b| a.classes.cmp(&b.classes));
        reports
    }
}

/// Mutex wrapper that reports acquisitions to a [`LockRegistry`].
pub struct TrackedMutex<T: ?Sized> {
    registry: Arc<LockRegistry>,
    class: u32,
    id: u64,
    inner: pl::Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// New mutex of `class`, reporting to the global registry.
    pub fn new(class: &str, value: T) -> Self {
        Self::new_in(LockRegistry::global(), class, value)
    }

    /// New mutex of `class`, reporting to `registry`.
    pub fn new_in(registry: &Arc<LockRegistry>, class: &str, value: T) -> Self {
        TrackedMutex {
            registry: Arc::clone(registry),
            class: registry.intern(class),
            id: fresh_lock_id(),
            inner: pl::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> TrackedMutex<T> {
    #[track_caller]
    pub fn lock(&self) -> TrackedMutexGuard<'_, T> {
        let site = Site::Loc(Location::caller());
        self.registry
            .note_acquire_edges(self.class, self.id, Mode::Exclusive, site);
        let inner = self.inner.lock();
        self.registry
            .push_held(self.class, self.id, Mode::Exclusive, site);
        TrackedMutexGuard { inner, lock: self }
    }

    /// Non-blocking acquire. No ordering edge is recorded (a `try_lock`
    /// cannot complete a wait cycle), but a successful guard does join the
    /// held stack so later blocking acquisitions order against it.
    #[track_caller]
    pub fn try_lock(&self) -> Option<TrackedMutexGuard<'_, T>> {
        let site = Site::Loc(Location::caller());
        let inner = self.inner.try_lock()?;
        self.registry
            .push_held(self.class, self.id, Mode::Exclusive, site);
        Some(TrackedMutexGuard { inner, lock: self })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedMutex").finish_non_exhaustive()
    }
}

/// RAII guard for [`TrackedMutex::lock`].
pub struct TrackedMutexGuard<'a, T: ?Sized> {
    inner: pl::MutexGuard<'a, T>,
    lock: &'a TrackedMutex<T>,
}

impl<'a, T: ?Sized> TrackedMutexGuard<'a, T> {
    /// Access the underlying `parking_lot` guard, e.g. for
    /// `Condvar::wait(&mut guard.inner_mut())`. The held-stack entry stays
    /// in place across a wait; the thread is blocked for the duration, so
    /// no spurious edges can be recorded from it.
    pub fn inner_mut(&mut self) -> &mut pl::MutexGuard<'a, T> {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.registry.pop_held(self.lock.id);
    }
}

impl<T: ?Sized> Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Reader-writer lock wrapper that reports acquisitions to a
/// [`LockRegistry`]. Shared and exclusive acquisitions record the same
/// class-level ordering edges: a read-side cycle can still deadlock once a
/// writer queues between the readers, so the analysis stays conservative.
pub struct TrackedRwLock<T: ?Sized> {
    registry: Arc<LockRegistry>,
    class: u32,
    id: u64,
    inner: pl::RwLock<T>,
}

impl<T> TrackedRwLock<T> {
    pub fn new(class: &str, value: T) -> Self {
        Self::new_in(LockRegistry::global(), class, value)
    }

    pub fn new_in(registry: &Arc<LockRegistry>, class: &str, value: T) -> Self {
        TrackedRwLock {
            registry: Arc::clone(registry),
            class: registry.intern(class),
            id: fresh_lock_id(),
            inner: pl::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> TrackedRwLock<T> {
    #[track_caller]
    pub fn read(&self) -> TrackedReadGuard<'_, T> {
        let site = Site::Loc(Location::caller());
        self.registry
            .note_acquire_edges(self.class, self.id, Mode::Shared, site);
        let inner = self.inner.read();
        self.registry
            .push_held(self.class, self.id, Mode::Shared, site);
        TrackedReadGuard { inner, lock: self }
    }

    #[track_caller]
    pub fn write(&self) -> TrackedWriteGuard<'_, T> {
        let site = Site::Loc(Location::caller());
        self.registry
            .note_acquire_edges(self.class, self.id, Mode::Exclusive, site);
        let inner = self.inner.write();
        self.registry
            .push_held(self.class, self.id, Mode::Exclusive, site);
        TrackedWriteGuard { inner, lock: self }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for TrackedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrackedRwLock").finish_non_exhaustive()
    }
}

/// RAII guard for [`TrackedRwLock::read`].
pub struct TrackedReadGuard<'a, T: ?Sized> {
    inner: pl::RwLockReadGuard<'a, T>,
    lock: &'a TrackedRwLock<T>,
}

impl<T: ?Sized> Drop for TrackedReadGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.registry.pop_held(self.lock.id);
    }
}

impl<T: ?Sized> Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RAII guard for [`TrackedRwLock::write`].
pub struct TrackedWriteGuard<'a, T: ?Sized> {
    inner: pl::RwLockWriteGuard<'a, T>,
    lock: &'a TrackedRwLock<T>,
}

impl<T: ?Sized> Drop for TrackedWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.registry.pop_held(self.lock.id);
    }
}

impl<T: ?Sized> Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_nesting_records_edge_but_no_cycle() {
        let reg = LockRegistry::new();
        let a = TrackedMutex::new_in(&reg, "test.a", 0u32);
        let b = TrackedMutex::new_in(&reg, "test.b", 0u32);
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.edges.len(), 1);
        assert_eq!(snap.edges[0].from, "test.a");
        assert_eq!(snap.edges[0].to, "test.b");
        assert!(snap.edges[0].held_site.contains("lockreg.rs"));
        assert!(reg.cycles().is_empty());
    }

    #[test]
    fn abba_is_flagged_even_without_interleaving() {
        let reg = LockRegistry::new();
        let a = Arc::new(TrackedMutex::new_in(&reg, "test.a", ()));
        let b = Arc::new(TrackedMutex::new_in(&reg, "test.b", ()));
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        // Opposite order on a second thread, strictly after the first pair
        // was released — no real interleaving ever happens.
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let r2 = Arc::clone(&reg);
        std::thread::spawn(move || {
            let _gb = b2.lock();
            let _ga = a2.lock();
            drop(r2);
        })
        .join()
        .expect("abba thread");
        let cycles = reg.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].classes, vec!["test.a", "test.b"]);
        assert_eq!(cycles[0].edges.len(), 2);
    }

    #[test]
    fn same_class_nesting_reported_separately() {
        let reg = LockRegistry::new();
        let a = TrackedMutex::new_in(&reg, "test.peer", ());
        let b = TrackedMutex::new_in(&reg, "test.peer", ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let snap = reg.snapshot();
        assert!(snap.edges.is_empty());
        assert_eq!(snap.same_class.len(), 1);
        assert_eq!(snap.same_class[0].class, "test.peer");
        assert!(reg.cycles().is_empty());
    }

    #[test]
    fn rwlock_read_then_mutex_orders() {
        let reg = LockRegistry::new();
        let r = TrackedRwLock::new_in(&reg, "test.rw", 1u8);
        let m = TrackedMutex::new_in(&reg, "test.m", 2u8);
        {
            let _gr = r.read();
            let _gm = m.lock();
        }
        {
            let _gm = m.lock();
            let _gr = r.write();
        }
        let cycles = reg.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].classes, vec!["test.m", "test.rw"]);
    }

    #[test]
    fn replay_api_matches_real_locks_and_detects_imbalance() {
        let reg = LockRegistry::new();
        reg.replay_acquire("r.a", 1, "sched:1");
        reg.replay_acquire("r.b", 1, "sched:2");
        reg.replay_release("r.b", 1);
        reg.replay_release("r.a", 1);
        reg.replay_acquire("r.b", 1, "sched:3");
        reg.replay_acquire("r.a", 1, "sched:4");
        reg.replay_release("r.a", 1);
        reg.replay_release("r.b", 1);
        reg.replay_release("r.b", 7); // never acquired
        let cycles = reg.cycles();
        assert_eq!(cycles.len(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.imbalances.len(), 1);
        assert!(snap.imbalances[0].detail.contains("no matching acquire"));
    }

    #[test]
    fn reset_clears_edges_despite_thread_cache() {
        let reg = LockRegistry::new();
        let a = TrackedMutex::new_in(&reg, "test.a", ());
        let b = TrackedMutex::new_in(&reg, "test.b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        reg.reset();
        assert!(reg.snapshot().edges.is_empty());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        // The epoch bump makes the same thread re-record after reset.
        assert_eq!(reg.snapshot().edges.len(), 1);
    }

    #[test]
    fn try_lock_joins_held_stack_without_edge() {
        let reg = LockRegistry::new();
        let a = TrackedMutex::new_in(&reg, "test.a", ());
        let b = TrackedMutex::new_in(&reg, "test.b", ());
        {
            let _ga = a.lock();
            let _gb = b.try_lock().expect("uncontended");
        }
        // a -> b edge comes only from the blocking lock() path; try_lock(b)
        // itself records nothing, so only lock-after-try produces edges.
        let snap = reg.snapshot();
        assert!(snap.edges.is_empty());
        {
            let _gb = b.try_lock().expect("uncontended");
            let _ga = a.lock();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.edges.len(), 1);
        assert_eq!(snap.edges[0].from, "test.b");
        assert_eq!(snap.edges[0].to, "test.a");
    }
}
