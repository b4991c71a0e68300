//! The coordination service node.
//!
//! Single-threaded message handler (like ZooKeeper's serialized request
//! pipeline) plus a session-expiry sweeper thread. Lock grants complete the
//! waiter's withheld RPC reply; queue-wait time is reported as the RPC's
//! remote processing time so callers account it into their put latency.

use crate::msg::CoordMsg;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use wiera_net::{Delivery, Mesh, NodeId, ReplySlot};
use wiera_sim::lockreg::TrackedMutex;
use wiera_sim::{MetricsRegistry, SimDuration, SimInstant, Tracer};

/// Tunables for the coordination service.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// A session with no heartbeat for this long is expired and its locks
    /// and ephemeral znodes are released.
    pub session_timeout: SimDuration,
    /// How often the sweeper checks for expired sessions.
    pub sweep_interval: SimDuration,
}

impl Default for CoordConfig {
    fn default() -> Self {
        CoordConfig {
            session_timeout: SimDuration::from_secs(10),
            sweep_interval: SimDuration::from_secs(2),
        }
    }
}

struct Waiter {
    session: u64,
    slot: ReplySlot<CoordMsg>,
    enqueued_at: SimInstant,
    path: String,
}

struct LockState {
    holder: Option<u64>,
    queue: VecDeque<Waiter>,
}

#[derive(Default)]
struct State {
    sessions: HashMap<u64, SimInstant>, // last heartbeat
    locks: HashMap<String, LockState>,
    znodes: HashMap<String, Option<u64>>, // path -> owning session (ephemeral) or None
    held_by: HashMap<u64, HashSet<String>>, // session -> lock paths held
}

/// The running service. Create with [`CoordService::spawn`]; it owns two
/// background threads (handler + sweeper) until [`CoordService::stop`].
pub struct CoordService {
    pub node: NodeId,
    state: Arc<TrackedMutex<State>>,
    stop: Arc<AtomicBool>,
}

impl CoordService {
    /// Start the service threads. Fails (instead of panicking) when the OS
    /// refuses to spawn them, so embedders can surface the error over RPC.
    pub fn spawn(
        mesh: Arc<Mesh<CoordMsg>>,
        node: NodeId,
        config: CoordConfig,
    ) -> Result<Arc<Self>, String> {
        let state = Arc::new(TrackedMutex::new("coord.state", State::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let next_session = Arc::new(AtomicU64::new(1));

        let inbox = mesh.register(node.clone());
        {
            let state = state.clone();
            let stop = stop.clone();
            let mesh = mesh.clone();
            std::thread::Builder::new()
                .name("coord-handler".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        match inbox.recv_timeout(std::time::Duration::from_millis(50)) {
                            Ok(d) => {
                                // A panic while serving one request must not
                                // kill the handler thread (the service would
                                // silently stop granting locks). The State
                                // mutex is non-poisoning, so recovery here is
                                // complete: the failed request's reply slot
                                // drops (callers see an RPC timeout) and the
                                // next request is served normally.
                                let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                    Self::handle(&mesh, &state, &next_session, d)
                                }));
                                if r.is_err() {
                                    MetricsRegistry::global().inc("coord_handler_recoveries", &[]);
                                }
                            }
                            Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                        }
                    }
                })
                .map_err(|e| format!("cannot spawn coord handler thread: {e}"))?;
        }
        {
            let state = state.clone();
            let stop = stop.clone();
            let clock = mesh.clock.clone();
            let timeout = config.session_timeout;
            let interval = config.sweep_interval;
            std::thread::Builder::new()
                .name("coord-sweeper".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        clock.sleep(interval);
                        let now = clock.now();
                        // Same recovery rationale as the handler thread: a
                        // sweeper that dies stops expiring sessions, which
                        // leaks every lock whose holder hangs.
                        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            Self::expire_sessions(&state, now, timeout);
                        }));
                        if r.is_err() {
                            MetricsRegistry::global().inc("coord_sweeper_recoveries", &[]);
                        }
                    }
                })
                .map_err(|e| format!("cannot spawn coord sweeper thread: {e}"))?;
        }

        Ok(Arc::new(CoordService { node, state, stop }))
    }

    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Number of live sessions (for tests/observability).
    ///
    /// The `State` mutex is non-poisoning ([`TrackedMutex`] over the
    /// parking_lot shim) and the handler/sweeper threads recover from
    /// per-request panics, so this and the other getters can no longer
    /// propagate a poisoned-lock panic to observers.
    pub fn session_count(&self) -> usize {
        self.state.lock().sessions.len()
    }

    /// Number of sessions queued behind the current holder of `path`.
    pub fn lock_waiters(&self, path: &str) -> usize {
        self.state
            .lock()
            .locks
            .get(path)
            .map(|l| l.queue.len())
            .unwrap_or(0)
    }

    /// Is the lock at `path` currently held?
    pub fn lock_held(&self, path: &str) -> bool {
        self.state
            .lock()
            .locks
            .get(path)
            .map(|l| l.holder.is_some())
            .unwrap_or(false)
    }

    fn handle(
        mesh: &Arc<Mesh<CoordMsg>>,
        state: &Arc<TrackedMutex<State>>,
        next_session: &Arc<AtomicU64>,
        d: Delivery<CoordMsg>,
    ) {
        let now = mesh.clock.now();
        // Tiny modeled service time per request.
        let svc = SimDuration::from_micros(200);
        let reply = |slot: Option<ReplySlot<CoordMsg>>, msg: CoordMsg| {
            if let Some(s) = slot {
                let bytes = msg.wire_bytes();
                s.reply(msg, svc, bytes);
            }
        };

        match d.msg {
            CoordMsg::OpenSession => {
                let id = next_session.fetch_add(1, Ordering::Relaxed);
                state.lock().sessions.insert(id, now);
                reply(d.reply, CoordMsg::SessionOpened { session: id });
            }
            CoordMsg::Heartbeat { session } => {
                let mut s = state.lock();
                if let Some(hb) = s.sessions.get_mut(&session) {
                    *hb = now;
                    drop(s);
                    reply(d.reply, CoordMsg::HeartbeatAck);
                } else {
                    drop(s);
                    reply(d.reply, CoordMsg::SessionExpired { session });
                }
            }
            CoordMsg::CloseSession { session } => {
                Self::teardown_session(state, session, now);
                reply(d.reply, CoordMsg::SessionClosed);
            }
            CoordMsg::Acquire { session, path } => {
                let Some(slot) = d.reply else { return };
                let mut s = state.lock();
                if !s.sessions.contains_key(&session) {
                    drop(s);
                    reply(Some(slot), CoordMsg::SessionExpired { session });
                    return;
                }
                let lock = s.locks.entry(path.clone()).or_insert_with(|| LockState {
                    holder: None,
                    queue: VecDeque::new(),
                });
                match lock.holder {
                    None => {
                        lock.holder = Some(session);
                        s.held_by.entry(session).or_default().insert(path.clone());
                        drop(s);
                        // Immediate grant: only the service time is charged.
                        let metrics = MetricsRegistry::global();
                        metrics.inc("coord_lock_grants", &[("path", "immediate")]);
                        metrics.observe("coord_lock_wait", &[], SimDuration::ZERO);
                        slot.reply(CoordMsg::Granted { path }, svc, 64);
                    }
                    Some(_) => {
                        lock.queue.push_back(Waiter {
                            session,
                            slot,
                            enqueued_at: now,
                            path,
                        });
                        MetricsRegistry::global()
                            .gauge("coord_lock_queue_depth", &[])
                            .inc();
                    }
                }
            }
            CoordMsg::Release { session, path } => {
                let granted = {
                    let mut s = state.lock();
                    Self::do_release(&mut s, session, &path, now)
                };
                match granted {
                    Ok(()) => reply(d.reply, CoordMsg::Released),
                    Err(e) => reply(d.reply, CoordMsg::Error { what: e }),
                }
            }
            CoordMsg::Create {
                session,
                path,
                ephemeral,
            } => {
                let mut s = state.lock();
                if ephemeral && !s.sessions.contains_key(&session) {
                    drop(s);
                    reply(d.reply, CoordMsg::SessionExpired { session });
                    return;
                }
                s.znodes
                    .insert(path, if ephemeral { Some(session) } else { None });
                drop(s);
                reply(d.reply, CoordMsg::Created);
            }
            CoordMsg::Exists { path } => {
                let exists = state.lock().znodes.contains_key(&path);
                reply(d.reply, CoordMsg::ExistsReply { exists });
            }
            CoordMsg::Delete { session: _, path } => {
                state.lock().znodes.remove(&path);
                reply(d.reply, CoordMsg::Deleted);
            }
            CoordMsg::ListChildren { prefix } => {
                let mut paths: Vec<String> = state
                    .lock()
                    .znodes
                    .keys()
                    .filter(|p| p.starts_with(&prefix))
                    .cloned()
                    .collect();
                paths.sort();
                reply(d.reply, CoordMsg::Children { paths });
            }
            // Reply-only variants arriving as requests are protocol errors.
            other => {
                reply(
                    d.reply,
                    CoordMsg::Error {
                        what: format!("unexpected request {other:?}"),
                    },
                );
            }
        }
    }

    /// Release a lock and grant it to the next FIFO waiter (if any). The
    /// waiter's queue time is reported as its RPC processing time.
    fn do_release(s: &mut State, session: u64, path: &str, now: SimInstant) -> Result<(), String> {
        let lock = s
            .locks
            .get_mut(path)
            .ok_or_else(|| format!("no lock at {path}"))?;
        if lock.holder != Some(session) {
            return Err(format!("session {session} does not hold {path}"));
        }
        if let Some(held) = s.held_by.get_mut(&session) {
            held.remove(path);
        }
        let metrics = MetricsRegistry::global();
        loop {
            match lock.queue.pop_front() {
                Some(w) if s.sessions.contains_key(&w.session) => {
                    metrics.gauge("coord_lock_queue_depth", &[]).dec();
                    lock.holder = Some(w.session);
                    s.held_by
                        .entry(w.session)
                        .or_default()
                        .insert(w.path.clone());
                    let waited = now.elapsed_since(w.enqueued_at) + SimDuration::from_micros(200);
                    metrics.inc("coord_lock_grants", &[("path", "queued")]);
                    metrics.observe("coord_lock_wait", &[], waited);
                    w.slot.reply(CoordMsg::Granted { path: w.path }, waited, 64);
                    return Ok(());
                }
                Some(_) => {
                    // Waiter's session expired meanwhile; skip it.
                    metrics.gauge("coord_lock_queue_depth", &[]).dec();
                    continue;
                }
                None => {
                    lock.holder = None;
                    return Ok(());
                }
            }
        }
    }

    fn teardown_session(state: &Arc<TrackedMutex<State>>, session: u64, now: SimInstant) {
        let mut s = state.lock();
        s.sessions.remove(&session);
        // Release all locks the session held.
        let held: Vec<String> = s
            .held_by
            .remove(&session)
            .map(|h| h.into_iter().collect())
            .unwrap_or_default();
        for path in held {
            let _ = Self::do_release(&mut s, session, &path, now);
            // do_release removed from held_by already-removed map; holder
            // ownership was keyed by the lock itself so this is safe.
        }
        // Drop queued waiters belonging to the session (their RPC fails with
        // NoReply, which clients surface as a lost lock attempt).
        let mut dropped_waiters = 0i64;
        for lock in s.locks.values_mut() {
            let before = lock.queue.len();
            lock.queue.retain(|w| w.session != session);
            dropped_waiters += (before - lock.queue.len()) as i64;
        }
        if dropped_waiters > 0 {
            MetricsRegistry::global()
                .gauge("coord_lock_queue_depth", &[])
                .add(-dropped_waiters);
        }
        // Remove ephemeral znodes.
        s.znodes.retain(|_, owner| *owner != Some(session));
    }

    fn expire_sessions(state: &Arc<TrackedMutex<State>>, now: SimInstant, timeout: SimDuration) {
        let expired: Vec<u64> = {
            let s = state.lock();
            s.sessions
                .iter()
                .filter(|(_, &hb)| now.elapsed_since(hb) > timeout)
                .map(|(&id, _)| id)
                .collect()
        };
        for id in expired {
            MetricsRegistry::global().inc("coord_session_expiries", &[]);
            Tracer::global().point(
                now,
                "coord",
                "session_expired",
                Some(format!("session {id}")),
            );
            Self::teardown_session(state, id, now);
        }
    }
}
