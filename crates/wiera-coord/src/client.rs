//! Client handle to the coordination service.
//!
//! Mirrors how a Tiera instance uses Curator: open a session, keep it alive
//! with a heartbeat thread, and take blocking global locks around
//! MultiPrimaries updates. Every call reports its modeled cost so the caller
//! can fold lock acquisition into the operation latency it exposes to the
//! application (the dominant term of the paper's ≈400 ms strong-consistency
//! put).

use crate::msg::CoordMsg;
use crate::service::CoordConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wiera_net::{Mesh, NetError, NodeId};
use wiera_sim::SimDuration;

/// Client-side coordination errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordError {
    Net(NetError),
    /// The service no longer holds this client's session (it expired):
    /// its locks and lease are gone, and only a fresh session
    /// ([`CoordClient::reconnect`]) is served again.
    SessionExpired(u64),
    /// The service refused the request (double release, …).
    Rejected(String),
    /// The service answered with something protocol-incoherent.
    Protocol(String),
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::Net(e) => write!(f, "network: {e}"),
            CoordError::SessionExpired(id) => write!(f, "session {id} expired"),
            CoordError::Rejected(w) => write!(f, "rejected: {w}"),
            CoordError::Protocol(w) => write!(f, "protocol: {w}"),
        }
    }
}

impl std::error::Error for CoordError {}

impl From<NetError> for CoordError {
    fn from(e: NetError) -> Self {
        CoordError::Net(e)
    }
}

/// RPC timeout for ordinary coordination calls.
const CALL_TIMEOUT: SimDuration = SimDuration::from_secs(30);
/// Lock acquisition may legitimately queue for a long time.
const LOCK_TIMEOUT: SimDuration = SimDuration::from_secs(300);

/// A connected session. Dropping the client closes the session (best-effort)
/// and stops the heartbeat thread.
pub struct CoordClient {
    mesh: Arc<Mesh<CoordMsg>>,
    me: NodeId,
    service: NodeId,
    session: u64,
    stop_hb: Arc<AtomicBool>,
    hb_interval: SimDuration,
}

impl CoordClient {
    /// Open a session and start heartbeating at a third of the service's
    /// session timeout.
    pub fn connect(
        mesh: Arc<Mesh<CoordMsg>>,
        me: NodeId,
        service: NodeId,
        config: &CoordConfig,
    ) -> Result<Arc<Self>, CoordError> {
        Self::connect_at(mesh, me, service, config.session_timeout / 3)
    }

    fn connect_at(
        mesh: Arc<Mesh<CoordMsg>>,
        me: NodeId,
        service: NodeId,
        hb_interval: SimDuration,
    ) -> Result<Arc<Self>, CoordError> {
        let reply = mesh.rpc(&me, &service, CoordMsg::OpenSession, 64, CALL_TIMEOUT)?;
        let session = match reply.msg {
            CoordMsg::SessionOpened { session } => session,
            other => return Err(CoordError::Protocol(format!("{other:?}"))),
        };
        let stop_hb = Arc::new(AtomicBool::new(false));
        {
            let mesh = mesh.clone();
            let me = me.clone();
            let service = service.clone();
            let stop = stop_hb.clone();
            let interval = hb_interval;
            std::thread::Builder::new()
                .name(format!("coord-hb-{session}"))
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        mesh.clock.sleep(interval);
                        if stop.load(Ordering::Acquire) {
                            return;
                        }
                        // A live session gets `HeartbeatAck`; an expired one
                        // gets a definitive `SessionExpired`, after which beating on
                        // is pointless — the owner comes back via
                        // `reconnect`. RPC errors are transient partitions
                        // and worth retrying.
                        match mesh.rpc(
                            &me,
                            &service,
                            CoordMsg::Heartbeat { session },
                            64,
                            CALL_TIMEOUT,
                        ) {
                            Ok(r) if matches!(r.msg, CoordMsg::HeartbeatAck) => {}
                            Ok(_) => return,
                            Err(_) => {}
                        }
                    }
                })
                .map_err(|e| CoordError::Protocol(format!("cannot spawn heartbeat thread: {e}")))?;
        }
        Ok(Arc::new(CoordClient {
            mesh,
            me,
            service,
            session,
            stop_hb,
            hb_interval,
        }))
    }

    /// Open a **fresh** session against the same service with the same
    /// identity and heartbeat cadence. A restarting node whose old session
    /// expired (crash, paused heartbeats) uses this to come back — the old
    /// session's ephemeral znodes stay gone; the new session starts clean.
    pub fn reconnect(&self) -> Result<Arc<Self>, CoordError> {
        Self::connect_at(
            self.mesh.clone(),
            self.me.clone(),
            self.service.clone(),
            self.hb_interval,
        )
    }

    /// Pause the heartbeat thread — test hook to simulate a hung client and
    /// exercise session expiry.
    pub fn pause_heartbeats(&self) {
        self.stop_hb.store(true, Ordering::Release);
    }

    fn call(
        &self,
        msg: CoordMsg,
        timeout: SimDuration,
    ) -> Result<(CoordMsg, SimDuration), CoordError> {
        let bytes = msg.wire_bytes();
        let reply = self
            .mesh
            .rpc(&self.me, &self.service, msg, bytes, timeout)?;
        let cost = reply.total();
        match reply.msg {
            CoordMsg::SessionExpired { session } => Err(CoordError::SessionExpired(session)),
            CoordMsg::Error { what } => Err(CoordError::Rejected(what)),
            m => Ok((m, cost)),
        }
    }

    /// Take the global lock at `path`, blocking until granted. Returns the
    /// guard and the modeled acquisition cost (RTT + queue wait).
    pub fn lock(self: &Arc<Self>, path: &str) -> Result<(LockGuard, SimDuration), CoordError> {
        let (msg, cost) = self.call(
            CoordMsg::Acquire {
                session: self.session,
                path: path.to_string(),
            },
            LOCK_TIMEOUT,
        )?;
        match msg {
            CoordMsg::Granted { path } => Ok((
                LockGuard {
                    client: self.clone(),
                    path: Some(path),
                },
                cost,
            )),
            other => Err(CoordError::Protocol(format!("{other:?}"))),
        }
    }

    /// Explicit synchronous release; returns the modeled cost. (The guard's
    /// `Drop` releases asynchronously instead, off the critical path — the
    /// paper releases the lock only after all replicas ack, but the *ack*
    /// wait is the put's job, not the release's.)
    pub fn unlock_sync(&self, path: &str) -> Result<SimDuration, CoordError> {
        let (msg, cost) = self.call(
            CoordMsg::Release {
                session: self.session,
                path: path.to_string(),
            },
            CALL_TIMEOUT,
        )?;
        match msg {
            CoordMsg::Released => Ok(cost),
            other => Err(CoordError::Protocol(format!("{other:?}"))),
        }
    }

    fn release_async(&self, path: String) {
        let _ = self.mesh.send(
            &self.me,
            &self.service,
            CoordMsg::Release {
                session: self.session,
                path,
            },
            64,
        );
    }

    // ---- znodes -----------------------------------------------------------

    pub fn create_znode(&self, path: &str, ephemeral: bool) -> Result<SimDuration, CoordError> {
        let (msg, cost) = self.call(
            CoordMsg::Create {
                session: self.session,
                path: path.into(),
                ephemeral,
            },
            CALL_TIMEOUT,
        )?;
        match msg {
            CoordMsg::Created => Ok(cost),
            other => Err(CoordError::Protocol(format!("{other:?}"))),
        }
    }

    pub fn exists(&self, path: &str) -> Result<bool, CoordError> {
        let (msg, _) = self.call(CoordMsg::Exists { path: path.into() }, CALL_TIMEOUT)?;
        match msg {
            CoordMsg::ExistsReply { exists } => Ok(exists),
            other => Err(CoordError::Protocol(format!("{other:?}"))),
        }
    }

    pub fn delete_znode(&self, path: &str) -> Result<(), CoordError> {
        let (msg, _) = self.call(
            CoordMsg::Delete {
                session: self.session,
                path: path.into(),
            },
            CALL_TIMEOUT,
        )?;
        match msg {
            CoordMsg::Deleted => Ok(()),
            other => Err(CoordError::Protocol(format!("{other:?}"))),
        }
    }

    pub fn list_children(&self, prefix: &str) -> Result<Vec<String>, CoordError> {
        let (msg, _) = self.call(
            CoordMsg::ListChildren {
                prefix: prefix.into(),
            },
            CALL_TIMEOUT,
        )?;
        match msg {
            CoordMsg::Children { paths } => Ok(paths),
            other => Err(CoordError::Protocol(format!("{other:?}"))),
        }
    }

    /// Graceful synchronous shutdown: stop the heartbeat thread, close the
    /// session, and wait for the service's [`CoordMsg::SessionClosed`]
    /// confirmation (so the caller *knows* the ephemerals are gone).
    /// `Drop` instead fires the close off asynchronously, off the critical
    /// path.
    pub fn close(&self) -> Result<SimDuration, CoordError> {
        self.stop_hb.store(true, Ordering::Release);
        let (msg, cost) = self.call(
            CoordMsg::CloseSession {
                session: self.session,
            },
            CALL_TIMEOUT,
        )?;
        match msg {
            CoordMsg::SessionClosed => Ok(cost),
            other => Err(CoordError::Protocol(format!("{other:?}"))),
        }
    }
}

impl Drop for CoordClient {
    fn drop(&mut self) {
        self.stop_hb.store(true, Ordering::Release);
        let _ = self.mesh.send(
            &self.me,
            &self.service,
            CoordMsg::CloseSession {
                session: self.session,
            },
            64,
        );
    }
}

/// RAII guard for a held global lock. Dropping releases asynchronously.
pub struct LockGuard {
    client: Arc<CoordClient>,
    path: Option<String>,
}

impl LockGuard {
    /// Path this guard holds, or `None` once the lock has been released.
    pub fn path(&self) -> Option<&str> {
        self.path.as_deref()
    }

    /// Release synchronously, returning the modeled cost.
    pub fn release_sync(mut self) -> Result<SimDuration, CoordError> {
        match self.path.take() {
            Some(path) => self.client.unlock_sync(&path),
            None => Err(CoordError::Rejected("guard already released".into())),
        }
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        if let Some(path) = self.path.take() {
            self.client.release_async(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::CoordService;
    use parking_lot::Mutex;
    use wiera_net::{Fabric, Region};
    use wiera_sim::ScaledClock;

    /// Timing-sensitive tests (wall-clock staggering, expiry sweeps) are
    /// serialized so parallel test threads on small hosts don't skew them.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    struct Setup {
        mesh: Arc<Mesh<CoordMsg>>,
        service: Arc<CoordService>,
    }

    fn setup(scale: f64) -> Setup {
        let fabric = Arc::new(Fabric::multicloud(3).without_jitter());
        let mesh = Mesh::new(fabric, ScaledClock::shared(scale));
        // A generous session timeout: at high time compression the default
        // 10 s would be milliseconds of wall time, and a briefly descheduled
        // heartbeat thread would spuriously expire healthy sessions.
        let config = CoordConfig {
            session_timeout: wiera_sim::SimDuration::from_secs(600),
            sweep_interval: wiera_sim::SimDuration::from_secs(5),
        };
        let service = CoordService::spawn(mesh.clone(), NodeId::new(Region::UsEast, "zk"), config)
            .expect("coord service spawns");
        Setup { mesh, service }
    }

    fn client(s: &Setup, region: Region, name: &str) -> Arc<CoordClient> {
        CoordClient::connect(
            s.mesh.clone(),
            NodeId::new(region, name),
            s.service.node.clone(),
            &CoordConfig {
                session_timeout: wiera_sim::SimDuration::from_secs(600),
                sweep_interval: wiera_sim::SimDuration::from_secs(5),
            },
        )
        .unwrap()
    }

    #[test]
    fn lock_costs_a_round_trip_to_us_east() {
        let _serial = serial();
        let s = setup(2000.0);
        let c = client(&s, Region::UsWest, "c1");
        let (guard, cost) = c.lock("/keys/k1").unwrap();
        // US-West → US-East RTT is 70 ms; grant is immediate.
        let ms = cost.as_millis_f64();
        assert!((ms - 70.0).abs() < 3.0, "lock cost {ms}ms");
        assert!(s.service.lock_held("/keys/k1"));
        let rel = guard.release_sync().unwrap();
        assert!(rel.as_millis_f64() > 60.0);
        assert!(!s.service.lock_held("/keys/k1"));
    }

    #[test]
    fn contended_lock_is_mutually_exclusive_and_fifo() {
        let _serial = serial();
        let s = setup(5000.0);
        let c1 = client(&s, Region::UsEast, "c1");
        let c2 = client(&s, Region::UsWest, "c2");
        let c3 = client(&s, Region::EuWest, "c3");

        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let (g1, _) = c1.lock("/k").unwrap();
        order.lock().push("c1-acquired");

        // Enqueue c2, then c3, waiting on the service's queue depth so the
        // FIFO order is deterministic regardless of scheduler timing.
        let mut handles = Vec::new();
        for (i, (c, tag)) in [(c2.clone(), "c2"), (c3.clone(), "c3")]
            .into_iter()
            .enumerate()
        {
            let order = order.clone();
            handles.push(std::thread::spawn(move || {
                let (g, cost) = c.lock("/k").unwrap();
                order.lock().push(match tag {
                    "c2" => "c2-acquired",
                    _ => "c3-acquired",
                });
                // Queued acquisition must include wait time beyond one RTT.
                assert!(cost.as_millis_f64() > 30.0);
                drop(g);
            }));
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while s.service.lock_waiters("/k") < i + 1 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "waiter {tag} never queued"
                );
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        order.lock().push("c1-releasing");
        drop(g1);
        for h in handles {
            h.join().unwrap();
        }
        let o = order.lock().clone();
        assert_eq!(o[0], "c1-acquired");
        assert_eq!(o[1], "c1-releasing");
        assert_eq!(o[2], "c2-acquired", "FIFO order, got {o:?}");
        assert_eq!(o[3], "c3-acquired");
    }

    #[test]
    fn double_release_is_rejected() {
        let s = setup(2000.0);
        let c = client(&s, Region::UsEast, "c1");
        let (guard, _) = c.lock("/k").unwrap();
        guard.release_sync().unwrap();
        match c.unlock_sync("/k") {
            Err(CoordError::Rejected(_)) => {}
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn session_expiry_releases_held_locks() {
        let _serial = serial();
        let fabric = Arc::new(Fabric::multicloud(3).without_jitter());
        let mesh = Mesh::new(fabric, ScaledClock::shared(1000.0));
        let cfg = CoordConfig {
            session_timeout: SimDuration::from_secs(30),
            sweep_interval: SimDuration::from_secs(5),
        };
        let service =
            CoordService::spawn(mesh.clone(), NodeId::new(Region::UsEast, "zk"), cfg.clone())
                .expect("coord service spawns");
        let c1 = CoordClient::connect(
            mesh.clone(),
            NodeId::new(Region::UsEast, "c1"),
            service.node.clone(),
            &cfg,
        )
        .unwrap();
        let c2 = CoordClient::connect(
            mesh.clone(),
            NodeId::new(Region::UsWest, "c2"),
            service.node.clone(),
            &cfg,
        )
        .unwrap();
        let (g, _) = c1.lock("/k").unwrap();
        c1.pause_heartbeats(); // simulate a hung holder
        std::mem::forget(g); // never released explicitly
                             // c2 must eventually acquire once c1's session expires.
        let (g2, cost) = c2.lock("/k").unwrap();
        assert!(
            cost > SimDuration::from_millis(70),
            "had to wait for expiry: {cost}"
        );
        drop(g2);
        assert_eq!(service.session_count(), 1, "expired session removed");
    }

    #[test]
    fn ephemeral_znodes_vanish_with_session() {
        let _serial = serial();
        let s = setup(2000.0);
        let c1 = client(&s, Region::UsEast, "c1");
        let c2 = client(&s, Region::UsWest, "c2");
        c1.create_znode("/servers/a", true).unwrap();
        c2.create_znode("/servers/b", true).unwrap();
        c1.create_znode("/config/x", false).unwrap();
        assert_eq!(
            c2.list_children("/servers/").unwrap(),
            vec!["/servers/a".to_string(), "/servers/b".to_string()]
        );
        drop(c1); // closes session → /servers/a removed, /config/x persists
        std::thread::sleep(std::time::Duration::from_millis(100));
        assert_eq!(
            c2.list_children("/servers/").unwrap(),
            vec!["/servers/b".to_string()]
        );
        assert!(c2.exists("/config/x").unwrap());
        c2.delete_znode("/config/x").unwrap();
        assert!(!c2.exists("/config/x").unwrap());
    }

    #[test]
    fn locks_on_different_paths_do_not_contend() {
        let s = setup(2000.0);
        let c1 = client(&s, Region::UsEast, "c1");
        let c2 = client(&s, Region::UsWest, "c2");
        let (g1, _) = c1.lock("/a").unwrap();
        let (g2, cost2) = c2.lock("/b").unwrap();
        assert!(cost2.as_millis_f64() < 100.0, "no queueing: {cost2}");
        drop(g1);
        drop(g2);
    }
}
