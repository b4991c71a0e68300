//! Typed message transport between named nodes.
//!
//! A [`Mesh<M>`] connects nodes (Tiera instances, the Wiera controller, the
//! coordination service, clients) with two primitives:
//!
//! * [`Mesh::rpc`] — blocking request/response, used for every synchronous
//!   protocol step (forward-to-primary, synchronous `copy`, lock acquisition).
//!   The caller's thread pays the modeled round-trip (compressed through the
//!   shared clock) and gets the modeled cost back for latency accounting.
//!   [`Mesh::rpc_gather`] runs several at once from one thread: every
//!   request is posted before any reply is awaited, and the thread pays the
//!   slowest peer's network time once. Between posting and awaiting it runs
//!   the thread's `wiera_sim::block` hook.
//! * [`Mesh::send`] — one-way delivery after the modeled one-way latency,
//!   used for asynchronous replication (the `queue` response) and heartbeats.
//!   A background dispatcher thread releases messages when their modeled
//!   arrival time is reached, so eventually-consistent replicas genuinely lag
//!   — which is what the Fig. 8 staleness measurements observe.
//!
//! Each service builds its own `Mesh` over a shared [`Fabric`], mirroring how
//! the paper's components each run their own Thrift server over one network.

use crate::error::NetError;
use crate::fabric::Fabric;
use crate::region::Region;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex, RwLock};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use wiera_sim::registry::{CounterHandle, OpSeries};
use wiera_sim::{MetricsRegistry, SharedClock, SimDuration, SimInstant, Tracer};

/// Identity of a node on the mesh: the site it runs in plus a name unique
/// within the deployment (e.g. `"tiera@US-East"`, `"wiera-controller"`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    pub region: Region,
    pub name: Arc<str>,
}

impl NodeId {
    pub fn new(region: Region, name: impl Into<Arc<str>>) -> Self {
        NodeId {
            region,
            name: name.into(),
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.name, self.region)
    }
}

/// What a registered node receives from its mesh inbox.
pub struct Delivery<M> {
    pub from: NodeId,
    pub msg: M,
    /// Modeled one-way network latency this message experienced.
    pub net_delay: SimDuration,
    /// Present when the sender is blocked in [`Mesh::rpc`]; the handler must
    /// call [`ReplySlot::reply`] (dropping it fails the RPC with `NoReply`).
    pub reply: Option<ReplySlot<M>>,
}

/// One-shot reply channel handed to RPC handlers.
pub struct ReplySlot<M> {
    tx: Sender<(M, SimDuration, u64)>,
}

impl<M> ReplySlot<M> {
    /// Answer the RPC. `processing` is the modeled time the handler spent
    /// (storage accesses, nested RPCs, locking); `bytes` is the reply payload
    /// size, which determines the response's network serialization time.
    pub fn reply(self, msg: M, processing: SimDuration, bytes: u64) {
        let _ = self.tx.send((msg, processing, bytes));
    }
}

/// Result of a successful RPC, with the modeled cost breakdown.
#[derive(Debug)]
pub struct RpcReply<M> {
    pub msg: M,
    /// Modeled processing time at the remote node.
    pub remote_time: SimDuration,
    /// Modeled network time (request + response legs).
    pub net_time: SimDuration,
}

impl<M> RpcReply<M> {
    /// Total modeled round-trip latency of the call.
    pub fn total(&self) -> SimDuration {
        self.remote_time + self.net_time
    }
}

/// A request sitting in its target's inbox whose reply has not been
/// collected yet: what the first half of an RPC hands to the second.
struct PostedRpc<M> {
    to: NodeId,
    started: SimInstant,
    req_lat: SimDuration,
    bytes: u64,
    reply: Receiver<(M, SimDuration, u64)>,
}

struct DelayedMsg<M> {
    deliver_at: SimInstant,
    seq: u64,
    from: NodeId,
    to: NodeId,
    msg: M,
    net_delay: SimDuration,
}

impl<M> PartialEq for DelayedMsg<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<M> Eq for DelayedMsg<M> {}
impl<M> PartialOrd for DelayedMsg<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for DelayedMsg<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

const SITES: usize = Region::ALL.len();

/// One value per directed region pair, each made on first use: the
/// registry series of a link, resolved once instead of by name per message.
struct PerLink<T>([OnceLock<T>; SITES * SITES]);

impl<T> PerLink<T> {
    fn new() -> Self {
        PerLink(std::array::from_fn(|_| OnceLock::new()))
    }

    /// The pair's value; `resolve` gets its `from`/`to` labels.
    fn get(&self, from: Region, to: Region, resolve: impl FnOnce(&[(&str, &str)]) -> T) -> &T {
        self.0[from.index() * SITES + to.index()].get_or_init(|| {
            let (from, to) = (from.to_string(), to.to_string());
            resolve(&[("from", from.as_str()), ("to", to.as_str())])
        })
    }
}

/// `net_send_total` and `net_send_bytes` of one link.
struct SendSeries {
    total: Arc<CounterHandle>,
    bytes: Arc<CounterHandle>,
}

/// `net_rpc_total` / `net_rpc_latency` and `net_rpc_bytes` of one link.
struct RpcSeries {
    calls: OpSeries,
    bytes: Arc<CounterHandle>,
}

struct MeshInner<M> {
    endpoints: RwLock<HashMap<NodeId, Sender<Delivery<M>>>>,
    queue: Mutex<BinaryHeap<Reverse<DelayedMsg<M>>>>,
    queue_cond: Condvar,
    shutdown: AtomicBool,
    seq: AtomicU64,
}

/// The transport. Clone the `Arc<Mesh<M>>` into every node.
pub struct Mesh<M: Send + 'static> {
    pub fabric: Arc<Fabric>,
    pub clock: SharedClock,
    inner: Arc<MeshInner<M>>,
    sends: PerLink<SendSeries>,
    rpcs: PerLink<RpcSeries>,
}

impl<M: Send + 'static> Mesh<M> {
    pub fn new(fabric: Arc<Fabric>, clock: SharedClock) -> Arc<Self> {
        let inner = Arc::new(MeshInner {
            endpoints: RwLock::new(HashMap::new()),
            queue: Mutex::new(BinaryHeap::new()),
            queue_cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
            seq: AtomicU64::new(0),
        });
        let mesh = Arc::new(Mesh {
            fabric,
            clock: clock.clone(),
            inner: inner.clone(),
            sends: PerLink::new(),
            rpcs: PerLink::new(),
        });
        // Dispatcher thread releasing delayed one-way messages. Holds a weak
        // ref via the shutdown flag; exits when the mesh shuts down.
        {
            let inner = inner.clone();
            let clock = clock.clone();
            // Spawn only fails on OS resource exhaustion at construction
            // time; the mesh cannot run without its dispatcher, so there
            // is nothing to degrade to.
            #[allow(clippy::expect_used)]
            std::thread::Builder::new()
                .name("mesh-dispatch".into())
                .spawn(move || Self::dispatch_loop(inner, clock))
                .expect("spawn mesh dispatcher");
        }
        mesh
    }

    fn dispatch_loop(inner: Arc<MeshInner<M>>, clock: SharedClock) {
        loop {
            if inner.shutdown.load(Ordering::Acquire) {
                return;
            }
            let mut due: Vec<DelayedMsg<M>> = Vec::new();
            let wait_hint;
            {
                let mut q = inner.queue.lock();
                let now = clock.now();
                while let Some(Reverse(head)) = q.peek() {
                    if head.deliver_at > now {
                        break;
                    }
                    if let Some(Reverse(m)) = q.pop() {
                        due.push(m);
                    }
                }
                // Correctness comes from re-checking clock.now(); the wall
                // wait below is only a hint, clamped so that ManualClock
                // tests (where scale has no wall meaning) still make progress.
                wait_hint = match q.peek() {
                    Some(Reverse(head)) => (head.deliver_at - now).to_wall(clock.scale()).clamp(
                        std::time::Duration::from_micros(50),
                        std::time::Duration::from_millis(2),
                    ),
                    None => std::time::Duration::from_millis(2),
                };
                if due.is_empty() {
                    // ws-audit: allow(WS103): condvar wait releases the queue lock atomically while parked
                    inner.queue_cond.wait_for(&mut q, wait_hint);
                }
            }
            for m in due {
                let eps = inner.endpoints.read();
                if let Some(tx) = eps.get(&m.to) {
                    let _ = tx.send(Delivery {
                        from: m.from,
                        msg: m.msg,
                        net_delay: m.net_delay,
                        reply: None,
                    });
                } else {
                    // Unknown destination: the node stopped while the message
                    // was in flight. Drop it, like the real network would.
                    let to = m.to.region.to_string();
                    MetricsRegistry::global().inc("net_send_drops", &[("to", &to)]);
                }
            }
        }
    }

    /// Attach a node; returns its inbox.
    pub fn register(&self, node: NodeId) -> Receiver<Delivery<M>> {
        let (tx, rx) = unbounded();
        self.inner.endpoints.write().insert(node, tx);
        rx
    }

    pub fn unregister(&self, node: &NodeId) {
        self.inner.endpoints.write().remove(node);
    }

    pub fn is_registered(&self, node: &NodeId) -> bool {
        self.inner.endpoints.read().contains_key(node)
    }

    /// Stop the dispatcher thread. In-flight delayed messages are dropped.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.queue_cond.notify_all();
    }

    /// One-way send: the message arrives at `to`'s inbox after the modeled
    /// one-way latency. Returns that latency (the sender does not wait).
    pub fn send(
        &self,
        from: &NodeId,
        to: &NodeId,
        msg: M,
        bytes: u64,
    ) -> Result<SimDuration, NetError> {
        if !self.fabric.is_reachable(from.region, to.region) {
            return Err(NetError::Unreachable(to.clone()));
        }
        if !self.is_registered(to) {
            return Err(NetError::UnknownNode(to.clone()));
        }
        let delay = self
            .fabric
            .one_way_at(from.region, to.region, bytes, self.clock.now());
        let deliver_at = self.clock.now() + delay;
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        self.inner.queue.lock().push(Reverse(DelayedMsg {
            deliver_at,
            seq,
            from: from.clone(),
            to: to.clone(),
            msg,
            net_delay: delay,
        }));
        self.inner.queue_cond.notify_one();
        let link = self.sends.get(from.region, to.region, |labels| {
            let metrics = MetricsRegistry::global();
            SendSeries {
                total: metrics.counter("net_send_total", labels),
                bytes: metrics.counter("net_send_bytes", labels),
            }
        });
        link.total.inc();
        link.bytes.add(bytes);
        Ok(delay)
    }

    /// Blocking RPC. The caller's thread sleeps the modeled network time (so
    /// wall-clock interleavings track modeled time) and receives the modeled
    /// cost breakdown for latency accounting.
    ///
    /// `timeout` bounds the modeled wait for the remote handler.
    pub fn rpc(
        &self,
        from: &NodeId,
        to: &NodeId,
        msg: M,
        bytes: u64,
        timeout: SimDuration,
    ) -> Result<RpcReply<M>, NetError> {
        let mut replies = self.rpc_gather(from, vec![(to.clone(), msg)], bytes, timeout);
        replies
            .pop()
            .unwrap_or_else(|| Err(NetError::NoReply(to.clone())))
    }

    /// Concurrent RPCs from one thread ([`Mesh::rpc`] is the one-target
    /// case): post every request, wait for every reply against one shared
    /// wall-clock bound, then sleep the slowest peer's network time once —
    /// the peers' round trips overlap. Outcomes are in `calls` order; each
    /// call is accounted as a lone `rpc` would be.
    pub fn rpc_gather(
        &self,
        from: &NodeId,
        calls: Vec<(NodeId, M)>,
        bytes: u64,
        timeout: SimDuration,
    ) -> Vec<Result<RpcReply<M>, NetError>> {
        let posted: Vec<_> = calls
            .into_iter()
            .map(|(to, msg)| self.post_rpc(from, &to, msg, bytes))
            .collect();
        // Every request is posted (to this node too) before the thread waits.
        if posted.iter().any(Result::is_ok) {
            wiera_sim::block::before_block();
        }
        // Wall-clock bound on the wait: the modeled timeout compressed by the
        // clock scale, floored generously so slow CI machines don't produce
        // spurious timeouts.
        let wall = timeout.to_wall(self.clock.scale());
        let deadline = std::time::Instant::now() + wall.max(std::time::Duration::from_millis(250));
        let replies: Vec<_> = posted
            .into_iter()
            .map(|p| self.settle_rpc(from, p?, deadline))
            .collect();
        // Pay the network time on this thread so wall time tracks modeled
        // time. (The remotes' processing time was already paid by the remote
        // threads while we blocked in recv.)
        let slowest = replies.iter().flatten().map(|r| r.net_time).max();
        self.clock.sleep(slowest.unwrap_or(SimDuration::ZERO));
        replies
    }

    /// First half of an RPC: put the request in `to`'s inbox.
    fn post_rpc(
        &self,
        from: &NodeId,
        to: &NodeId,
        msg: M,
        bytes: u64,
    ) -> Result<PostedRpc<M>, NetError> {
        let started = self.clock.now();
        let refused = |e: NetError| {
            rpc_failed(from.region, to.region, false);
            e
        };
        if !self.fabric.is_reachable(from.region, to.region) {
            return Err(refused(NetError::Unreachable(to.clone())));
        }
        let req_lat = self
            .fabric
            .one_way_at(from.region, to.region, bytes, self.clock.now());
        let (tx, reply) = unbounded();
        let delivery = Delivery {
            from: from.clone(),
            msg,
            net_delay: req_lat,
            reply: Some(ReplySlot { tx }),
        };
        let sent = match self.inner.endpoints.read().get(to) {
            Some(inbox) => inbox.send(delivery).is_ok(),
            None => return Err(refused(NetError::UnknownNode(to.clone()))),
        };
        if !sent {
            // The node stopped between registering and now: its inbox is gone.
            return Err(refused(NetError::Unreachable(to.clone())));
        }
        Ok(PostedRpc {
            to: to.clone(),
            started,
            req_lat,
            bytes,
            reply,
        })
    }

    /// Second half of an RPC: wait until `deadline` for the reply, then
    /// account the call. The network time is still to be slept.
    fn settle_rpc(
        &self,
        from: &NodeId,
        posted: PostedRpc<M>,
        deadline: std::time::Instant,
    ) -> Result<RpcReply<M>, NetError> {
        let to = posted.to;
        let wait = deadline.saturating_duration_since(std::time::Instant::now());
        let (reply, processing, reply_bytes) = match posted.reply.recv_timeout(wait) {
            Ok(r) => r,
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                rpc_failed(from.region, to.region, true);
                Tracer::global().point(
                    self.clock.now(),
                    "net",
                    "rpc_timeout",
                    Some(format!("{from} -> {to}")),
                );
                return Err(NetError::Timeout(to));
            }
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                rpc_failed(from.region, to.region, false);
                return Err(NetError::NoReply(to));
            }
        };
        if !self.fabric.is_reachable(to.region, from.region) {
            // Partitioned while the call was in flight: the reply is lost.
            rpc_failed(from.region, to.region, false);
            return Err(NetError::Unreachable(to));
        }
        let resp_lat =
            self.fabric
                .one_way_at(to.region, from.region, reply_bytes, self.clock.now());
        let net_time = posted.req_lat + resp_lat;
        let total = processing + net_time;
        let link = self.rpcs.get(from.region, to.region, |labels| {
            let metrics = MetricsRegistry::global();
            RpcSeries {
                calls: OpSeries {
                    total: metrics.counter("net_rpc_total", labels),
                    latency: metrics.histogram("net_rpc_latency", labels),
                },
                bytes: metrics.counter("net_rpc_bytes", labels),
            }
        });
        link.calls.record(1, total);
        link.bytes.add(posted.bytes + reply_bytes);
        Tracer::global()
            .span(posted.started, "net", "rpc")
            .region(to.region.name())
            .node(to.name.clone())
            .finish(posted.started + total);
        Ok(RpcReply {
            msg: reply,
            remote_time: processing,
            net_time,
        })
    }
}

/// Count a failed RPC. Failures are rare: their series are looked up by name.
fn rpc_failed(from: Region, to: Region, timed_out: bool) {
    let (from, to) = (from.to_string(), to.to_string());
    let labels = [("from", from.as_str()), ("to", to.as_str())];
    match timed_out {
        true => MetricsRegistry::global().inc("net_rpc_timeouts", &labels),
        false => MetricsRegistry::global().inc("net_rpc_errors", &labels),
    }
}

impl<M> Drop for MeshInner<M> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.queue_cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiera_sim::ScaledClock;
    use Region::*;

    type TestMesh = Arc<Mesh<String>>;

    fn mesh() -> TestMesh {
        let fabric = Arc::new(Fabric::multicloud(1).without_jitter());
        Mesh::new(fabric, ScaledClock::shared(2000.0))
    }

    /// Spawn an echo server on `node` that prefixes replies with "re:".
    fn spawn_echo(mesh: &TestMesh, node: NodeId) -> std::thread::JoinHandle<()> {
        let rx = mesh.register(node);
        std::thread::spawn(move || {
            while let Ok(d) = rx.recv() {
                if d.msg == "stop" {
                    if let Some(r) = d.reply {
                        r.reply("stopped".into(), SimDuration::ZERO, 0);
                    }
                    return;
                }
                if let Some(r) = d.reply {
                    r.reply(format!("re:{}", d.msg), SimDuration::from_millis(3), 64);
                }
            }
        })
    }

    #[test]
    fn rpc_roundtrip_and_accounting() {
        let m = mesh();
        let server = NodeId::new(EuWest, "srv");
        let client = NodeId::new(UsEast, "cli");
        let h = spawn_echo(&m, server.clone());
        let reply = m
            .rpc(
                &client,
                &server,
                "hello".into(),
                128,
                SimDuration::from_secs(10),
            )
            .unwrap();
        assert_eq!(reply.msg, "re:hello");
        assert_eq!(reply.remote_time, SimDuration::from_millis(3));
        // Two 40ms one-way legs plus tiny serialization.
        let net_ms = reply.net_time.as_millis_f64();
        assert!((net_ms - 80.0).abs() < 1.0, "net {net_ms}ms");
        assert!((reply.total().as_millis_f64() - 83.0).abs() < 1.0);
        // A gather of one is the same call with the same accounting.
        let calls = vec![(server.clone(), "hello".to_string())];
        let mut gathered = m.rpc_gather(&client, calls, 128, SimDuration::from_secs(10));
        let alone = gathered.pop().unwrap().unwrap();
        assert!(gathered.is_empty());
        assert_eq!(alone.msg, reply.msg);
        assert_eq!(alone.remote_time, reply.remote_time);
        assert_eq!(alone.net_time, reply.net_time);
        m.rpc(
            &client,
            &server,
            "stop".into(),
            0,
            SimDuration::from_secs(10),
        )
        .unwrap();
        h.join().unwrap();
    }

    #[test]
    fn rpc_to_unknown_node_errors() {
        let m = mesh();
        let client = NodeId::new(UsEast, "cli");
        let ghost = NodeId::new(EuWest, "ghost");
        match m.rpc(&client, &ghost, "x".into(), 0, SimDuration::from_secs(1)) {
            Err(NetError::UnknownNode(n)) => assert_eq!(n, ghost),
            other => panic!("expected UnknownNode, got {other:?}"),
        }
    }

    #[test]
    fn rpc_to_partitioned_node_errors() {
        let m = mesh();
        let server = NodeId::new(AsiaEast, "srv");
        let client = NodeId::new(UsEast, "cli");
        let h = spawn_echo(&m, server.clone());
        m.fabric.set_partitioned(AsiaEast, true);
        match m.rpc(&client, &server, "x".into(), 0, SimDuration::from_secs(1)) {
            Err(NetError::Unreachable(_)) => {}
            other => panic!("expected Unreachable, got {other:?}"),
        }
        m.fabric.set_partitioned(AsiaEast, false);
        m.rpc(
            &client,
            &server,
            "stop".into(),
            0,
            SimDuration::from_secs(10),
        )
        .unwrap();
        h.join().unwrap();
    }

    #[test]
    fn rpc_handler_dropping_slot_is_noreply() {
        let m = mesh();
        let server = NodeId::new(EuWest, "drop");
        let client = NodeId::new(UsEast, "cli");
        let rx = m.register(server.clone());
        let h = std::thread::spawn(move || {
            let d = rx.recv().unwrap();
            drop(d.reply); // never answer
        });
        match m.rpc(&client, &server, "x".into(), 0, SimDuration::from_secs(5)) {
            Err(NetError::NoReply(_)) => {}
            other => panic!("expected NoReply, got {other:?}"),
        }
        h.join().unwrap();
    }

    #[test]
    fn one_way_send_arrives_with_delay_metadata() {
        let m = mesh();
        let server = NodeId::new(UsWest, "srv");
        let client = NodeId::new(UsEast, "cli");
        let rx = m.register(server.clone());
        let sent_delay = m.send(&client, &server, "async".into(), 256).unwrap();
        let d = rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap();
        assert_eq!(d.msg, "async");
        assert_eq!(d.net_delay, sent_delay);
        assert!(d.reply.is_none());
        assert!((sent_delay.as_millis_f64() - 35.0).abs() < 1.0);
    }

    #[test]
    fn one_way_sends_preserve_modeled_order() {
        // Both sends are stamped at one modeled instant, so the order they
        // arrive in is the links' modeled delays alone, however much wall
        // time passes between them.
        let clock = wiera_sim::ManualClock::new();
        let fabric = Arc::new(Fabric::multicloud(1).without_jitter());
        let m: TestMesh = Mesh::new(fabric, clock.clone());
        let server = NodeId::new(UsEast, "srv");
        let near = NodeId::new(AzureUsEast, "near"); // 1ms one-way
        let far = NodeId::new(AsiaEast, "far"); // 85ms one-way
        let rx = m.register(server.clone());
        m.register(near.clone());
        m.register(far.clone());
        // The far message is sent first but must arrive second.
        m.send(&far, &server, "far".into(), 0).unwrap();
        m.send(&near, &server, "near".into(), 0).unwrap();
        clock.advance(SimDuration::from_millis(86));
        let first = rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap();
        let second = rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap();
        assert_eq!(first.msg, "near");
        assert_eq!(second.msg, "far");
    }

    #[test]
    fn send_to_unregistered_errors() {
        let m = mesh();
        let client = NodeId::new(UsEast, "cli");
        let ghost = NodeId::new(EuWest, "ghost");
        assert!(matches!(
            m.send(&client, &ghost, "x".into(), 0),
            Err(NetError::UnknownNode(_))
        ));
    }

    #[test]
    fn unregister_stops_delivery() {
        let m = mesh();
        let server = NodeId::new(UsWest, "srv");
        let client = NodeId::new(UsEast, "cli");
        let rx = m.register(server.clone());
        m.send(&client, &server, "first".into(), 0).unwrap();
        let _ = rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap();
        m.unregister(&server);
        assert!(matches!(
            m.send(&client, &server, "second".into(), 0),
            Err(NetError::UnknownNode(_))
        ));
    }

    #[test]
    fn rpc_times_out_when_handler_stalls() {
        let m = mesh();
        let server = NodeId::new(EuWest, "slow");
        let client = NodeId::new(UsEast, "cli");
        let rx = m.register(server.clone());
        let h = std::thread::spawn(move || {
            let d = rx.recv().unwrap();
            // Stall past the caller's wall-clock bound before replying.
            std::thread::sleep(std::time::Duration::from_millis(400));
            if let Some(r) = d.reply {
                r.reply("late".into(), SimDuration::ZERO, 0);
            }
        });
        match m.rpc(
            &client,
            &server,
            "x".into(),
            0,
            SimDuration::from_millis(100),
        ) {
            Err(NetError::Timeout(n)) => assert_eq!(n, server),
            other => panic!("expected Timeout, got {other:?}"),
        }
        h.join().unwrap();
    }

    #[test]
    fn send_to_partitioned_region_fails_fast() {
        let m = mesh();
        let server = NodeId::new(AsiaEast, "srv");
        let client = NodeId::new(UsEast, "cli");
        let _rx = m.register(server.clone());
        m.fabric.set_partitioned(AsiaEast, true);
        assert!(matches!(
            m.send(&client, &server, "x".into(), 0),
            Err(NetError::Unreachable(_))
        ));
    }

    /// A clock that records every sleep it is asked for.
    struct SleepLog {
        inner: ScaledClock,
        slept: Mutex<Vec<SimDuration>>,
    }

    impl wiera_sim::Clock for SleepLog {
        fn now(&self) -> SimInstant {
            self.inner.now()
        }
        fn sleep(&self, d: SimDuration) {
            self.slept.lock().push(d);
            self.inner.sleep(d);
        }
        fn scale(&self) -> f64 {
            self.inner.scale()
        }
    }

    #[test]
    fn gather_pays_the_slowest_network_time_once() {
        let clock = Arc::new(SleepLog {
            inner: ScaledClock::new(2000.0),
            slept: Mutex::new(Vec::new()),
        });
        let fabric = Arc::new(Fabric::multicloud(1).without_jitter());
        let m: TestMesh = Mesh::new(fabric, clock.clone());
        let client = NodeId::new(UsEast, "cli");
        // One-way 35, 40 and 85 ms from US-East.
        let peers = [UsWest, EuWest, AsiaEast].map(|r| NodeId::new(r, "srv"));
        let echoes: Vec<_> = peers.iter().map(|p| spawn_echo(&m, p.clone())).collect();
        let calls = |msg: &str| peers.iter().map(|p| (p.clone(), msg.to_string())).collect();
        let replies = m.rpc_gather(&client, calls("hi"), 128, SimDuration::from_secs(10));
        let replies: Vec<_> = replies.into_iter().map(Result::unwrap).collect();
        for (reply, rtt_ms) in replies.iter().zip([70.0, 80.0, 170.0]) {
            assert_eq!(reply.msg, "re:hi");
            assert_eq!(reply.remote_time, SimDuration::from_millis(3));
            assert!((reply.net_time.as_millis_f64() - rtt_ms).abs() < 1.0);
        }
        // One sleep, of the slowest peer's network time — not three.
        assert_eq!(*clock.slept.lock(), vec![replies[2].net_time]);
        for reply in m.rpc_gather(&client, calls("stop"), 0, SimDuration::from_secs(10)) {
            assert_eq!(reply.unwrap().msg, "stopped");
        }
        for h in echoes {
            h.join().unwrap();
        }
    }

    #[test]
    fn gather_waits_one_timeout_for_all_silent_peers_and_keeps_the_rest() {
        let m = mesh();
        let client = NodeId::new(UsEast, "cli");
        let live = NodeId::new(UsWest, "live");
        let silent = [NodeId::new(EuWest, "mute"), NodeId::new(AsiaEast, "mute")];
        let peers = [silent[0].clone(), live.clone(), silent[1].clone()];
        let echo = spawn_echo(&m, live.clone());
        // Hold every request (and its reply slot) without ever answering.
        let held = silent.clone().map(|n| m.register(n));
        let calls = peers
            .iter()
            .map(|p| (p.clone(), "hi".to_string()))
            .collect();
        let w0 = std::time::Instant::now();
        // 100 ms modeled is under the 250 ms wall floor: the bound is 250 ms,
        // shared — two silent peers must not cost two of it.
        let replies = m.rpc_gather(&client, calls, 0, SimDuration::from_millis(100));
        let took = w0.elapsed();
        assert!(took >= std::time::Duration::from_millis(250), "{took:?}");
        assert!(took < std::time::Duration::from_millis(500), "{took:?}");
        assert!(matches!(&replies[0], Err(NetError::Timeout(n)) if *n == silent[0]));
        assert_eq!(replies[1].as_ref().unwrap().msg, "re:hi");
        assert!(matches!(&replies[2], Err(NetError::Timeout(n)) if *n == silent[1]));
        drop(held);
        let stop = m.rpc(&client, &live, "stop".into(), 0, SimDuration::from_secs(10));
        assert_eq!(stop.unwrap().msg, "stopped");
        echo.join().unwrap();
    }

    #[test]
    fn gather_runs_the_block_hook_after_posting_and_before_waiting() {
        let m = mesh();
        let client = NodeId::new(UsEast, "cli");
        let srv = NodeId::new(UsWest, "hooked");
        let inbox = m.register(srv.clone());
        // The hook finds both requests posted; answering them from inside it
        // shows the wait comes after it.
        wiera_sim::block::set(move || {
            let mut answered = 0;
            while let Ok(d) = inbox.try_recv() {
                let reply = d.reply.expect("an rpc");
                reply.reply(format!("re:{}", d.msg), SimDuration::ZERO, 0);
                answered += 1;
            }
            assert_eq!(answered, 2);
        });
        let calls = ["a", "b"].map(|msg| (srv.clone(), msg.to_string()));
        let replies = m.rpc_gather(&client, calls.to_vec(), 0, SimDuration::from_secs(10));
        let got: Vec<_> = replies.into_iter().map(|r| r.unwrap().msg).collect();
        assert_eq!(got, ["re:a", "re:b"]);
        // Nothing posted, nothing to wait for: the hook stays armed.
        let ran = Arc::new(AtomicBool::new(false));
        let flag = ran.clone();
        wiera_sim::block::set(move || flag.store(true, Ordering::Relaxed));
        let nowhere = NodeId::new(UsWest2, "nowhere");
        let refused = m.rpc(&client, &nowhere, "x".into(), 0, SimDuration::from_secs(1));
        assert!(matches!(refused, Err(NetError::UnknownNode(_))));
        wiera_sim::block::clear();
        assert!(!ran.load(Ordering::Relaxed));
    }

    #[test]
    fn rpc_into_a_closed_inbox_is_unreachable_and_counted() {
        let m = mesh();
        // No other test of this crate sends along this pair of regions.
        let client = NodeId::new(AzureUsEast, "cli");
        let gone = NodeId::new(UsWest2, "gone");
        drop(m.register(gone.clone()));
        let (from, to) = (client.region.to_string(), gone.region.to_string());
        let labels = [("from", from.as_str()), ("to", to.as_str())];
        let errors = MetricsRegistry::global().counter("net_rpc_errors", &labels);
        let before = errors.get();
        match m.rpc(&client, &gone, "x".into(), 0, SimDuration::from_secs(1)) {
            Err(NetError::Unreachable(n)) => assert_eq!(n, gone),
            other => panic!("expected Unreachable, got {other:?}"),
        }
        assert_eq!(errors.get(), before + 1);
    }

    #[test]
    fn node_display() {
        let n = NodeId::new(UsEast, "tiera-1");
        assert_eq!(n.to_string(), "tiera-1@US-East");
    }
}
