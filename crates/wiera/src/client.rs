//! The application-side client handle.
//!
//! §4.1 step 8: "the application can connect to the closest instance
//! (placed at the head of the list) and send requests as in Tiera", and
//! §4.4: "if the application observes that the closest instance is down
//! then it tries to send requests to the second closest instance, and so
//! on". Applications stay *unmodified*: this is the only integration point.
//!
//! Clients are built with [`WieraClient::builder`] and always route
//! through a [`FleetView`] — a versioned shard map plus the replica list
//! of every group. A single-deployment client is just the degenerate
//! one-shard, one-group view, so legacy and fleet routing share one code
//! path. A single-key operation is a batch of one: every call hashes its
//! keys, splits them per owning group, sweeps each group's replicas
//! closest-first (the groups of a batch concurrently), and reports
//! per-item results. A `WrongShard` refusal means the map went stale under
//! us (a shard move): the client re-reads the view and re-routes rather
//! than failing.

use crate::fleet::FleetView;
use crate::msg::{DataMsg, FailCode, PutItem};
use crate::replica::{view_of_item, view_of_reply, AppError, OpView, DATA_TIMEOUT};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use wiera_net::{Mesh, NetError, NodeId, Region, RpcReply};
use wiera_sim::{
    derive_seed, sleep_until, Admit, BreakerConfig, CircuitBreaker, MetricsRegistry, SimDuration,
    SimInstant, SimRng,
};

/// How many recent get latencies feed the hedged-read trigger.
const HEDGE_WINDOW: usize = 128;
/// Samples required before the p95 trigger is trusted; below this the
/// hedge fires after [`HEDGE_DEFAULT_DELAY`].
const HEDGE_MIN_SAMPLES: usize = 8;
/// Cold-start hedge delay, before enough latency samples exist.
const HEDGE_DEFAULT_DELAY: SimDuration = SimDuration::from_millis(30);

/// Client-side resilience policy. Everything here defaults to *off*, so a
/// plain-built client behaves exactly like the pre-overload code: no
/// budget envelopes on the wire, no breaker gating, no hedging.
#[derive(Debug, Clone, Default)]
struct Resilience {
    /// Per-operation budget; each op computes an absolute deadline at
    /// start, carries it in a [`DataMsg::WithBudget`] envelope, and stops
    /// retrying (and backing off) once it is spent.
    deadline: Option<SimDuration>,
    /// Consent to possibly-stale degraded reads under replica overload.
    allow_degraded: bool,
    /// Per-replica circuit breakers in the failover loop.
    breakers: bool,
    /// Latency-percentile-triggered hedged gets.
    hedged_reads: bool,
}

/// Retry behavior for the client failover loop (§4.4): candidates are swept
/// closest-first; between sweeps the client backs off exponentially with
/// seeded jitter (so a thundering herd of recovering clients decorrelates
/// deterministically), up to a total attempt cap.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Backoff before the second sweep, ms (sim time). Doubles per sweep.
    pub base_backoff_ms: f64,
    /// Backoff growth cap, ms.
    pub max_backoff_ms: f64,
    /// Total RPC attempts across all candidates and sweeps.
    pub max_attempts: u32,
    /// Seed for the jitter RNG.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_backoff_ms: 20.0,
            max_backoff_ms: 2000.0,
            max_attempts: 9,
            seed: 7,
        }
    }
}

/// Builder for [`WieraClient`]: routing source (a shared fleet view or a
/// plain replica list), retry/backoff policy, and the shard-map refresh
/// pause after a `WrongShard` redirect.
pub struct WieraClientBuilder {
    mesh: Arc<Mesh<DataMsg>>,
    region: Region,
    name: String,
    policy: RetryPolicy,
    refresh_backoff_ms: f64,
    fleet: Option<Arc<FleetView>>,
    replicas: Vec<NodeId>,
    resilience: Resilience,
}

impl WieraClientBuilder {
    /// Route through a shared fleet view (shard map + per-group replica
    /// lists). The view is live: a shard move installed into it re-routes
    /// this client on its next operation.
    pub fn fleet(mut self, view: Arc<FleetView>) -> Self {
        self.fleet = Some(view);
        self
    }

    /// Route to one replica group directly (the pre-fleet mode). Internally
    /// this still builds a one-shard [`FleetView`], so every operation takes
    /// the same shard-routing path.
    pub fn replicas(mut self, replicas: Vec<NodeId>) -> Self {
        self.replicas = replicas;
        self
    }

    /// Replace the whole retry policy.
    pub fn policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Cap total RPC attempts per operation.
    pub fn max_attempts(mut self, attempts: u32) -> Self {
        self.policy.max_attempts = attempts;
        self
    }

    /// Seed for the jitter RNG (chaos campaigns pin it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.policy.seed = seed;
        self
    }

    /// How long to pause before re-resolving after a `WrongShard` refusal,
    /// ms (sim time). During a shard-move handoff the old owner already
    /// refuses and the new one does not serve yet; this is the poll period
    /// of the redirect loop.
    pub fn map_refresh_backoff_ms(mut self, ms: f64) -> Self {
        self.refresh_backoff_ms = ms;
        self
    }

    /// Give every operation a budget of `ms` (sim time). The absolute
    /// deadline travels with the request, so replicas and tiers drop work
    /// that can no longer be answered in time, and the retry loop stops
    /// sweeping (and backing off) once the budget is spent. Off by default.
    pub fn deadline_ms(mut self, ms: f64) -> Self {
        self.resilience.deadline = Some(SimDuration::from_millis_f64(ms));
        self
    }

    /// Consent to degraded reads: under overload an eventual-policy replica
    /// may answer a get from local state instead of shedding it. The reply
    /// (and [`OpView::degraded`]) carries an explicit staleness marker.
    /// Off by default.
    pub fn allow_degraded(mut self, yes: bool) -> Self {
        self.resilience.allow_degraded = yes;
        self
    }

    /// Run a circuit breaker per replica: repeated transport failures or
    /// shed (`Overloaded`) replies open the breaker, and the failover loop
    /// then skips that replica until a cooldown probe succeeds. Off by
    /// default.
    pub fn breakers(mut self, on: bool) -> Self {
        self.resilience.breakers = on;
        self
    }

    /// Hedge slow gets: when the closest replica has not answered within
    /// the client's observed p95 get latency, a second request races to the
    /// next-closest replica and the first answer wins. Off by default.
    pub fn hedged_reads(mut self, on: bool) -> Self {
        self.resilience.hedged_reads = on;
        self
    }

    pub fn build(self) -> Arc<WieraClient> {
        let fleet = self
            .fleet
            .unwrap_or_else(|| FleetView::single_group(self.replicas));
        let me = NodeId::new(self.region, self.name);
        let rng = SimRng::new(derive_seed(self.policy.seed, me.name.as_ref()));
        Arc::new(WieraClient {
            mesh: self.mesh,
            me,
            fleet,
            policy: self.policy,
            refresh_backoff: SimDuration::from_millis_f64(self.refresh_backoff_ms),
            rng: Mutex::new(rng),
            resilience: self.resilience,
            breakers: Mutex::new(HashMap::new()),
            get_window: Mutex::new(VecDeque::new()),
        })
    }
}

/// An application's connection to a Wiera deployment or fleet.
pub struct WieraClient {
    mesh: Arc<Mesh<DataMsg>>,
    /// The application's own address (its region determines routing).
    pub me: NodeId,
    /// Shard map + group membership this client routes through.
    fleet: Arc<FleetView>,
    policy: RetryPolicy,
    refresh_backoff: SimDuration,
    /// Jitter source, derived from the policy seed and the client name.
    rng: Mutex<SimRng>,
    /// Overload-resilience policy (all off unless the builder enabled it).
    resilience: Resilience,
    /// One breaker per replica this client has talked to (lazily created).
    breakers: Mutex<HashMap<NodeId, Arc<CircuitBreaker>>>,
    /// Recent get latencies (ms), the hedged-read p95 trigger source.
    get_window: Mutex<VecDeque<f64>>,
}

impl WieraClient {
    /// Start building a client that connects from `region` as `name`.
    pub fn builder(
        mesh: Arc<Mesh<DataMsg>>,
        region: Region,
        name: impl Into<String>,
    ) -> WieraClientBuilder {
        WieraClientBuilder {
            mesh,
            region,
            name: name.into(),
            policy: RetryPolicy::default(),
            refresh_backoff_ms: 50.0,
            fleet: None,
            replicas: Vec::new(),
            resilience: Resilience::default(),
        }
    }

    /// The fleet view this client routes through.
    pub fn fleet(&self) -> Arc<FleetView> {
        self.fleet.clone()
    }

    /// Refresh the candidate list (e.g. after `getInstances`). Legacy
    /// single-group API: replaces group 0 of the client's view.
    pub fn update_replicas(&self, replicas: Vec<NodeId>) {
        self.fleet.set_group(0, replicas);
    }

    /// The closest replica across the whole fleet, by base RTT.
    pub fn closest(&self) -> Option<NodeId> {
        let mut all = self.fleet.all_replicas();
        self.sort_by_rtt(&mut all);
        all.into_iter().next()
    }

    fn sort_by_rtt(&self, replicas: &mut [NodeId]) {
        replicas.sort_by(|a, b| {
            let ra = self.mesh.fabric.base_rtt_ms(self.me.region, a.region);
            let rb = self.mesh.fabric.base_rtt_ms(self.me.region, b.region);
            ra.total_cmp(&rb)
        });
    }

    /// The replicas of `group`, closest first.
    fn candidates_of_group(&self, group: u32) -> Vec<NodeId> {
        let mut reps = self.fleet.group_replicas(group);
        self.sort_by_rtt(&mut reps);
        reps
    }

    /// The breaker guarding `node`, created on first contact.
    fn breaker_for(&self, node: &NodeId) -> Arc<CircuitBreaker> {
        self.breakers
            .lock()
            .entry(node.clone())
            .or_insert_with(|| {
                Arc::new(CircuitBreaker::new(
                    format!("client:{}", node.name),
                    BreakerConfig::default(),
                ))
            })
            .clone()
    }

    /// This op's absolute deadline, if the client carries a budget.
    fn op_deadline(&self) -> Option<SimInstant> {
        self.resilience.deadline.map(|d| self.mesh.clock.now() + d)
    }

    /// Wrap a request in the budget envelope when the client has one (or
    /// consents to degraded reads). A client with neither sends the bare
    /// message — bit-identical wire traffic to the pre-overload code.
    fn wrap_budget(&self, deadline: Option<SimInstant>, msg: DataMsg) -> DataMsg {
        if deadline.is_none() && !self.resilience.allow_degraded {
            return msg;
        }
        DataMsg::WithBudget {
            deadline_us: deadline.map(|t| t.elapsed_since(SimInstant::EPOCH).as_micros()),
            allow_degraded: self.resilience.allow_degraded,
            inner: Box::new(msg),
        }
    }

    fn budget_spent(why: &str) -> AppError {
        AppError::Remote {
            code: FailCode::DeadlineExceeded,
            why: why.into(),
        }
    }

    /// Issue an operation with closest-first failover over the candidates
    /// `resolve` yields (re-resolved each sweep — a failover or shard move
    /// may have refreshed the list): transport failures, stale-epoch
    /// refusals and shed (`Overloaded`) replies advance to the next-closest
    /// replica; a `WrongShard` refusal returns immediately (every replica of
    /// the group shares the same ownership view, so the *caller* must
    /// re-route on a fresh map); any other semantic (`Fail`) reply is final
    /// — it came from a live replica that understood the request, so
    /// retrying elsewhere can only mask the answer. After a full sweep of
    /// the candidate list the client backs off (exponential + seeded jitter,
    /// sim-time) and sweeps again until the attempt cap — or until the op's
    /// budget is spent, when a deadline is configured. With breakers
    /// enabled, candidates whose breaker refuses admission are skipped
    /// without touching them, and every call that does go out settles its
    /// breaker (success for any reply except a shed, failure for transport
    /// errors and sheds). Every client method routes through here, so they
    /// all share one retry/timeout/failover policy.
    fn with_failover<T>(
        &self,
        deadline: Option<SimInstant>,
        resolve: impl Fn() -> Vec<NodeId>,
        make: impl Fn() -> DataMsg,
        parse: impl Fn(RpcReply<DataMsg>, &NodeId) -> Result<T, AppError>,
    ) -> Result<T, AppError> {
        let mut attempts: u32 = 0;
        let mut sweep: u32 = 0;
        let mut last: Option<AppError> = None;
        loop {
            let candidates = resolve();
            if candidates.is_empty() {
                return Err(AppError::blocked("no replicas configured"));
            }
            for target in &candidates {
                if attempts >= self.policy.max_attempts {
                    return Err(last.unwrap_or_else(|| AppError::blocked("all replicas failed")));
                }
                if deadline.is_some_and(|dl| self.mesh.clock.now() >= dl) {
                    return Err(
                        last.unwrap_or_else(|| Self::budget_spent("op budget spent mid-failover"))
                    );
                }
                // Breaker gating: an open breaker skips the replica without
                // touching it. `admit` may hand out a half-open probe slot,
                // so every admitted call below MUST settle the breaker.
                let breaker = if self.resilience.breakers {
                    let b = self.breaker_for(target);
                    match b.admit(self.mesh.clock.now()) {
                        Admit::No => {
                            self.note_retry("breaker-open");
                            continue;
                        }
                        Admit::Yes | Admit::Probe => Some(b),
                    }
                } else {
                    None
                };
                attempts += 1;
                let msg = self.wrap_budget(deadline, make());
                let bytes = msg.wire_bytes();
                let outcome = self.mesh.rpc(&self.me, target, msg, bytes, DATA_TIMEOUT);
                if let Some(b) = &breaker {
                    settle(b, self.mesh.clock.now(), &outcome);
                }
                match outcome {
                    // A fenced (deposed-epoch) refusal means the deployment
                    // just failed over: retry, the next candidate (or the
                    // next sweep) will be current.
                    Ok(RpcReply {
                        msg:
                            DataMsg::Fail {
                                code: FailCode::StaleEpoch,
                                why,
                            },
                        ..
                    }) => {
                        self.note_retry("stale-epoch");
                        last = Some(AppError::Remote {
                            code: FailCode::StaleEpoch,
                            why,
                        });
                    }
                    // A shed: this replica refuses new client load but
                    // another may have headroom — advance.
                    Ok(RpcReply {
                        msg:
                            DataMsg::Fail {
                                code: FailCode::Overloaded,
                                why,
                            },
                        ..
                    }) => {
                        self.note_retry("overloaded");
                        last = Some(AppError::Remote {
                            code: FailCode::Overloaded,
                            why,
                        });
                    }
                    // The group does not own the key's shard (stale map or
                    // mid-move handoff): bubble up for re-routing.
                    Ok(RpcReply {
                        msg:
                            DataMsg::Fail {
                                code: FailCode::WrongShard,
                                why,
                            },
                        ..
                    }) => {
                        return Err(AppError::Remote {
                            code: FailCode::WrongShard,
                            why,
                        });
                    }
                    Ok(reply) => return parse(reply, target),
                    Err(e) => {
                        self.note_retry(match &e {
                            NetError::Timeout(_) => "timeout",
                            _ => "unreachable",
                        });
                        last = Some(AppError::Net(e));
                    }
                }
            }
            if attempts >= self.policy.max_attempts {
                return Err(last.unwrap_or_else(|| AppError::blocked("all replicas failed")));
            }
            // Whole list down (or fenced): back off before the next sweep —
            // but never sleep past the op's deadline.
            let exp = self.policy.base_backoff_ms * f64::powi(2.0, sweep as i32);
            let capped = exp.min(self.policy.max_backoff_ms);
            let jitter = self.rng.lock().gen_range_f64(0.0, capped);
            let mut pause = SimDuration::from_millis_f64(capped + jitter);
            let now = self.mesh.clock.now();
            if let Some(dl) = deadline {
                if now >= dl {
                    return Err(
                        last.unwrap_or_else(|| Self::budget_spent("op budget spent mid-failover"))
                    );
                }
                pause = pause.min(dl.elapsed_since(now));
            }
            // A barrier: one `Clock::sleep` of less wall time than the
            // thread's sleep account carries returns at once.
            sleep_until(self.mesh.clock.as_ref(), now + pause);
            sweep += 1;
        }
    }

    fn note_retry(&self, reason: &str) {
        MetricsRegistry::global().inc("client_retries", &[("reason", reason)]);
    }

    /// A single-key operation is a batch of one: it takes [`Self::fan_out`]'s
    /// routing, failover and `WrongShard` redirect loop.
    fn routed<T: Send>(
        &self,
        key: &str,
        make: impl Fn() -> DataMsg + Sync,
        parse: impl Fn(RpcReply<DataMsg>, &NodeId) -> Result<T, AppError> + Sync,
    ) -> Result<T, AppError> {
        let one = |reply, target: &NodeId| parse(reply, target).map(|t| vec![Ok(t)]);
        let mut results = self.fan_out(&[key], |_| make(), one);
        results
            .pop()
            .unwrap_or_else(|| Err(AppError::internal("op unreached")))
    }

    /// The common case: one request, one `OpView`-shaped answer.
    fn op(&self, key: &str, make: impl Fn() -> DataMsg + Sync) -> Result<OpView, AppError> {
        self.routed(key, make, |reply, target| {
            let latency = reply.total();
            view_of_reply(reply.msg, latency, target)
        })
    }

    pub fn put(&self, key: &str, value: Bytes) -> Result<OpView, AppError> {
        self.op(key, || DataMsg::Put {
            items: vec![PutItem {
                key: key.to_string(),
                value: value.clone(),
            }],
        })
    }

    pub fn get(&self, key: &str) -> Result<OpView, AppError> {
        if self.resilience.hedged_reads {
            if let Some(raced) = self.hedged_get(key) {
                if let Ok(view) = &raced {
                    self.record_get_latency(view.latency);
                }
                return raced;
            }
        }
        let out = self.op(key, || DataMsg::Get {
            keys: vec![key.to_string()],
        });
        if let Ok(view) = &out {
            self.record_get_latency(view.latency);
        }
        out
    }

    fn record_get_latency(&self, latency: SimDuration) {
        let mut w = self.get_window.lock();
        w.push_back(latency.as_millis_f64());
        while w.len() > HEDGE_WINDOW {
            w.pop_front();
        }
    }

    /// When to fire the hedge: the p95 of this client's recent get
    /// latencies, or a fixed cold-start delay before enough samples exist.
    fn hedge_delay(&self) -> SimDuration {
        let w = self.get_window.lock();
        if w.len() < HEDGE_MIN_SAMPLES {
            return HEDGE_DEFAULT_DELAY;
        }
        let mut v: Vec<f64> = w.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        let idx = ((v.len() as f64 * 0.95).ceil() as usize).clamp(1, v.len()) - 1;
        SimDuration::from_millis_f64(v[idx].max(1.0))
    }

    /// Race a get against the two closest replicas of the owning group: the
    /// primary attempt goes out immediately, the hedge follows after
    /// [`Self::hedge_delay`] unless the primary already answered, and the
    /// first well-formed reply wins. The legs are detached threads — the
    /// caller returns as soon as one leg is decisive, it never waits for
    /// the loser (a hedge that cannot abandon a slow primary bounds
    /// nothing). Transport failures on both legs return `None` so the
    /// caller falls back to the full failover sweep (which owns
    /// retry/backoff policy); a semantic reply from either leg is final.
    /// Hedges never consult breakers for admission (the race *is* the
    /// latency hedge) but each leg settles its outcome into them even when
    /// it loses, so a browned-out primary still accumulates evidence.
    fn hedged_get(&self, key: &str) -> Option<Result<OpView, AppError>> {
        let candidates = self.candidates_of_group(self.fleet.map().group_of(key));
        if candidates.len() < 2 {
            return None;
        }
        let deadline = self.op_deadline();
        let primary = candidates[0].clone();
        let hedge = candidates[1].clone();
        let delay = self.hedge_delay();
        let (tx, rx) = crossbeam::channel::unbounded();
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        type Leg = Option<(Result<RpcReply<DataMsg>, NetError>, NodeId)>;
        let spawn_leg = |target: NodeId, fire_after: Option<SimDuration>| {
            let mesh = self.mesh.clone();
            let me = self.me.clone();
            let breaker = self.resilience.breakers.then(|| self.breaker_for(&target));
            let msg = self.wrap_budget(
                deadline,
                DataMsg::Get {
                    keys: vec![key.to_string()],
                },
            );
            let tx = tx.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                if let Some(wait) = fire_after {
                    mesh.clock.sleep(wait);
                    if done.load(std::sync::atomic::Ordering::Acquire) {
                        let leg: Leg = None;
                        let _ = tx.send(leg);
                        return;
                    }
                    MetricsRegistry::global().inc("client_hedges", &[("event", "fired")]);
                }
                let bytes = msg.wire_bytes();
                let out = mesh.rpc(&me, &target, msg, bytes, DATA_TIMEOUT);
                if let Some(b) = breaker {
                    settle(&b, mesh.clock.now(), &out);
                }
                let leg: Leg = Some((out, target));
                let _ = tx.send(leg);
            });
        };
        spawn_leg(primary, None);
        spawn_leg(hedge.clone(), Some(delay));
        drop(tx);
        let mut legs = 0;
        while legs < 2 {
            let Ok(leg) = rx.recv() else { break };
            legs += 1;
            let Some((outcome, target)) = leg else {
                continue; // hedge skipped: the primary had answered
            };
            // A transport failure lets the other leg (or the caller's
            // failover sweep) decide.
            let Ok(reply) = outcome else { continue };
            let latency = reply.total();
            match reply.msg {
                // Retryable refusals are not answers: leave the race open
                // for the other leg, and fall back to the failover sweep
                // (which owns retry and re-routing policy) if both legs
                // refuse.
                DataMsg::Fail {
                    code: FailCode::Overloaded | FailCode::StaleEpoch | FailCode::WrongShard,
                    ..
                } => {}
                msg => {
                    done.store(true, std::sync::atomic::Ordering::Release);
                    let won = if target == hedge {
                        "hedge-won"
                    } else {
                        "primary-won"
                    };
                    MetricsRegistry::global().inc("client_hedges", &[("event", won)]);
                    return Some(view_of_reply(msg, latency, &target));
                }
            }
        }
        None
    }

    pub fn get_version(&self, key: &str, version: u64) -> Result<OpView, AppError> {
        self.op(key, || DataMsg::GetVersion {
            key: key.to_string(),
            version,
        })
    }

    pub fn get_version_list(&self, key: &str) -> Result<Vec<u64>, AppError> {
        self.routed(
            key,
            || DataMsg::GetVersionList {
                key: key.to_string(),
            },
            |reply, _| match reply.msg {
                DataMsg::VersionList { versions } => Ok(versions),
                DataMsg::Fail { code, why } => Err(AppError::Remote { code, why }),
                other => Err(AppError::internal(format!("bad reply {other:?}"))),
            },
        )
    }

    pub fn update(&self, key: &str, version: u64, value: Bytes) -> Result<OpView, AppError> {
        self.op(key, || DataMsg::Update {
            key: key.to_string(),
            version,
            value: value.clone(),
        })
    }

    pub fn remove(&self, key: &str) -> Result<OpView, AppError> {
        self.op(key, || DataMsg::Remove {
            key: key.to_string(),
        })
    }

    pub fn remove_version(&self, key: &str, version: u64) -> Result<OpView, AppError> {
        self.op(key, || DataMsg::RemoveVersion {
            key: key.to_string(),
            version,
        })
    }

    /// Write a batch of keys in one request per owning group (one wire
    /// header per sub-batch). The batch is split by shard ownership, the
    /// sub-batches fan out concurrently, and per-item results are returned
    /// in input order, so a partial failure never hides the items that
    /// succeeded. A group whose sub-batch is refused `WrongShard` is
    /// re-split on the refreshed map and retried; a group that stays
    /// unreachable fails only its own items.
    pub fn put_batch(
        &self,
        items: &[(String, Bytes)],
    ) -> Result<Vec<Result<OpView, AppError>>, AppError> {
        let keys: Vec<&str> = items.iter().map(|(k, _)| k.as_str()).collect();
        let put = |idxs: &[usize]| DataMsg::Put {
            items: idxs
                .iter()
                .map(|&i| PutItem {
                    key: items[i].0.clone(),
                    value: items[i].1.clone(),
                })
                .collect(),
        };
        Ok(self.fan_out(&keys, put, batch_views))
    }

    /// Read a batch of keys; same splitting, fan-out, and per-item
    /// semantics as [`Self::put_batch`].
    pub fn get_batch(&self, keys: &[String]) -> Result<Vec<Result<OpView, AppError>>, AppError> {
        let get = |idxs: &[usize]| DataMsg::Get {
            keys: idxs.iter().map(|&i| keys[i].clone()).collect(),
        };
        let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
        Ok(self.fan_out(&keys, get, batch_views))
    }

    /// Split item indices by owning group under the current map, issue one
    /// group message per group concurrently, and stitch per-item results
    /// back in input order; `parse` reads one group's reply into its
    /// per-item results. The lowest-numbered group runs on the calling
    /// thread and every other group on a scoped thread of its own, so a
    /// batch that one group owns starts no thread. Indices whose group
    /// answers `WrongShard` are re-split on the next round (the map moved
    /// under us) after a map-refresh pause; the redirect round count is
    /// capped by the retry policy's attempt budget and by the op's deadline.
    fn fan_out<T: Send>(
        &self,
        keys: &[&str],
        make_group_msg: impl Fn(&[usize]) -> DataMsg + Sync,
        parse: impl Fn(RpcReply<DataMsg>, &NodeId) -> Result<Vec<Result<T, AppError>>, AppError> + Sync,
    ) -> Vec<Result<T, AppError>> {
        let deadline = self.op_deadline();
        let mut results: Vec<Option<Result<T, AppError>>> = (0..keys.len()).map(|_| None).collect();
        let mut pending: Vec<usize> = (0..keys.len()).collect();
        let mut rounds: u32 = 0;
        let mut last_refusal: Option<AppError> = None;
        while !pending.is_empty() {
            let map = self.fleet.map();
            let mut by_group: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            for &i in &pending {
                by_group.entry(map.group_of(keys[i])).or_default().push(i);
            }
            let (make_ref, parse_ref) = (&make_group_msg, &parse);
            type GroupOutcome<T> = (Vec<usize>, Result<Vec<Result<T, AppError>>, AppError>);
            let call_group = |(group, idxs): (u32, Vec<usize>)| -> GroupOutcome<T> {
                let result = self.with_failover(
                    deadline,
                    || self.candidates_of_group(group),
                    || make_ref(&idxs),
                    parse_ref,
                );
                (idxs, result)
            };
            let settled = |outcome: std::thread::Result<GroupOutcome<T>>| {
                outcome.unwrap_or_else(|_| {
                    (
                        Vec::new(),
                        Err(AppError::internal("batch fan-out worker panicked")),
                    )
                })
            };
            let mut groups = by_group.into_iter();
            let inline = groups.next();
            let outcomes: Vec<GroupOutcome<T>> = std::thread::scope(|s| {
                let handles: Vec<_> = groups.map(|g| s.spawn(move || call_group(g))).collect();
                let here = inline.map(|g| catch_unwind(AssertUnwindSafe(|| call_group(g))));
                here.into_iter()
                    .chain(handles.into_iter().map(|h| h.join()))
                    .map(settled)
                    .collect()
            });
            let mut wrong: Vec<usize> = Vec::new();
            for (idxs, result) in outcomes {
                match result {
                    Ok(views) => {
                        for (i, view) in idxs.into_iter().zip(views) {
                            results[i] = Some(view);
                        }
                    }
                    Err(e) if e.code() == Some(FailCode::WrongShard) => {
                        last_refusal = Some(e);
                        wrong.extend(idxs);
                    }
                    Err(e) => {
                        for i in idxs {
                            results[i] = Some(Err(e.clone()));
                        }
                    }
                }
            }
            pending = wrong;
            if pending.is_empty() {
                break;
            }
            rounds += 1;
            let give_up = if rounds >= self.policy.max_attempts {
                let never = || AppError::blocked("shard map never settled");
                Some(last_refusal.take().unwrap_or_else(never))
            } else if deadline.is_some_and(|dl| self.mesh.clock.now() >= dl) {
                Some(Self::budget_spent("op budget spent during re-routing"))
            } else {
                None
            };
            if let Some(e) = give_up {
                for i in pending.drain(..) {
                    results[i] = Some(Err(e.clone()));
                }
                break;
            }
            self.note_retry("wrong-shard");
            sleep_until(
                self.mesh.clock.as_ref(),
                self.mesh.clock.now() + self.refresh_backoff,
            );
        }
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Err(AppError::internal("batch item unreached"))))
            .collect()
    }
}

/// Settle `breaker` with one call's outcome: a shed reply is the overload
/// signal the breaker exists for and a transport error its other failure;
/// any other reply proves liveness.
fn settle(
    breaker: &CircuitBreaker,
    now: SimInstant,
    outcome: &Result<RpcReply<DataMsg>, NetError>,
) {
    match outcome {
        Ok(RpcReply {
            msg:
                DataMsg::Fail {
                    code: FailCode::Overloaded,
                    ..
                },
            ..
        })
        | Err(_) => breaker.record_failure(now),
        Ok(reply) => breaker.record_success(now, reply.total()),
    }
}

fn batch_views(
    reply: RpcReply<DataMsg>,
    target: &NodeId,
) -> Result<Vec<Result<OpView, AppError>>, AppError> {
    let latency = reply.total();
    match reply.msg {
        DataMsg::MultiReply { results } => Ok(results
            .into_iter()
            .map(|item| view_of_item(item, latency, target))
            .collect()),
        DataMsg::Fail { code, why } => Err(AppError::Remote { code, why }),
        other => Err(AppError::internal(format!("bad batch reply {other:?}"))),
    }
}
