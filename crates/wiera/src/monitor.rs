//! The dynamism machinery: dedicated monitor threads per instance (§4.3).
//!
//! * [`LatencyMonitor`] — watches the replica's put-latency window. Under
//!   the strong model, a sustained threshold violation (e.g. >800 ms for
//!   >30 s, Fig. 5(a)) asks the controller to switch the deployment to the
//!   > weak model. Under the weak model, it plays the paper's *network
//!   > monitor*: it estimates what a strong put would cost right now (lock
//!   > round trip + slowest replica round trip) from live RTT probes, and asks
//!   > to switch back once that estimate has been healthy for the same period.
//!   > Transient blips shorter than the period never trigger either way —
//!   > exactly how Fig. 7 ignores its delay (c).
//! * [`RequestsMonitor`] — primary-side: compares puts forwarded by each
//!   other instance against puts received directly from applications over a
//!   sliding window; when a forwarder dominates, asks the controller to move
//!   the primary there (Fig. 5(b), the Tuba-style reconfiguration of §5.2).

use crate::msg::{ChangeRequest, DataMsg, LatencySpec, RequestsSpec};
use crate::replica::ReplicaNode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use wiera_net::{NodeId, Region};
use wiera_policy::ConsistencyModel;
use wiera_sim::{SimDuration, SimInstant};

/// Handle to a running monitor thread.
pub struct MonitorHandle {
    stop: Arc<AtomicBool>,
    /// Change requests sent to the controller (observability).
    pub triggers: Arc<AtomicU64>,
}

impl MonitorHandle {
    pub(crate) fn new(stop: Arc<AtomicBool>, triggers: Arc<AtomicU64>) -> MonitorHandle {
        MonitorHandle { stop, triggers }
    }

    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

impl Drop for MonitorHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The latency-monitoring thread (LatencyMonitoring events, Fig. 5(a)).
pub struct LatencyMonitor;

impl LatencyMonitor {
    pub fn start(
        replica: Arc<ReplicaNode>,
        spec: LatencySpec,
        controller: NodeId,
        deployment: String,
        mesh: Arc<wiera_net::Mesh<DataMsg>>,
        coord_region: Region,
    ) -> Result<MonitorHandle, String> {
        let stop = Arc::new(AtomicBool::new(false));
        let triggers = Arc::new(AtomicU64::new(0));
        let stop2 = stop.clone();
        let triggers2 = triggers.clone();
        std::thread::Builder::new()
            .name(format!("latmon-{}", replica.node))
            .spawn(move || {
                let clock = mesh.clock.clone();
                let check = SimDuration::from_millis_f64(spec.check_every_ms);
                let period = SimDuration::from_millis_f64(spec.period_ms);
                // When the current condition (violation while strong /
                // healthy while weak) started holding.
                let mut since: Option<SimInstant> = None;
                let mut last_model = replica.consistency();
                let mut last_check = clock.now();
                loop {
                    clock.sleep(check);
                    if stop2.load(Ordering::Acquire) {
                        return;
                    }
                    let now = clock.now();
                    let model = replica.consistency();
                    if model != last_model {
                        since = None; // switch happened; restart observation
                        last_model = model;
                    }
                    let (holding, target) = if model == spec.strong {
                        // Fold in samples since the previous check: a
                        // violating put starts (or extends) the violation; a
                        // healthy put ends it. This is sampling-rate
                        // independent — sparse workloads just take longer to
                        // span the period.
                        for (t, ms) in replica.put_latencies_since(last_check) {
                            if ms > spec.threshold_ms {
                                since.get_or_insert(t);
                            } else {
                                since = None;
                            }
                        }
                        (since.is_some(), spec.weak)
                    } else if model == spec.weak {
                        // Estimate a strong put's cost from live RTTs: lock
                        // round trip to the coordinator + slowest peer RTT.
                        let fabric = &mesh.fabric;
                        let lock_rtt = fabric.effective_rtt(replica.node.region, coord_region);
                        let worst_peer = replica
                            .peers()
                            .iter()
                            .map(|p| fabric.effective_rtt(replica.node.region, p.region))
                            .max()
                            .unwrap_or(SimDuration::ZERO);
                        let estimate =
                            (lock_rtt + worst_peer + SimDuration::from_millis(5)).as_millis_f64();
                        (estimate <= spec.threshold_ms, spec.strong)
                    } else {
                        since = None;
                        last_check = now;
                        continue;
                    };
                    last_check = now;

                    if holding {
                        let start = *since.get_or_insert(now);
                        if now.elapsed_since(start) > period {
                            let msg = DataMsg::RequestChange {
                                deployment: deployment.clone(),
                                change: ChangeRequest::Consistency(target),
                            };
                            let bytes = msg.wire_bytes();
                            let _ = mesh.rpc(
                                &replica.node,
                                &controller,
                                msg,
                                bytes,
                                SimDuration::from_secs(60),
                            );
                            triggers2.fetch_add(1, Ordering::Relaxed);
                            since = None;
                        }
                    } else {
                        since = None;
                    }
                }
            })
            .map_err(|e| format!("cannot spawn latency monitor: {e}"))?;
        Ok(MonitorHandle { stop, triggers })
    }
}

/// The requests-monitoring thread (RequestsMonitoring events, Fig. 5(b)).
pub struct RequestsMonitor;

impl RequestsMonitor {
    pub fn start(
        replica: Arc<ReplicaNode>,
        spec: RequestsSpec,
        controller: NodeId,
        deployment: String,
        mesh: Arc<wiera_net::Mesh<DataMsg>>,
    ) -> Result<MonitorHandle, String> {
        let stop = Arc::new(AtomicBool::new(false));
        let triggers = Arc::new(AtomicU64::new(0));
        let stop2 = stop.clone();
        let triggers2 = triggers.clone();
        std::thread::Builder::new()
            .name(format!("reqmon-{}", replica.node))
            .spawn(move || {
                let clock = mesh.clock.clone();
                let check = SimDuration::from_millis_f64(spec.check_every_ms);
                let window = SimDuration::from_millis_f64(spec.window_ms);
                loop {
                    clock.sleep(check);
                    if stop2.load(Ordering::Acquire) {
                        return;
                    }
                    // Only the current primary arbitrates (§4.3: "the
                    // dedicated thread in the primary instance").
                    if !replica.is_primary() {
                        continue;
                    }
                    if !matches!(
                        replica.consistency(),
                        ConsistencyModel::PrimaryBackup { .. }
                    ) {
                        continue;
                    }
                    let now = clock.now();
                    let since = now - window;
                    let direct = replica.direct_puts_since(since);
                    let forwarded = replica.forwarded_puts_since(since);
                    if let Some((winner, count)) = forwarded.into_iter().max_by_key(|(_, c)| *c) {
                        if count >= direct.max(1) {
                            let msg = DataMsg::RequestChange {
                                deployment: deployment.clone(),
                                change: ChangeRequest::Primary(winner),
                            };
                            let bytes = msg.wire_bytes();
                            let _ = mesh.rpc(
                                &replica.node,
                                &controller,
                                msg,
                                bytes,
                                SimDuration::from_secs(60),
                            );
                            triggers2.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
            .map_err(|e| format!("cannot spawn requests monitor: {e}"))?;
        Ok(MonitorHandle { stop, triggers })
    }
}
