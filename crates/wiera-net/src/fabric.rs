//! The live network model.
//!
//! A [`Fabric`] wraps the static [`Topology`] with everything that changes at
//! run time — exactly the "dynamics" Wiera exists to handle:
//!
//! * **Delay injection** (Fig. 7): add extra latency to all traffic touching
//!   a site, or to one specific link, and clear it again later.
//! * **Partitions / crashes** (§4.4): mark a site unreachable so heartbeats
//!   miss and RPCs fail.
//! * **Egress throttling** (Fig. 11/12): cap a site's outbound bandwidth the
//!   way Azure caps VM network throughput by instance size.
//!
//! `one_way` is the single place every message's modeled latency comes from.

use crate::region::Region;
use crate::topology::Topology;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use wiera_sim::{LatencyDist, MetricsRegistry, SimDuration, SimInstant, SimRng};

#[derive(Default)]
struct Dynamics {
    /// Extra one-way delay applied to every message touching the site.
    node_delay: HashMap<Region, SimDuration>,
    /// Extra one-way delay on a specific (unordered) link.
    link_delay: HashMap<(Region, Region), SimDuration>,
    /// Sites currently cut off from everything else.
    partitioned: HashMap<Region, bool>,
    /// Specific (unordered) links currently cut, leaving both endpoints
    /// reachable from everywhere else — an asymmetric WAN partition.
    cut_links: HashSet<(Region, Region)>,
    /// Outbound bandwidth cap (Mbit/s), e.g. a small Azure VM size.
    egress_cap_mbps: HashMap<Region, f64>,
    /// Extra *random* one-way delay (uniform in `0..ms`) on every message
    /// touching the site — modeled WAN jitter, drawn per message from the
    /// fabric's seeded RNG.
    node_jitter_ms: HashMap<Region, f64>,
}

fn link_key(a: Region, b: Region) -> (Region, Region) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Shared network model: static topology + runtime dynamics + jitter RNG.
pub struct Fabric {
    topology: RwLock<Topology>,
    dyn_state: RwLock<Dynamics>,
    rng: Mutex<SimRng>,
    /// If false, latencies are the distribution's typical value (no jitter);
    /// useful for exact-value unit tests.
    jitter: bool,
    /// Per-site NIC serialization state: when an egress cap is set, the
    /// site's transfers queue behind each other (a throttled Azure VM NIC
    /// is a shared serial resource, the effect behind Fig. 11/12).
    nic_busy_until: Mutex<HashMap<Region, SimInstant>>,
}

impl Fabric {
    pub fn new(topology: Topology, seed: u64) -> Self {
        Fabric {
            topology: RwLock::new(topology),
            dyn_state: RwLock::new(Dynamics::default()),
            rng: Mutex::new(SimRng::new(seed).child("fabric")),
            jitter: true,
            nic_busy_until: Mutex::new(HashMap::new()),
        }
    }

    /// The default multi-cloud fabric used by all experiments.
    pub fn multicloud(seed: u64) -> Self {
        Self::new(Topology::multicloud(), seed)
    }

    /// Disable latency jitter (deterministic typical values).
    pub fn without_jitter(mut self) -> Self {
        self.jitter = false;
        self
    }

    pub fn topology(&self) -> Topology {
        self.topology.read().clone()
    }

    pub fn set_link(&self, a: Region, b: Region, rtt_ms: f64, bw_mbps: f64) {
        self.topology.write().set_link(a, b, rtt_ms, bw_mbps);
    }

    /// Base RTT (no injected delays), ms.
    pub fn base_rtt_ms(&self, a: Region, b: Region) -> f64 {
        self.topology.read().rtt_ms(a, b)
    }

    /// Current effective RTT including injected delays, ms. This is what a
    /// ping between the sites would measure right now.
    pub fn effective_rtt(&self, a: Region, b: Region) -> SimDuration {
        let base = SimDuration::from_millis_f64(self.topology.read().rtt_ms(a, b));
        base + self.injected_one_way(a, b) * 2u64
    }

    fn injected_one_way(&self, from: Region, to: Region) -> SimDuration {
        let d = self.dyn_state.read();
        let mut extra = SimDuration::ZERO;
        if let Some(&x) = d.node_delay.get(&from) {
            extra += x;
        }
        if to != from {
            if let Some(&x) = d.node_delay.get(&to) {
                extra += x;
            }
        }
        if let Some(&x) = d.link_delay.get(&link_key(from, to)) {
            extra += x;
        }
        extra
    }

    /// Whether traffic can currently flow between the two sites.
    pub fn is_reachable(&self, a: Region, b: Region) -> bool {
        if a == b {
            return true;
        }
        let d = self.dyn_state.read();
        !(*d.partitioned.get(&a).unwrap_or(&false)
            || *d.partitioned.get(&b).unwrap_or(&false)
            || d.cut_links.contains(&link_key(a, b)))
    }

    /// Effective bandwidth for a transfer from `from` to `to`, Mbit/s.
    pub fn effective_bw_mbps(&self, from: Region, to: Region) -> f64 {
        let base = self.topology.read().bw_mbps(from, to);
        let d = self.dyn_state.read();
        let cap = d
            .egress_cap_mbps
            .get(&from)
            .copied()
            .unwrap_or(f64::INFINITY);
        // The receiving side's cap applies to its inbound traffic too; Azure
        // throttles the VM NIC, which is direction-agnostic.
        let rcap = d.egress_cap_mbps.get(&to).copied().unwrap_or(f64::INFINITY);
        base.min(cap).min(rcap)
    }

    /// Modeled one-way latency for a message of `bytes` from `from` to `to`:
    /// half the (jittered) RTT, plus serialization time at the effective
    /// bandwidth, plus any injected delay. No NIC queueing (time-free form).
    pub fn one_way(&self, from: Region, to: Region, bytes: u64) -> SimDuration {
        let rtt_ms = self.topology.read().rtt_ms(from, to);
        let dist = LatencyDist::rtt(rtt_ms / 2.0);
        let prop = if self.jitter {
            dist.sample(&mut self.rng.lock())
        } else {
            SimDuration::from_millis_f64(dist.typical_ms())
        };
        prop + self.transfer_time(from, to, bytes)
            + self.injected_one_way(from, to)
            + self.sampled_jitter(from, to)
    }

    /// Per-message random jitter for injected [`Fabric::set_region_jitter_ms`]
    /// dynamics. Sampled from the fabric RNG even when base-latency jitter is
    /// disabled: injected jitter is an explicit fault, not ambient noise.
    fn sampled_jitter(&self, from: Region, to: Region) -> SimDuration {
        let bound_ms = {
            let d = self.dyn_state.read();
            let mut ms = 0.0;
            if let Some(&j) = d.node_jitter_ms.get(&from) {
                ms += j;
            }
            if to != from {
                if let Some(&j) = d.node_jitter_ms.get(&to) {
                    ms += j;
                }
            }
            ms
        };
        if bound_ms <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_millis_f64(self.rng.lock().gen_range_f64(0.0, bound_ms))
    }

    /// Like [`Fabric::one_way`], but when either endpoint has an egress cap
    /// set, the transfer also queues behind other transfers through that
    /// site's NIC (token-bucket at the capped bandwidth). This is what makes
    /// a throttled Azure VM's *aggregate* throughput respect its cap under
    /// concurrency — the effect Figs. 11/12 measure.
    pub fn one_way_at(&self, from: Region, to: Region, bytes: u64, now: SimInstant) -> SimDuration {
        let base = self.one_way(from, to, bytes);
        // Intra-DC traffic does not traverse the throttled WAN NIC (the
        // paper's client runs on the throttled VM itself).
        if from == to {
            return base;
        }
        let capped_site = {
            let d = self.dyn_state.read();
            [from, to]
                .into_iter()
                .filter(|r| d.egress_cap_mbps.contains_key(r))
                .min_by(|a, b| {
                    let ca = d.egress_cap_mbps[a];
                    let cb = d.egress_cap_mbps[b];
                    ca.total_cmp(&cb)
                })
        };
        let Some(site) = capped_site else { return base };
        let bw = self.effective_bw_mbps(from, to);
        if !bw.is_finite() || bw <= 0.0 || bytes == 0 {
            return base;
        }
        let busy = SimDuration::from_secs_f64(bytes as f64 * 8.0 / (bw * 1e6));
        let mut nic = self.nic_busy_until.lock();
        let nf = nic.entry(site).or_insert(now);
        let start = if *nf > now { *nf } else { now };
        let queue = start - now;
        *nf = start + busy;
        base + queue
    }

    /// Serialization time for `bytes` at the effective bandwidth.
    pub fn transfer_time(&self, from: Region, to: Region, bytes: u64) -> SimDuration {
        let bw = self.effective_bw_mbps(from, to);
        if !bw.is_finite() || bw <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / (bw * 1e6))
    }

    // ---- runtime dynamics -------------------------------------------------

    /// Add `extra` one-way delay to everything touching `site` (Fig. 7's
    /// injected delays). Stacking: a second call replaces the first.
    pub fn inject_node_delay(&self, site: Region, extra: SimDuration) {
        self.dyn_state.write().node_delay.insert(site, extra);
    }

    pub fn clear_node_delay(&self, site: Region) {
        self.dyn_state.write().node_delay.remove(&site);
    }

    /// Add `extra` one-way delay to one link (both directions).
    pub fn inject_link_delay(&self, a: Region, b: Region, extra: SimDuration) {
        self.dyn_state
            .write()
            .link_delay
            .insert(link_key(a, b), extra);
    }

    /// Cut a site off (crash / partition). §4.4 failure handling.
    pub fn set_partitioned(&self, site: Region, cut: bool) {
        self.dyn_state.write().partitioned.insert(site, cut);
    }

    // ---- fault injection (§4.4 / chaos campaigns) -------------------------
    //
    // The public fail/heal API the chaos runner drives. Each call counts into
    // the `net_outages` metric so campaigns can assert faults actually fired.

    fn note_outage(&self, event: &str, site: &str) {
        MetricsRegistry::global().inc("net_outages", &[("event", event), ("site", site)]);
    }

    /// Take a whole site down: nothing in or out (a crashed or isolated DC).
    pub fn fail_node(&self, site: Region) {
        self.set_partitioned(site, true);
        self.note_outage("fail_node", site.name());
    }

    /// Bring a failed site back.
    pub fn heal_node(&self, site: Region) {
        self.set_partitioned(site, false);
        self.note_outage("heal_node", site.name());
    }

    /// Cut just the `a`↔`b` link, leaving both sites reachable from everyone
    /// else — the classic split-brain-inducing WAN partition.
    pub fn partition(&self, a: Region, b: Region) {
        self.dyn_state.write().cut_links.insert(link_key(a, b));
        self.note_outage("partition", &format!("{}-{}", a.name(), b.name()));
    }

    /// Restore a link cut by [`Fabric::partition`].
    pub fn heal_partition(&self, a: Region, b: Region) {
        self.dyn_state.write().cut_links.remove(&link_key(a, b));
        self.note_outage("heal_partition", &format!("{}-{}", a.name(), b.name()));
    }

    /// Add random one-way delay (uniform in `0..ms` per message) to all
    /// traffic touching `site` — the chaos menu's `latency-jitter` fault.
    /// `None` heals. Also cleared by [`Fabric::clear_all_dynamics`].
    pub fn set_region_jitter_ms(&self, site: Region, ms: Option<f64>) {
        let mut d = self.dyn_state.write();
        match ms {
            Some(m) => {
                d.node_jitter_ms.insert(site, m);
                drop(d);
                self.note_outage("jitter", site.name());
            }
            None => {
                d.node_jitter_ms.remove(&site);
                drop(d);
                self.note_outage("heal_jitter", site.name());
            }
        }
    }

    /// Cap a site's NIC bandwidth (Azure VM-size throttling).
    pub fn set_egress_cap_mbps(&self, site: Region, mbps: Option<f64>) {
        let mut d = self.dyn_state.write();
        match mbps {
            Some(m) => d.egress_cap_mbps.insert(site, m),
            None => d.egress_cap_mbps.remove(&site),
        };
    }

    pub fn clear_all_dynamics(&self) {
        *self.dyn_state.write() = Dynamics::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Region::*;

    fn fabric() -> Fabric {
        Fabric::multicloud(42).without_jitter()
    }

    #[test]
    fn one_way_is_half_rtt_for_empty_message() {
        let f = fabric();
        let d = f.one_way(UsEast, EuWest, 0);
        assert_eq!(d, SimDuration::from_millis(40)); // 80ms RTT / 2
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let f = fabric();
        let small = f.one_way(UsEast, EuWest, 1024);
        let big = f.one_way(UsEast, EuWest, 100 * 1024 * 1024);
        assert!(big > small);
        // 100MB at 300 Mbps ≈ 2.8s of serialization.
        let xfer = f.transfer_time(UsEast, EuWest, 100 * 1024 * 1024);
        assert!((xfer.as_secs_f64() - 2.8).abs() < 0.2, "xfer {xfer}");
    }

    #[test]
    fn node_delay_injection_applies_and_clears() {
        let f = fabric();
        let base = f.one_way(UsWest, UsEast, 0);
        f.inject_node_delay(UsWest, SimDuration::from_millis(500));
        let slowed = f.one_way(UsWest, UsEast, 0);
        assert_eq!(slowed, base + SimDuration::from_millis(500));
        // Delay applies to traffic toward the site too.
        let inbound = f.one_way(UsEast, UsWest, 0);
        assert_eq!(inbound, SimDuration::from_millis(35 + 500));
        f.clear_node_delay(UsWest);
        assert_eq!(f.one_way(UsWest, UsEast, 0), base);
    }

    #[test]
    fn link_delay_is_direction_agnostic() {
        let f = fabric();
        f.inject_link_delay(EuWest, AsiaEast, SimDuration::from_millis(100));
        let a = f.one_way(EuWest, AsiaEast, 0);
        let b = f.one_way(AsiaEast, EuWest, 0);
        assert_eq!(a, b);
        assert_eq!(a, SimDuration::from_millis(115 + 100));
        // Unrelated link unaffected.
        assert_eq!(f.one_way(UsEast, UsWest, 0), SimDuration::from_millis(35));
    }

    #[test]
    fn effective_rtt_counts_injection_twice() {
        let f = fabric();
        f.inject_node_delay(AsiaEast, SimDuration::from_millis(300));
        assert_eq!(
            f.effective_rtt(UsEast, AsiaEast),
            SimDuration::from_millis(170 + 600)
        );
    }

    #[test]
    fn partition_blocks_reachability() {
        let f = fabric();
        assert!(f.is_reachable(UsEast, EuWest));
        f.set_partitioned(EuWest, true);
        assert!(!f.is_reachable(UsEast, EuWest));
        assert!(!f.is_reachable(EuWest, UsEast));
        assert!(f.is_reachable(UsEast, UsWest));
        f.set_partitioned(EuWest, false);
        assert!(f.is_reachable(UsEast, EuWest));
    }

    #[test]
    fn egress_cap_lowers_bandwidth_both_directions() {
        let f = fabric();
        let base = f.effective_bw_mbps(UsEast, AzureUsEast);
        assert_eq!(base, 1000.0);
        f.set_egress_cap_mbps(AzureUsEast, Some(100.0));
        assert_eq!(f.effective_bw_mbps(AzureUsEast, UsEast), 100.0);
        assert_eq!(f.effective_bw_mbps(UsEast, AzureUsEast), 100.0);
        f.set_egress_cap_mbps(AzureUsEast, None);
        assert_eq!(f.effective_bw_mbps(AzureUsEast, UsEast), base);
    }

    #[test]
    fn pairwise_partition_cuts_only_that_link() {
        let f = fabric();
        f.partition(UsEast, EuWest);
        assert!(!f.is_reachable(UsEast, EuWest));
        assert!(!f.is_reachable(EuWest, UsEast), "cut is direction-agnostic");
        assert!(f.is_reachable(UsEast, UsWest), "other links stay up");
        assert!(
            f.is_reachable(EuWest, AsiaEast),
            "endpoints are not isolated"
        );
        f.heal_partition(UsEast, EuWest);
        assert!(f.is_reachable(UsEast, EuWest));
    }

    #[test]
    fn fail_node_isolates_site_and_counts_outage() {
        let f = fabric();
        let before = wiera_sim::MetricsRegistry::global()
            .snapshot()
            .counter_sum("net_outages");
        f.fail_node(AsiaEast);
        assert!(!f.is_reachable(AsiaEast, UsEast));
        assert!(!f.is_reachable(EuWest, AsiaEast));
        f.heal_node(AsiaEast);
        assert!(f.is_reachable(AsiaEast, UsEast));
        let after = wiera_sim::MetricsRegistry::global()
            .snapshot()
            .counter_sum("net_outages");
        assert!(after >= before + 2, "fail+heal must both count");
    }

    #[test]
    fn region_jitter_adds_bounded_random_delay_and_heals() {
        let f = fabric(); // base latency jitter off: only injected jitter moves
        let base = f.one_way(UsEast, UsWest, 0);
        f.set_region_jitter_ms(UsWest, Some(200.0));
        let mut max_extra = 0.0f64;
        for _ in 0..100 {
            let d = f.one_way(UsEast, UsWest, 0);
            assert!(d >= base, "jitter only adds delay");
            let extra = d.as_millis_f64() - base.as_millis_f64();
            assert!(extra <= 200.0, "jitter bounded by the configured cap");
            max_extra = max_extra.max(extra);
        }
        assert!(max_extra > 50.0, "jitter actually fires: max {max_extra}ms");
        f.set_region_jitter_ms(UsWest, None);
        assert_eq!(f.one_way(UsEast, UsWest, 0), base, "heal restores base");
    }

    #[test]
    fn clear_all_dynamics_resets_everything() {
        let f = fabric();
        f.inject_node_delay(UsEast, SimDuration::from_millis(50));
        f.set_partitioned(UsWest, true);
        f.partition(UsEast, EuWest);
        f.set_egress_cap_mbps(EuWest, Some(10.0));
        f.set_region_jitter_ms(AsiaEast, Some(500.0));
        f.clear_all_dynamics();
        assert_eq!(
            f.one_way(UsEast, AsiaEast, 0),
            SimDuration::from_millis(85),
            "jitter cleared with the rest of the dynamics"
        );
        assert_eq!(f.one_way(UsEast, UsWest, 0), SimDuration::from_millis(35));
        assert!(f.is_reachable(UsEast, UsWest));
        assert!(f.is_reachable(UsEast, EuWest));
        assert_eq!(f.effective_bw_mbps(EuWest, UsEast), 300.0);
    }

    #[test]
    fn jittered_latency_stays_near_base() {
        let f = Fabric::multicloud(7); // jitter on
        let mut sum = 0.0;
        for _ in 0..200 {
            sum += f.one_way(UsEast, EuWest, 0).as_millis_f64();
        }
        let mean = sum / 200.0;
        assert!((mean - 40.0).abs() < 3.0, "mean one-way {mean}ms");
    }
}

#[cfg(test)]
mod nic_tests {
    use super::*;
    use Region::*;

    #[test]
    fn nic_queue_serializes_capped_site_transfers() {
        let f = Fabric::multicloud(11).without_jitter();
        f.set_egress_cap_mbps(AzureUsEast, Some(80.0));
        let now = SimInstant::EPOCH;
        // 1 MiB at 80 Mbps ≈ 105 ms of serialization per transfer.
        let first = f.one_way_at(AzureUsEast, UsEast, 1 << 20, now);
        let second = f.one_way_at(AzureUsEast, UsEast, 1 << 20, now);
        assert!(
            second.as_millis_f64() > first.as_millis_f64() + 90.0,
            "second transfer must queue: {first} then {second}"
        );
        // Uncapped sites never queue.
        let a = f.one_way_at(UsEast, UsWest, 1 << 20, now);
        let b = f.one_way_at(UsEast, UsWest, 1 << 20, now);
        assert_eq!(a, b);
    }

    #[test]
    fn nic_queue_drains_over_time() {
        let f = Fabric::multicloud(12).without_jitter();
        f.set_egress_cap_mbps(AzureUsEast, Some(80.0));
        let t0 = SimInstant::EPOCH;
        let first = f.one_way_at(AzureUsEast, UsEast, 1 << 20, t0);
        // Much later, the NIC is idle again: same latency as a fresh send.
        let later = t0 + SimDuration::from_secs(10);
        let fresh = f.one_way_at(AzureUsEast, UsEast, 1 << 20, later);
        assert!((fresh.as_millis_f64() - first.as_millis_f64()).abs() < 1.0);
    }
}
