//! Cloud pricing — Table 4 and the §5.3 cost arithmetic.
//!
//! Prices are the paper's Table 4 (AWS US-East, 2016) plus the Glacier and
//! ElastiCache prices the text alludes to. All rates are US dollars.

use crate::kind::TierKind;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use wiera_sim::SimInstant;

/// Hours in a billing month (AWS convention ≈ 730).
pub const HOURS_PER_MONTH: f64 = 730.0;

/// Price book entry for one tier kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostSpec {
    /// $/GB-month of provisioned or stored data.
    pub storage_gb_month: f64,
    /// $ per 10,000 put requests.
    pub put_per_10k: f64,
    /// $ per 10,000 get requests.
    pub get_per_10k: f64,
    /// $/GB of traffic leaving the cloud to the Internet.
    pub egress_internet_gb: f64,
    /// $/GB of traffic between DCs of the same provider ("$0.02 between AWS").
    pub egress_inter_dc_gb: f64,
    /// $/hour for instance-based services (ElastiCache nodes).
    pub node_hour: f64,
}

impl CostSpec {
    /// Table 4 prices (AWS US-East) with the text's additions.
    pub fn of(kind: TierKind) -> CostSpec {
        let (storage, put10k, get10k, node_hour) = match kind {
            // ElastiCache cache.t2.micro-class node.
            TierKind::Memcached => (0.0, 0.0, 0.0, 0.017),
            TierKind::EbsSsd => (0.10, 0.0, 0.0, 0.0),
            TierKind::EbsHdd => (0.05, 0.0005, 0.0005, 0.0),
            TierKind::S3 => (0.03, 0.05, 0.004, 0.0),
            TierKind::S3Ia => (0.0125, 0.10, 0.01, 0.0),
            TierKind::Glacier => (0.007, 0.05, 0.004, 0.0),
            TierKind::AzureDisk => (0.10, 0.0, 0.0, 0.0),
            TierKind::AzureBlob => (0.024, 0.05, 0.004, 0.0),
        };
        CostSpec {
            storage_gb_month: storage,
            put_per_10k: put10k,
            get_per_10k: get10k,
            egress_internet_gb: 0.09,
            egress_inter_dc_gb: 0.02,
            node_hour,
        }
    }

    /// Monthly cost of holding `gb` gigabytes in this tier.
    pub fn monthly_storage(&self, gb: f64) -> f64 {
        self.storage_gb_month * gb
    }

    pub fn request_cost(&self, puts: u64, gets: u64) -> f64 {
        self.put_per_10k * puts as f64 / 10_000.0 + self.get_per_10k * gets as f64 / 10_000.0
    }
}

/// One row of the regenerated Table 4.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PriceRow {
    pub tier: TierKind,
    pub storage_gb_month: f64,
    pub put_per_10k: f64,
    pub get_per_10k: f64,
    pub network_within_dc_gb: f64,
    pub network_to_internet_gb: f64,
}

/// Regenerate Table 4 (the four tiers the paper tabulates).
pub fn price_table() -> Vec<PriceRow> {
    [
        TierKind::EbsSsd,
        TierKind::EbsHdd,
        TierKind::S3,
        TierKind::S3Ia,
    ]
    .into_iter()
    .map(|tier| {
        let c = CostSpec::of(tier);
        PriceRow {
            tier,
            storage_gb_month: c.storage_gb_month,
            put_per_10k: c.put_per_10k,
            get_per_10k: c.get_per_10k,
            network_within_dc_gb: 0.0,
            network_to_internet_gb: c.egress_internet_gb,
        }
    })
    .collect()
}

/// Accumulated usage for one tier instance, integrated over modeled time.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Usage {
    pub gb_hours: f64,
    pub puts: u64,
    pub gets: u64,
    pub egress_internet_bytes: u64,
    pub egress_inter_dc_bytes: u64,
    pub node_hours: f64,
}

/// Thread-safe usage meter. The backend reports byte-holdings over time and
/// request counts; the replication layer reports egress.
pub struct CostMeter {
    state: Mutex<MeterState>,
    /// Gets counted outside the lock: a read has nothing else to meter.
    gets: AtomicU64,
}

struct MeterState {
    usage: Usage,
    current_bytes: u64,
    last_at: SimInstant,
}

impl CostMeter {
    pub fn new(start: SimInstant) -> Self {
        CostMeter {
            state: Mutex::new(MeterState {
                usage: Usage::default(),
                current_bytes: 0,
                last_at: start,
            }),
            gets: AtomicU64::new(0),
        }
    }

    fn integrate(s: &mut MeterState, now: SimInstant) {
        let dt_hours = now.elapsed_since(s.last_at).as_secs_f64() / 3600.0;
        s.usage.gb_hours += s.current_bytes as f64 / 1e9 * dt_hours;
        s.usage.node_hours += dt_hours;
        s.last_at = now;
    }

    /// Record that the tier now holds `bytes` (integrates the previous level
    /// over the elapsed modeled time first).
    pub fn set_bytes(&self, bytes: u64, now: SimInstant) {
        let mut s = self.state.lock();
        Self::integrate(&mut s, now);
        s.current_bytes = bytes;
    }

    /// Count one put after which the tier holds `bytes`: the request and
    /// [`CostMeter::set_bytes`] under one lock hold.
    pub fn note_put(&self, bytes: u64, now: SimInstant) {
        let mut s = self.state.lock();
        Self::integrate(&mut s, now);
        s.current_bytes = bytes;
        s.usage.puts += 1;
    }

    pub fn note_get(&self) {
        self.gets.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_egress(&self, bytes: u64, to_internet: bool) {
        let mut s = self.state.lock();
        if to_internet {
            s.usage.egress_internet_bytes += bytes;
        } else {
            s.usage.egress_inter_dc_bytes += bytes;
        }
    }

    /// Snapshot usage up to `now`.
    pub fn usage(&self, now: SimInstant) -> Usage {
        let mut s = self.state.lock();
        Self::integrate(&mut s, now);
        Usage {
            gets: self.gets.load(Ordering::Relaxed),
            ..s.usage.clone()
        }
    }

    /// Bill the accumulated usage against a price book entry.
    pub fn report(&self, spec: &CostSpec, now: SimInstant) -> CostReport {
        let u = self.usage(now);
        CostReport::from_usage(&u, spec)
    }
}

/// A bill: dollars per component plus the projected monthly run-rate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostReport {
    pub storage: f64,
    pub requests: f64,
    pub egress: f64,
    pub nodes: f64,
    pub total: f64,
    /// Total extrapolated to a 730-hour month at the observed run-rate.
    pub monthly_run_rate: f64,
    pub elapsed_hours: f64,
}

impl CostReport {
    pub fn from_usage(u: &Usage, spec: &CostSpec) -> CostReport {
        let storage = u.gb_hours / HOURS_PER_MONTH * spec.storage_gb_month;
        let requests = spec.request_cost(u.puts, u.gets);
        let egress = u.egress_internet_bytes as f64 / 1e9 * spec.egress_internet_gb
            + u.egress_inter_dc_bytes as f64 / 1e9 * spec.egress_inter_dc_gb;
        let nodes = u.node_hours * spec.node_hour;
        let total = storage + requests + egress + nodes;
        let monthly = if u.node_hours > 0.0 {
            total / u.node_hours * HOURS_PER_MONTH
        } else {
            0.0
        };
        CostReport {
            storage,
            requests,
            egress,
            nodes,
            total,
            monthly_run_rate: monthly,
            elapsed_hours: u.node_hours,
        }
    }
}

/// Pure arithmetic behind §5.3: cost of keeping `gb` in `kind` for a month.
pub fn monthly_cost_gb(kind: TierKind, gb: f64) -> f64 {
    CostSpec::of(kind).monthly_storage(gb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiera_sim::SimDuration;

    #[test]
    fn table4_values_match_paper() {
        let t = price_table();
        let row = |k: TierKind| t.iter().find(|r| r.tier == k).unwrap().clone();
        let ssd = row(TierKind::EbsSsd);
        assert_eq!(ssd.storage_gb_month, 0.10);
        assert_eq!(ssd.put_per_10k, 0.0);
        let hdd = row(TierKind::EbsHdd);
        assert_eq!(hdd.storage_gb_month, 0.05);
        assert_eq!(hdd.put_per_10k, 0.0005);
        let s3 = row(TierKind::S3);
        assert_eq!(s3.storage_gb_month, 0.03);
        assert_eq!(s3.put_per_10k, 0.05);
        assert_eq!(s3.get_per_10k, 0.004);
        let ia = row(TierKind::S3Ia);
        assert_eq!(ia.storage_gb_month, 0.0125);
        assert_eq!(ia.put_per_10k, 0.10);
        assert_eq!(ia.get_per_10k, 0.01);
        for r in &t {
            assert_eq!(r.network_within_dc_gb, 0.0);
            assert_eq!(r.network_to_internet_gb, 0.09);
        }
    }

    /// §5.3: moving 8 TB of a 10 TB dataset from EBS to S3-IA saves ≈$700/mo
    /// (SSD) or ≈$300/mo (HDD) per instance.
    #[test]
    fn sec53_savings_arithmetic() {
        let cold_gb = 8000.0;
        let ssd_saving =
            monthly_cost_gb(TierKind::EbsSsd, cold_gb) - monthly_cost_gb(TierKind::S3Ia, cold_gb);
        let hdd_saving =
            monthly_cost_gb(TierKind::EbsHdd, cold_gb) - monthly_cost_gb(TierKind::S3Ia, cold_gb);
        assert!((ssd_saving - 700.0).abs() < 1.0, "ssd saving {ssd_saving}");
        assert!((hdd_saving - 300.0).abs() < 1.0, "hdd saving {hdd_saving}");
        // Dropping one 8 TB S3-IA replica saves ≈$100/region.
        let replica = monthly_cost_gb(TierKind::S3Ia, cold_gb);
        assert!((replica - 100.0).abs() < 1.0, "replica {replica}");
    }

    #[test]
    fn meter_integrates_storage_over_time() {
        let t0 = SimInstant::EPOCH;
        let m = CostMeter::new(t0);
        m.set_bytes(100e9 as u64, t0); // 100 GB from t0
        let now = t0 + SimDuration::from_hours(730);
        let u = m.usage(now);
        assert!((u.gb_hours - 100.0 * 730.0).abs() < 1.0);
        let spec = CostSpec::of(TierKind::EbsSsd);
        let bill = CostReport::from_usage(&u, &spec);
        assert!(
            (bill.storage - 10.0).abs() < 0.01,
            "100GB-month of SSD = $10, got {}",
            bill.storage
        );
    }

    #[test]
    fn meter_request_and_egress_billing() {
        let t0 = SimInstant::EPOCH;
        let m = CostMeter::new(t0);
        for _ in 0..20_000 {
            m.note_put(0, t0);
        }
        for _ in 0..10_000 {
            m.note_get();
        }
        m.note_egress(5e9 as u64, true);
        m.note_egress(10e9 as u64, false);
        let spec = CostSpec::of(TierKind::S3);
        let bill = m.report(&spec, t0 + SimDuration::from_hours(1));
        assert!((bill.requests - (2.0 * 0.05 + 0.004)).abs() < 1e-9);
        assert!((bill.egress - (5.0 * 0.09 + 10.0 * 0.02)).abs() < 1e-9);
    }

    #[test]
    fn meter_level_changes_integrate_piecewise() {
        let t0 = SimInstant::EPOCH;
        let m = CostMeter::new(t0);
        m.set_bytes(10e9 as u64, t0);
        m.set_bytes(20e9 as u64, t0 + SimDuration::from_hours(10));
        let u = m.usage(t0 + SimDuration::from_hours(20));
        // 10 GB for 10 h + 20 GB for 10 h = 300 GB-hours.
        assert!((u.gb_hours - 300.0).abs() < 0.5, "{}", u.gb_hours);
    }

    #[test]
    fn memcached_bills_by_node_hour() {
        let t0 = SimInstant::EPOCH;
        let m = CostMeter::new(t0);
        let spec = CostSpec::of(TierKind::Memcached);
        let bill = m.report(&spec, t0 + SimDuration::from_hours(100));
        assert!((bill.nodes - 1.7).abs() < 0.01);
        assert_eq!(bill.storage, 0.0);
    }
}
