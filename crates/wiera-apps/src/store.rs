//! [`KvStore`] adapters over raw simulated tiers — the "no Wiera"
//! baselines of §5.4.
//!
//! [`KvStore`]: wiera_workload::KvStore

use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use wiera_sim::{SharedClock, SimDuration};
use wiera_tiers::{SimTier, TierError};
use wiera_workload::{KvError, KvStore, OpSample};

fn tier_err(e: TierError) -> KvError {
    match e {
        TierError::NotFound => KvError::not_found(e.to_string()),
        other => KvError::other(other.to_string()),
    }
}

/// A KvStore directly over one simulated storage tier — e.g. "Azure's local
/// disk without Wiera" (§5.4.1).
pub struct TierStore {
    tier: Arc<SimTier>,
    versions: Mutex<HashMap<String, u64>>,
    /// When set, each op sleeps its modeled latency on this clock — so
    /// wall-modeled time tracks the workload and the tier's IOPS token
    /// bucket observes the true demand.
    pace: Option<SharedClock>,
}

impl TierStore {
    pub fn new(tier: Arc<SimTier>) -> Arc<Self> {
        Arc::new(TierStore {
            tier,
            versions: Mutex::new(HashMap::new()),
            pace: None,
        })
    }

    pub fn paced(tier: Arc<SimTier>, clock: SharedClock) -> Arc<Self> {
        Arc::new(TierStore {
            tier,
            versions: Mutex::new(HashMap::new()),
            pace: Some(clock),
        })
    }

    fn maybe_sleep(&self, d: SimDuration) {
        if let Some(c) = &self.pace {
            c.sleep(d);
        }
    }
}

impl KvStore for TierStore {
    fn kv_put(&self, key: &str, value: Bytes) -> Result<OpSample, KvError> {
        let latency = self.tier.put(key, value).map_err(tier_err)?;
        self.maybe_sleep(latency);
        let mut v = self.versions.lock();
        let e = v.entry(key.to_string()).or_insert(0);
        *e += 1;
        Ok(OpSample {
            latency,
            version: *e,
        })
    }

    fn kv_get(&self, key: &str) -> Result<OpSample, KvError> {
        let (_, latency) = self.tier.get(key).map_err(tier_err)?;
        self.maybe_sleep(latency);
        let version = self.versions.lock().get(key).copied().unwrap_or(0);
        Ok(OpSample { latency, version })
    }

    fn kv_get_value(&self, key: &str) -> Result<(Bytes, OpSample), KvError> {
        let (data, latency) = self.tier.get(key).map_err(tier_err)?;
        self.maybe_sleep(latency);
        let version = self.versions.lock().get(key).copied().unwrap_or(0);
        Ok((data, OpSample { latency, version }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiera_sim::ManualClock;
    use wiera_tiers::{TierKind, TierSpec};

    #[test]
    fn roundtrip_and_versions() {
        let tier = SimTier::new(
            TierSpec::of(TierKind::EbsSsd),
            1 << 20,
            ManualClock::new(),
            1,
        );
        let s = TierStore::new(tier);
        let p1 = s.kv_put("k", Bytes::from_static(b"a")).unwrap();
        let p2 = s.kv_put("k", Bytes::from_static(b"b")).unwrap();
        assert_eq!(p1.version, 1);
        assert_eq!(p2.version, 2);
        let (data, g) = s.kv_get_value("k").unwrap();
        assert_eq!(data.as_ref(), b"b");
        assert_eq!(g.version, 2);
        assert!(s.kv_get("missing").is_err());
    }
}
