//! Data-placement advisor — the paper's future work, §3.1: "Based on this
//! aggregated information, a data placement manager could generate a
//! dynamic global policy automatically. In this paper we focus on defining
//! different policies, and such automated policy generation is left as
//! future work."
//!
//! This module implements that generation step as a small optimizer:
//!
//! * **Inputs** — what the paper's network and workload monitors aggregate:
//!   per-region request rates (puts/gets), typical object size, the live
//!   RTT matrix from the fabric, and the tier price book.
//! * **Search** — enumerate candidate configurations: primary region ×
//!   replica set (subsets of the regions hosting servers, always covering
//!   the primary) × consistency model.
//! * **Objective** — a weighted sum of expected get latency, expected put
//!   latency, and monthly cost (storage + inter-DC update egress), with
//!   weights expressing the application's desired metric (§3.3.3).
//! * **Output** — a [`PlacementAdvice`] carrying the chosen configuration,
//!   its estimated metrics, and a ready-to-register policy: the model's
//!   insert rule from [`wiera_policy::canned`] rendered over the chosen
//!   regions by [`wiera_policy::canned::policy_over`], then parsed and
//!   compiled like any user policy.

use wiera_net::{Fabric, Region};
use wiera_policy::{canned, ConsistencyModel, PolicyError, PolicySpec};
use wiera_tiers::{CostSpec, TierKind};

/// Aggregated observations for one region (what the workload monitor sees).
#[derive(Debug, Clone, Copy)]
pub struct RegionLoad {
    pub region: Region,
    /// Application puts per second originating here.
    pub puts_per_sec: f64,
    /// Application gets per second originating here.
    pub gets_per_sec: f64,
}

/// What the application wants optimized (the §3.3.3 "desired metrics").
#[derive(Debug, Clone, Copy)]
pub struct MetricWeights {
    /// Dollar-per-millisecond weight on mean get latency.
    pub get_latency: f64,
    /// Dollar-per-millisecond weight on mean put latency.
    pub put_latency: f64,
    /// Weight on monthly dollars (1.0 = count cost at face value).
    pub cost: f64,
    /// Require at least this many replicas (fault tolerance floor).
    pub min_replicas: usize,
    /// Require strong consistency (e.g. the paper's banking example).
    pub require_strong: bool,
}

impl Default for MetricWeights {
    fn default() -> Self {
        MetricWeights {
            get_latency: 1.0,
            put_latency: 0.5,
            cost: 1.0,
            min_replicas: 1,
            require_strong: false,
        }
    }
}

/// The advisor's output.
#[derive(Debug, Clone)]
pub struct PlacementAdvice {
    pub primary: Region,
    pub replicas: Vec<Region>,
    pub consistency: ConsistencyModel,
    pub est_get_ms: f64,
    pub est_put_ms: f64,
    pub est_monthly_cost: f64,
    pub score: f64,
}

impl PlacementAdvice {
    /// Generate the policy this advice describes, in the paper's notation:
    /// `Memcached` and `EBS-SSD` tiers of the given sizes (an empty size
    /// leaves the tier provider-managed) in every chosen region. A size
    /// that is not a size, or that breaks the text, is an error.
    pub fn to_policy(
        &self,
        name: &str,
        memory_size: &str,
        disk_size: &str,
    ) -> Result<PolicySpec, PolicyError> {
        let regions: Vec<(&str, bool)> = self
            .replicas
            .iter()
            .map(|&r| (r.name(), r == self.primary))
            .collect();
        let body = match self.consistency {
            ConsistencyModel::MultiPrimaries => canned::MULTI_PRIMARIES_BODY,
            ConsistencyModel::PrimaryBackup { sync: true } => canned::PRIMARY_BACKUP_SYNC_BODY,
            ConsistencyModel::PrimaryBackup { sync: false } => canned::PRIMARY_BACKUP_ASYNC_BODY,
            ConsistencyModel::Eventual => canned::EVENTUAL_BODY,
        };
        let tiers = [("Memcached", memory_size), ("EBS-SSD", disk_size)];
        let spec = wiera_policy::parse(&canned::policy_over(name, &regions, &tiers, body))?;
        wiera_policy::compile(&spec)?;
        Ok(spec)
    }
}

/// Parameters of the estimation model.
#[derive(Debug, Clone)]
pub struct AdvisorConfig {
    /// Candidate regions (those with Tiera servers available).
    pub candidate_regions: Vec<Region>,
    /// Dataset size held per replica, GB (for storage cost).
    pub dataset_gb: f64,
    /// Typical object size, bytes (for update egress cost).
    pub object_bytes: f64,
    /// Tier the dataset lives on (for pricing).
    pub tier: TierKind,
    /// Where the lock coordinator lives (multi-primaries puts pay this RTT).
    pub coordinator: Region,
}

/// Expected one-way data-path latency components, from live fabric RTTs.
fn rtt(fabric: &Fabric, a: Region, b: Region) -> f64 {
    fabric.effective_rtt(a, b).as_millis_f64()
}

/// Mean get latency: every region reads from its nearest replica.
fn est_get_ms(fabric: &Fabric, loads: &[RegionLoad], replicas: &[Region]) -> f64 {
    let total: f64 = loads.iter().map(|l| l.gets_per_sec).sum();
    if total <= 0.0 {
        return 0.0;
    }
    loads
        .iter()
        .map(|l| {
            let nearest = replicas
                .iter()
                .map(|&r| rtt(fabric, l.region, r))
                .fold(f64::INFINITY, f64::min);
            l.gets_per_sec * (nearest + 1.0) // +1ms local tier access
        })
        .sum::<f64>()
        / total
}

/// Mean put latency under a consistency model.
fn est_put_ms(
    fabric: &Fabric,
    loads: &[RegionLoad],
    replicas: &[Region],
    primary: Region,
    consistency: ConsistencyModel,
    coordinator: Region,
) -> f64 {
    let total: f64 = loads.iter().map(|l| l.puts_per_sec).sum();
    if total <= 0.0 {
        return 0.0;
    }
    loads
        .iter()
        .map(|l| {
            let per_put = match consistency {
                ConsistencyModel::MultiPrimaries => {
                    // Lock RTT to the coordinator + slowest replica RTT from
                    // the writer's nearest replica.
                    let entry = replicas
                        .iter()
                        .map(|&r| rtt(fabric, l.region, r))
                        .fold(f64::INFINITY, f64::min);
                    let nearest = replicas
                        .iter()
                        .copied()
                        .min_by(|&a, &b| {
                            rtt(fabric, l.region, a).total_cmp(&rtt(fabric, l.region, b))
                        })
                        .unwrap_or(primary);
                    let lock = rtt(fabric, nearest, coordinator);
                    let bcast = replicas
                        .iter()
                        .map(|&r| rtt(fabric, nearest, r))
                        .fold(0.0f64, f64::max);
                    entry + lock + bcast + 2.0
                }
                ConsistencyModel::PrimaryBackup { sync } => {
                    let fwd = rtt(fabric, l.region, primary);
                    let bcast = if sync {
                        replicas
                            .iter()
                            .map(|&r| rtt(fabric, primary, r))
                            .fold(0.0f64, f64::max)
                    } else {
                        0.0
                    };
                    fwd + bcast + 2.0
                }
                ConsistencyModel::Eventual => {
                    // Local write at the nearest replica.
                    replicas
                        .iter()
                        .map(|&r| rtt(fabric, l.region, r))
                        .fold(f64::INFINITY, f64::min)
                        + 2.0
                }
            };
            l.puts_per_sec * per_put
        })
        .sum::<f64>()
        / total
}

/// Monthly cost: per-replica storage + inter-DC replication egress.
fn est_cost(cfg: &AdvisorConfig, loads: &[RegionLoad], replicas: &[Region]) -> f64 {
    let prices = CostSpec::of(cfg.tier);
    let storage = prices.monthly_storage(cfg.dataset_gb) * replicas.len() as f64;
    let puts_per_sec: f64 = loads.iter().map(|l| l.puts_per_sec).sum();
    // Every put ships the object to every other replica once.
    let egress_gb_month = puts_per_sec
        * cfg.object_bytes
        * (replicas.len().saturating_sub(1)) as f64
        * 2_628_000.0 // seconds per month
        / 1e9;
    storage + egress_gb_month * prices.egress_inter_dc_gb
}

/// Enumerate configurations and return the best advice (and, optionally,
/// the ranked alternatives for inspection).
pub fn advise(
    fabric: &Fabric,
    loads: &[RegionLoad],
    weights: &MetricWeights,
    cfg: &AdvisorConfig,
) -> Option<PlacementAdvice> {
    let mut best: Option<PlacementAdvice> = None;
    let n = cfg.candidate_regions.len();
    if n == 0 || n > 16 {
        return None;
    }
    let consistencies: &[ConsistencyModel] = if weights.require_strong {
        &[
            ConsistencyModel::MultiPrimaries,
            ConsistencyModel::PrimaryBackup { sync: true },
        ]
    } else {
        &[
            ConsistencyModel::MultiPrimaries,
            ConsistencyModel::PrimaryBackup { sync: true },
            ConsistencyModel::PrimaryBackup { sync: false },
            ConsistencyModel::Eventual,
        ]
    };
    // All non-empty subsets of candidate regions.
    for mask in 1u32..(1 << n) {
        let replicas: Vec<Region> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| cfg.candidate_regions[i])
            .collect();
        if replicas.len() < weights.min_replicas {
            continue;
        }
        for &primary in &replicas {
            for &consistency in consistencies {
                // Non-primary protocols don't distinguish primaries; skip
                // duplicate configurations.
                if !matches!(consistency, ConsistencyModel::PrimaryBackup { .. })
                    && primary != replicas[0]
                {
                    continue;
                }
                let get_ms = est_get_ms(fabric, loads, &replicas);
                let put_ms = est_put_ms(
                    fabric,
                    loads,
                    &replicas,
                    primary,
                    consistency,
                    cfg.coordinator,
                );
                let cost = est_cost(cfg, loads, &replicas);
                let score = weights.get_latency * get_ms
                    + weights.put_latency * put_ms
                    + weights.cost * cost;
                if best.as_ref().map(|b| score < b.score).unwrap_or(true) {
                    best = Some(PlacementAdvice {
                        primary,
                        replicas: replicas.clone(),
                        consistency,
                        est_get_ms: get_ms,
                        est_put_ms: put_ms,
                        est_monthly_cost: cost,
                        score,
                    });
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiera_net::Fabric;

    fn fabric() -> Fabric {
        Fabric::multicloud(1).without_jitter()
    }

    fn loads(asia: f64, eu: f64, us: f64) -> Vec<RegionLoad> {
        vec![
            RegionLoad {
                region: Region::AsiaEast,
                puts_per_sec: asia * 0.05,
                gets_per_sec: asia,
            },
            RegionLoad {
                region: Region::EuWest,
                puts_per_sec: eu * 0.05,
                gets_per_sec: eu,
            },
            RegionLoad {
                region: Region::UsWest,
                puts_per_sec: us * 0.05,
                gets_per_sec: us,
            },
        ]
    }

    fn base_cfg() -> AdvisorConfig {
        AdvisorConfig {
            candidate_regions: vec![Region::AsiaEast, Region::EuWest, Region::UsWest],
            dataset_gb: 10.0,
            object_bytes: 1024.0,
            tier: TierKind::EbsSsd,
            coordinator: Region::UsEast,
        }
    }

    #[test]
    fn traffic_concentration_pulls_the_primary() {
        let f = fabric();
        // Everything happens in Asia: the advisor must put the primary (or
        // sole replica) there.
        let advice = advise(
            &f,
            &loads(100.0, 1.0, 1.0),
            &MetricWeights {
                require_strong: true,
                ..Default::default()
            },
            &base_cfg(),
        )
        .unwrap();
        assert_eq!(advice.primary, Region::AsiaEast, "{advice:?}");
    }

    #[test]
    fn latency_weight_buys_more_replicas() {
        let f = fabric();
        let spread = loads(50.0, 50.0, 50.0);
        let cheap = advise(
            &f,
            &spread,
            &MetricWeights {
                get_latency: 0.01,
                put_latency: 0.01,
                cost: 10.0,
                ..Default::default()
            },
            &base_cfg(),
        )
        .unwrap();
        let fast = advise(
            &f,
            &spread,
            &MetricWeights {
                get_latency: 10.0,
                put_latency: 1.0,
                cost: 0.01,
                ..Default::default()
            },
            &base_cfg(),
        )
        .unwrap();
        assert!(
            cheap.replicas.len() < fast.replicas.len(),
            "{cheap:?} vs {fast:?}"
        );
        assert_eq!(
            fast.replicas.len(),
            3,
            "latency-weighted: replica everywhere"
        );
        assert_eq!(cheap.replicas.len(), 1, "cost-weighted: single replica");
        assert!(fast.est_get_ms < cheap.est_get_ms);
        assert!(fast.est_monthly_cost > cheap.est_monthly_cost);
    }

    #[test]
    fn strong_requirement_excludes_eventual() {
        let f = fabric();
        let advice = advise(
            &f,
            &loads(10.0, 10.0, 10.0),
            &MetricWeights {
                require_strong: true,
                min_replicas: 2,
                ..Default::default()
            },
            &base_cfg(),
        )
        .unwrap();
        assert!(!matches!(advice.consistency, ConsistencyModel::Eventual));
        assert!(advice.replicas.len() >= 2);
    }

    #[test]
    fn min_replicas_floor_is_respected() {
        let f = fabric();
        let advice = advise(
            &f,
            &loads(10.0, 1.0, 1.0),
            &MetricWeights {
                cost: 100.0,
                min_replicas: 3,
                ..Default::default()
            },
            &base_cfg(),
        )
        .unwrap();
        assert_eq!(
            advice.replicas.len(),
            3,
            "cost pressure cannot go below the floor"
        );
    }

    #[test]
    fn advice_round_trips_into_a_deployable_policy() {
        let f = fabric();
        let advice = advise(
            &f,
            &loads(10.0, 80.0, 10.0),
            &MetricWeights {
                require_strong: true,
                min_replicas: 2,
                ..Default::default()
            },
            &base_cfg(),
        )
        .unwrap();
        let figures = [
            (
                ConsistencyModel::MultiPrimaries,
                canned::MULTI_PRIMARIES_CONSISTENCY,
            ),
            (
                ConsistencyModel::PrimaryBackup { sync: true },
                canned::PRIMARY_BACKUP_CONSISTENCY,
            ),
            (
                ConsistencyModel::PrimaryBackup { sync: false },
                canned::PRIMARY_BACKUP_ASYNC,
            ),
            (ConsistencyModel::Eventual, canned::EVENTUAL_CONSISTENCY),
        ];
        for (model, figure) in figures {
            let advice = PlacementAdvice {
                consistency: model,
                ..advice.clone()
            };
            let policy = advice.to_policy("AdvisedPolicy", "1G", "10G").unwrap();
            let compiled = wiera_policy::compile(&policy).unwrap();
            assert_eq!(compiled.consistency, Some(model));
            let sites: Vec<(String, bool)> = advice
                .replicas
                .iter()
                .map(|&r| (r.name().to_string(), r == advice.primary))
                .collect();
            let compiled_sites: Vec<(String, bool)> = compiled
                .regions
                .iter()
                .map(|r| (r.region_name.clone(), r.primary))
                .collect();
            assert_eq!(compiled_sites, sites);
            // The insert rule is the paper figure's own.
            let paper = wiera_policy::compile(&wiera_policy::parse(figure).unwrap()).unwrap();
            assert_eq!(compiled.rules, paper.rules, "{model}");
            let diags = wiera_policy::analyze(&policy);
            assert!(diags.is_empty(), "{model}: {diags:?}");
            // And the generated DSL text prints and parses back.
            let printed = policy.to_string();
            assert_eq!(wiera_policy::parse(&printed).unwrap(), policy);
        }
    }

    #[test]
    fn malformed_tier_sizes_are_errors_and_empty_ones_are_provider_managed() {
        let advice = PlacementAdvice {
            primary: Region::UsEast,
            replicas: vec![Region::UsEast, Region::EuWest],
            consistency: ConsistencyModel::Eventual,
            est_get_ms: 0.0,
            est_put_ms: 0.0,
            est_monthly_cost: 0.0,
            score: 0.0,
        };
        let err = advice.to_policy("P", "lots", "10G").unwrap_err();
        assert!(err.message.contains("size not numeric"), "{err}");
        assert!(advice.to_policy("P", "1G}", "10G").is_err());

        let policy = advice.to_policy("P", "", "10G").unwrap();
        for r in wiera_policy::compile(&policy).unwrap().regions {
            let sizes: Vec<u64> = r.instance.tiers.iter().map(|t| t.size_bytes).collect();
            assert_eq!(sizes, [0, 10 << 30]);
        }
    }

    #[test]
    fn live_rtts_shift_the_advice() {
        // Degrade the Asia links: the advisor (reading effective RTTs, like
        // the network monitor) moves the primary toward the healthy regions
        // even though Asia has slightly more traffic.
        let f = fabric();
        let weights = MetricWeights {
            require_strong: true,
            min_replicas: 1,
            ..Default::default()
        };
        // Asia dominates the traffic, so it wins placement while healthy.
        let l = loads(80.0, 10.0, 10.0);
        let before = advise(&f, &l, &weights, &base_cfg()).unwrap();
        assert_eq!(before.primary, Region::AsiaEast);
        f.inject_node_delay(Region::AsiaEast, wiera_sim::SimDuration::from_millis(500));
        let after = advise(&f, &l, &weights, &base_cfg()).unwrap();
        assert_ne!(after.primary, Region::AsiaEast, "{after:?}");
    }
}
