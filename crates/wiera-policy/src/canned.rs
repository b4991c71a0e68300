//! The paper's policy figures, verbatim (modulo figure typos, which the
//! parser/compiler also accept), as a named registry.
//!
//! Applications launch these by id through the Wiera API, exactly as §3.3
//! envisions: `startInstances(instance_id, policy)`.
//!
//! Each protocol's insert rule (Figs. 3(a), 3(b), 4) is written once, as a
//! `*_BODY` constant the figure text embeds. [`policy_over`], the one
//! renderer of a region list, puts a body over any regions; the Wiera test
//! harness, the placement advisor and `wiera-check` generate through it.

macro_rules! multi_primaries_body {
    () => {
        r#"
   event(insert.into) : response {
      lock(what:insert.key)
      store(what:insert.object, to:local_instance)
      copy(what:insert.object, to:all_regions)
      release(what:insert.key)
   }"#
    };
}

/// `$propagate` is `copy` (synchronous) or `queue` (asynchronous).
macro_rules! primary_backup_body {
    ($propagate:literal) => {
        concat!(
            r#"
   event(insert.into) : response {
      if(local_instance.isPrimary == True)
         store(what:insert.object, to:local_instance)
         "#,
            $propagate,
            r#"(what:insert.object, to:all_regions)
      else
         forward(what:insert.object, to:primary_instance)
   }"#
        )
    };
}

macro_rules! eventual_body {
    () => {
        r#"
   event(insert.into) : response {
      store(what:insert.oject, to:local_instance)
      queue(what:insert.object, to:all_regions)
   }"#
    };
}

/// Fig. 3(a)'s insert rule: global lock, local store, synchronous broadcast.
pub const MULTI_PRIMARIES_BODY: &str = multi_primaries_body!();
/// Fig. 3(b)'s insert rule: forward to the primary, which broadcasts
/// synchronously.
pub const PRIMARY_BACKUP_SYNC_BODY: &str = primary_backup_body!("copy");
/// Fig. 3(b)'s insert rule with `queue` propagation (§3.3.1, §5.2).
pub const PRIMARY_BACKUP_ASYNC_BODY: &str = primary_backup_body!("queue");
/// Fig. 4's insert rule: local store, queued distribution.
pub const EVENTUAL_BODY: &str = eventual_body!();

/// Fig. 1(a): write-back local policy — memory first, flushed to disk on a
/// timer.
pub const LOW_LATENCY_INSTANCE: &str = r#"
Tiera LowLatencyInstance(time t) {
   % two tiers specified with initial sizes
   tier1: {name: Memcached, size: 5G};
   tier2: {name: EBS, size: 5G};
   % action event defined to always store data into Memcached
   event(insert.into) : response {
      insert.object.dirty = true;
      store(what:insert.object, to:tier1);
   }
   % write back policy: copying data to persistent store on a timer event
   event(time=t) : response {
      copy(what: object.location == tier1 && object.dirty == true, to:tier2);
   }
}
"#;

/// Fig. 1(b): write-through local policy with a capacity-triggered backup
/// to S3.
pub const PERSISTENT_INSTANCE: &str = r#"
Tiera PersistentInstance(time t) {
   tier1: {name: Memcached, size: 5G};
   tier2: {name: EBS, size: 5G};
   tier3: {name: S3, size: 10G};
   % write-through policy using action event data and copy response
   event(insert.into == tier1) : response {
      copy(what:insert.object, to:tier2);
   }
   % simple backup policy
   event(tier2.filled == 50%) : response {
      copy(what:object.location == tier2, to:tier3, bandwidth:40KB/s);
   }
}
"#;

/// Fig. 3(a): multiple primaries — global lock + synchronous broadcast.
pub const MULTI_PRIMARIES_CONSISTENCY: &str = concat!(
    r#"
Wiera MultiPrimariesConsistency() {
   Region1 = {name:LowLatencyInstance, region:US-West,
      tier1 = {name:LocalMemory, size=5G},
      tier2 = {name:LocalDisk, size=5G} }
   Region2 = {name:LowLatencyInstance, region:US-East,
      tier1 = {name:LocalMemory, size=5G},
      tier2 = {name:LocalDisk, size=5G} }
   Region3 = {name:LowLatencyInstance, region:EU-West,
      tier1 = {name:LocalMemory, size=5G},
      tier2 = {name:LocalDisk, size=5G} }
   %MultiPrimaries Consistency"#,
    multi_primaries_body!(),
    "\n}\n"
);

/// Fig. 3(b): primary-backup — non-primaries forward to the primary, which
/// broadcasts synchronously.
pub const PRIMARY_BACKUP_CONSISTENCY: &str = concat!(
    r#"
Wiera PrimaryBackupConsistency() {
   % Primary instance is running on Region1
   Region1 = {name:LowLatencyInstance, region:US-West, primary:True,
      tier1 = {name:LocalMemory, size=5G},
      tier2 = {name:LocalDisk, size=5G} }
   Region2 = {name:LowLatencyInstance, region:US-East,
      tier1 = {name:LocalMemory, size=5G},
      tier2 = {name:LocalDisk, size=5G} }
   Region3 = {name:LowLatencyInstance, region:EU-West,
      tier1 = {name:LocalMemory, size=5G},
      tier2 = {name:LocalDisk, size=5G} }
   %PrimaryBackup Consistency"#,
    primary_backup_body!("copy"),
    "\n}\n"
);

/// Fig. 3(b) variant with asynchronous propagation (`queue` instead of
/// `copy`), the trade-off §3.3.1 describes for better put latency.
pub const PRIMARY_BACKUP_ASYNC: &str = concat!(
    r#"
Wiera PrimaryBackupAsync() {
   Region1 = {name:LowLatencyInstance, region:US-West, primary:True,
      tier1 = {name:LocalMemory, size=5G},
      tier2 = {name:LocalDisk, size=5G} }
   Region2 = {name:LowLatencyInstance, region:US-East,
      tier1 = {name:LocalMemory, size=5G},
      tier2 = {name:LocalDisk, size=5G} }"#,
    primary_backup_body!("queue"),
    "\n}\n"
);

/// Fig. 4: eventual consistency — local write, queued distribution.
/// (The `insert.oject` typo is the figure's own; the compiler accepts it.)
pub const EVENTUAL_CONSISTENCY: &str = concat!(
    r#"
Wiera EventualConsistency() {
   Region1 = {name:LowLatencyInstance, region:US-West,
      tier1 = {name:LocalMemory, size=5G},
      tier2 = {name:LocalDisk, size=5G} }
   Region2 = {name:LowLatencyInstance, region:US-East,
      tier1 = {name:LocalMemory, size=5G},
      tier2 = {name:LocalDisk, size=5G} }
   %Eventual Consistency"#,
    eventual_body!(),
    "\n}\n"
);

/// Fig. 5(a): dynamic consistency — switch to eventual when put latency
/// exceeds 800 ms for 30 s, and back when it recovers.
pub const DYNAMIC_CONSISTENCY: &str = r#"
Wiera DynamicConsistency() {
   % In Multiple-Primaries Consistency
   % Put operation spends more time than threshold
   % required for specific amount of time
   event(threshold.type == put) : response {
      if(threshold.latency > 800 ms && threshold.period > 30 seconds)
         change_policy(what:consistency, to:EventualConsistency);
      else if (threshold.latency <= 800 ms && threshold.period > 30 seconds)
         change_policy(what:consistency, to:MultiPrimariesConsistency);
   }
}
"#;

/// Fig. 5(b): change the primary toward the instance forwarding the most
/// requests. (`chage_policy` is the figure's own typo; accepted.)
pub const CHANGE_PRIMARY: &str = r#"
Wiera ChangePrimary() {
   % In Primary-Backup Consistency
   % If there is an instance which received more
   % requests than primary received from application.
   event(threshold.type == primary) : response {
      if(forwarded_requests_per_each_instance >= updates_from_primary
            && threshold.period = 600 seconds)
         chage_policy(what:primary_instance, to:instance_forward_most)
   }
}
"#;

/// Fig. 6(a): move cold data (untouched for 120 h) to cheap archival
/// storage.
pub const REDUCED_COST_POLICY: &str = r#"
Wiera ReducedCostPolicy() {
   Region1 = {name:PersistanceInstance, region:US-West,
      tier1 = {name:LocalDisk, size=5G},
      tier2 = {name:CheapestArchival, size=5G} }
   %Data is getting cold
   event(object.lastAccessedTime > 120 hours) : response {
      move(what:object.location == tier1, to:tier2, bandwidth:100KB/s);
   }
}
"#;

/// Fig. 6(b): simpler consistency — several DCs within one geographic
/// region forward everything to one fast primary.
pub const SIMPLER_CONSISTENCY: &str = r#"
Wiera SimplerConsistency() {
   Region1 = {name:LowLatencyInstance, region:US-West, primary:True,
      tier1 = {name:LocalMemory, size=30G},
      tier2 = {name:LocalDisk, size=30G} }
   Region2 = {name:ForwardingInstance, region:US-West-2}
   %PrimaryBackup Consistency
   event(insert.into) : response {
      if(local_instance.isPrimary == True)
         store(what:insert.object, to:local_instance)
      else
         forward(what:insert.object, to:primary_instance)
   }
}
"#;

/// All canned policies as `(id, name, source)`.
pub const ALL: [(&str, &str, &str); 10] = [
    ("low-latency", "LowLatencyInstance", LOW_LATENCY_INSTANCE),
    ("persistent", "PersistentInstance", PERSISTENT_INSTANCE),
    (
        "multi-primaries",
        "MultiPrimariesConsistency",
        MULTI_PRIMARIES_CONSISTENCY,
    ),
    (
        "primary-backup",
        "PrimaryBackupConsistency",
        PRIMARY_BACKUP_CONSISTENCY,
    ),
    (
        "primary-backup-async",
        "PrimaryBackupAsync",
        PRIMARY_BACKUP_ASYNC,
    ),
    ("eventual", "EventualConsistency", EVENTUAL_CONSISTENCY),
    (
        "dynamic-consistency",
        "DynamicConsistency",
        DYNAMIC_CONSISTENCY,
    ),
    ("change-primary", "ChangePrimary", CHANGE_PRIMARY),
    ("reduced-cost", "ReducedCostPolicy", REDUCED_COST_POLICY),
    (
        "simpler-consistency",
        "SimplerConsistency",
        SIMPLER_CONSISTENCY,
    ),
];

/// Look up a canned policy's source text by id or by policy name.
pub fn by_name(id: &str) -> Option<&'static str> {
    ALL.iter()
        .find(|(key, name, _)| key.eq_ignore_ascii_case(id) || name.eq_ignore_ascii_case(id))
        .map(|(_, _, src)| *src)
}

/// Render a Wiera policy named `name` (hyphens become underscores) that
/// runs `body` over `regions`, each a `(region, primary)` pair. Every region
/// gets the tier stack `tiers`, given as `(kind, size)` pairs labelled
/// `tier1`, `tier2`, …; an empty size leaves the tier provider-managed.
pub fn policy_over(
    name: &str,
    regions: &[(&str, bool)],
    tiers: &[(&str, &str)],
    body: &str,
) -> String {
    let mut src = format!("Wiera {}() {{\n", name.replace('-', "_"));
    for (i, (region, primary)) in regions.iter().enumerate() {
        let primary = if *primary { ", primary:True" } else { "" };
        src.push_str(&format!(
            "  Region{n} = {{name:LowLatencyInstance, region:{region}{primary}",
            n = i + 1
        ));
        for (t, (kind, size)) in tiers.iter().enumerate() {
            let size = if size.is_empty() {
                String::new()
            } else {
                format!(", size={size}")
            };
            src.push_str(&format!(
                ",\n    tier{n} = {{name:{kind}{size}}}",
                n = t + 1
            ));
        }
        src.push_str(" }\n");
    }
    src.push_str(body);
    src.push_str("\n}\n");
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, ConsistencyModel, EventKind};
    use crate::parser::parse;

    #[test]
    fn every_canned_policy_parses_and_compiles() {
        for (id, name, src) in ALL {
            let spec = parse(src).unwrap_or_else(|e| panic!("{id} parse: {e}"));
            assert_eq!(spec.name, name, "{id}");
            compile(&spec).unwrap_or_else(|e| panic!("{id} compile: {e}"));
        }
    }

    #[test]
    fn consistency_models_recognized() {
        let model = |src| compile(&parse(src).unwrap()).unwrap().consistency;
        assert_eq!(
            model(MULTI_PRIMARIES_CONSISTENCY),
            Some(ConsistencyModel::MultiPrimaries)
        );
        assert_eq!(
            model(PRIMARY_BACKUP_CONSISTENCY),
            Some(ConsistencyModel::PrimaryBackup { sync: true })
        );
        assert_eq!(
            model(PRIMARY_BACKUP_ASYNC),
            Some(ConsistencyModel::PrimaryBackup { sync: false })
        );
        assert_eq!(
            model(EVENTUAL_CONSISTENCY),
            Some(ConsistencyModel::Eventual)
        );
        assert_eq!(
            model(SIMPLER_CONSISTENCY),
            Some(ConsistencyModel::PrimaryBackup { sync: false }),
            "forward-to-primary with no propagation is primary-backup-shaped \
             (no synchronous copy step)"
        );
    }

    #[test]
    fn multi_primaries_declares_three_regions() {
        let c = compile(&parse(MULTI_PRIMARIES_CONSISTENCY).unwrap()).unwrap();
        assert_eq!(c.regions.len(), 3);
        let names: Vec<&str> = c.regions.iter().map(|r| r.region_name.as_str()).collect();
        assert_eq!(names, ["US-West", "US-East", "EU-West"]);
        for r in &c.regions {
            assert_eq!(r.instance.tiers.len(), 2);
        }
    }

    #[test]
    fn reduced_cost_has_cold_data_event() {
        let c = compile(&parse(REDUCED_COST_POLICY).unwrap()).unwrap();
        assert_eq!(
            c.rules[0].event,
            EventKind::ColdData {
                older_than_ms: 120.0 * 3_600_000.0
            }
        );
    }

    #[test]
    fn low_latency_has_writeback_rules() {
        let c = compile(&parse(LOW_LATENCY_INSTANCE).unwrap()).unwrap();
        assert_eq!(c.rules.len(), 2);
        assert_eq!(c.rules[0].event, EventKind::Insert { into: None });
        assert_eq!(c.rules[1].event, EventKind::Timer { period_ms: None });
    }

    #[test]
    fn lookup_by_id_and_name() {
        assert!(by_name("eventual").is_some());
        assert!(by_name("EventualConsistency").is_some());
        assert!(by_name("EVENTUAL").is_some());
        assert!(by_name("nonsense").is_none());
    }

    #[test]
    fn policy_over_renders_primary_flags_and_omitted_sizes() {
        let src = policy_over(
            "two-sites",
            &[("US-East", false), ("EU-West", true)],
            &[("Memcached", "2G"), ("S3", "")],
            EVENTUAL_BODY,
        );
        assert!(src.contains("tier2 = {name:S3}"), "{src}");
        let c = compile(&parse(&src).unwrap()).unwrap();
        assert_eq!(c.name, "two_sites");
        let sites: Vec<(&str, bool)> = c
            .regions
            .iter()
            .map(|r| (r.region_name.as_str(), r.primary))
            .collect();
        assert_eq!(sites, [("US-East", false), ("EU-West", true)]);
        for r in &c.regions {
            let sizes: Vec<u64> = r.instance.tiers.iter().map(|t| t.size_bytes).collect();
            assert_eq!(sizes, [2 << 30, 0], "an omitted size is provider-managed");
        }
        assert_eq!(c.consistency, Some(ConsistencyModel::Eventual));
    }

    #[test]
    fn pretty_print_roundtrips_all_canned() {
        for (id, _, src) in ALL {
            let spec = parse(src).unwrap();
            let printed = spec.to_string();
            let reparsed =
                parse(&printed).unwrap_or_else(|e| panic!("{id} reparse: {e}\n{printed}"));
            assert_eq!(spec, reparsed, "{id}");
        }
    }
}
