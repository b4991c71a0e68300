//! Per-layer probes: the benchmark calls each layer's public functions
//! directly, with the workload's own keys and payloads, and times the calls
//! from outside. A layer's self time is its call time minus the call times
//! of the layers beneath it, measured here on the same inputs.

use crate::gen::{Inputs, BATCH};
use crate::stats::median;
use crate::trace::Recorder;
use crate::workloads::{deploy, TIME_SCALE};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tiera::{BatchOp, InstanceConfig, MetaStore, TieraInstance};
use wiera::testkit::{bodies, Cluster};
use wiera::WieraClient;
use wiera_coord::ShardMap;
use wiera_net::{Fabric, Mesh, NodeId, Region};
use wiera_sim::{ScaledClock, SimDuration};
use wiera_tiers::{SimTier, TierKind, TierSpec};

/// Calls timed as one block where a single call is too short for the clock.
const BLOCK: usize = 32;
/// Objects the memory tier of `engine_spill` holds.
const TIER1_OBJECTS: usize = 4096;

pub type Results = BTreeMap<&'static str, f64>;

struct Probes<'a> {
    inputs: &'a Inputs,
    seed: u64,
    rec: &'a mut Recorder,
    out: Results,
}

/// Run every probe; returns metric name → value.
pub fn run(inputs: &Inputs, seed: u64, rec: &mut Recorder) -> Result<Results, String> {
    let mut p = Probes {
        inputs,
        seed,
        rec,
        out: Results::new(),
    };
    p.sim();
    p.net();
    p.tiers();
    p.tiera()?;
    p.coord_and_policy();
    p.stack()?;
    Ok(p.out)
}

impl Probes<'_> {
    /// Time `blocks` blocks of `per_block` calls of `f`, one span per block
    /// under a span named after the probe. Returns the median ns per call.
    fn time(
        &mut self,
        probe: &'static str,
        call: &'static str,
        blocks: usize,
        per_block: usize,
        mut f: impl FnMut(usize),
    ) -> f64 {
        let root = self.rec.open(probe, 0);
        let mut per_call = Vec::with_capacity(blocks);
        for b in 0..blocks {
            let t0 = Instant::now();
            for i in b * per_block..(b + 1) * per_block {
                f(i);
            }
            let t1 = Instant::now();
            self.rec.span(call, t0, t1, root, b as u64);
            per_call.push((t1 - t0).as_nanos() as f64 / per_block as f64);
        }
        self.rec.close(root);
        median(&per_call)
    }

    fn value_bytes(&self) -> u64 {
        self.inputs.pool[0].len() as u64
    }

    /// How much longer `ScaledClock::sleep` takes than the modeled time it
    /// was asked for, at the scale the full-stack workloads run at: the
    /// operating system's timer granularity, paid on every modeled hop.
    fn sim(&mut self) {
        let clock = ScaledClock::shared(TIME_SCALE);
        let mut overshoot_us = Vec::new();
        for (name, modeled) in [
            ("ScaledClock::sleep(1ms)", SimDuration::from_millis(1)),
            ("ScaledClock::sleep(70ms)", SimDuration::from_millis(70)),
        ] {
            let ideal_ns = modeled.as_micros() as f64 * 1e3 / TIME_SCALE;
            let root = self.rec.open("sim.sleep_overshoot_us", 0);
            for i in 0..200 {
                let t0 = Instant::now();
                clock.sleep(modeled);
                let t1 = Instant::now();
                self.rec.span(name, t0, t1, root, i);
                overshoot_us.push(((t1 - t0).as_nanos() as f64 - ideal_ns) / 1e3);
            }
            self.rec.close(root);
        }
        self.out
            .insert("sim.sleep_overshoot_us", median(&overshoot_us));
    }

    /// `Mesh::rpc` to an echo endpoint in the same region and across the
    /// US-East → US-West link, and `Mesh::send` to inbox arrival.
    fn net(&mut self) {
        let fabric = Arc::new(Fabric::multicloud(self.seed));
        let mesh: Arc<Mesh<u64>> = Mesh::new(fabric, ScaledClock::shared(TIME_SCALE));
        let app = NodeId::new(Region::UsEast, "probe-app");
        let near = NodeId::new(Region::UsEast, "echo-near");
        let far = NodeId::new(Region::UsWest, "echo-far");
        let sink = NodeId::new(Region::UsEast, "sink");
        let echoes: Vec<_> = [&near, &far]
            .into_iter()
            .map(|node| {
                let inbox = mesh.register(node.clone());
                std::thread::spawn(move || {
                    // Ends when the node is unregistered and the inbox closes.
                    while let Ok(delivery) = inbox.recv() {
                        if let Some(slot) = delivery.reply {
                            slot.reply(delivery.msg, SimDuration::ZERO, 64);
                        }
                    }
                })
            })
            .collect();
        let bytes = self.value_bytes();
        let timeout = SimDuration::from_secs(30);
        let mut failed = 0u64;

        let local = self.time("net.rpc_local_us", "Mesh::rpc", 2000, 1, |i| {
            failed += u64::from(mesh.rpc(&app, &near, i as u64, bytes, timeout).is_err());
        });
        let mut modeled_ms = Vec::new();
        let wan = self.time("net.rpc_wan_us", "Mesh::rpc", 1000, 1, |i| {
            match mesh.rpc(&app, &far, i as u64, bytes, timeout) {
                Ok(reply) => modeled_ms.push(reply.total().as_micros() as f64 / 1e3),
                Err(_) => failed += 1,
            }
        });
        let inbox = mesh.register(sink.clone());
        let deliver = self.time("net.send_deliver_us", "Mesh::send", 1000, 1, |i| {
            let sent = mesh.send(&app, &sink, i as u64, bytes).is_ok();
            let arrived = inbox.recv_timeout(Duration::from_secs(5)).is_ok();
            failed += u64::from(!(sent && arrived));
        });

        for node in [&near, &far, &sink] {
            mesh.unregister(node);
        }
        for echo in echoes {
            failed += u64::from(echo.join().is_err());
        }
        mesh.shutdown();
        if failed > 0 {
            eprintln!("probe: {failed} mesh calls failed");
        }
        self.out.insert("net.rpc_local_us", local / 1e3);
        self.out.insert("net.rpc_wan_us", wan / 1e3);
        self.out
            .insert("net.rpc_wan_modeled_ms", median(&modeled_ms));
        self.out.insert("net.send_deliver_us", deliver / 1e3);
    }

    /// `SimTier` alone: slot-map put and get, and a put into a full
    /// volatile tier, which evicts the least recently used object first.
    fn tiers(&mut self) {
        let clock = ScaledClock::shared(TIME_SCALE);
        let spec = || TierSpec::of(TierKind::Memcached);
        let tier = SimTier::new(spec(), 8 << 30, clock.clone(), self.seed);
        let (inputs, blocks) = (self.inputs, 625);
        let (key, value) = (|i| inputs.key(i), |i| inputs.value(i));
        let put = self.time("tiers.put_ns", "SimTier::put", blocks, BLOCK, |i| {
            let _ = black_box(tier.put(key(i), value(i)));
        });
        let get = self.time("tiers.get_ns", "SimTier::get", blocks, BLOCK, |i| {
            let _ = black_box(tier.get(key(i)));
        });

        let capacity = TIER1_OBJECTS as u64 * self.value_bytes();
        let full = SimTier::new(spec(), capacity, clock, self.seed);
        for i in 0..TIER1_OBJECTS {
            let _ = full.put(key(i), value(i));
        }
        let evict = self.time("tiers.evict_put_us", "SimTier::put", 1000, 1, |i| {
            let _ = black_box(full.put(key(TIER1_OBJECTS + i), value(i)));
        });
        if full.stats.snapshot().evictions != 1000 {
            eprintln!("probe: a put into a full tier did not evict exactly one object");
        }
        self.out.insert("tiers.put_ns", put);
        self.out.insert("tiers.get_ns", get);
        self.out.insert("tiers.evict_put_us", evict / 1e3);
    }

    /// `MetaStore` alone, then a one-tier `TieraInstance` (metastore + tier
    /// + rule engine): single put and get, and batches of 64.
    fn tiera(&mut self) -> Result<(), String> {
        let inputs = self.inputs;
        let n = inputs.keys.len().min(20_000);
        let blocks = n / BLOCK;
        let (key, value) = (|i| inputs.key(i), |i| inputs.value(i));

        let meta = MetaStore::new();
        for i in 0..n {
            meta.with_mut(key(i), |_| ());
        }
        let write = self.time(
            "metastore.write_ns",
            "MetaStore::with_mut",
            blocks,
            BLOCK,
            |i| {
                black_box(meta.with_mut(key(i), |o| o.versions.len()));
            },
        );
        let read = self.time("metastore.read_ns", "MetaStore::with", blocks, BLOCK, |i| {
            black_box(meta.with(key(i), |o| o.versions.len()));
        });

        let mut cfg = InstanceConfig::new("probe", Region::UsEast)
            .with_tier("tier1", "LocalMemory", 8 << 30)
            .with_max_versions(1);
        cfg.seed = self.seed;
        let inst = TieraInstance::build(cfg, ScaledClock::shared(TIME_SCALE))
            .map_err(|e| e.to_string())?;
        let mut failed = 0u64;
        let put = self.time(
            "instance.put_ns",
            "TieraInstance::put",
            blocks,
            BLOCK,
            |i| {
                failed += u64::from(inst.put(key(i), value(i)).is_err());
            },
        );
        let get = self.time(
            "instance.get_ns",
            "TieraInstance::get",
            blocks,
            BLOCK,
            |i| {
                failed += u64::from(inst.get(key(i)).is_err());
            },
        );
        let batches: Vec<Vec<BatchOp>> = (0..300)
            .map(|b| {
                (b * BATCH..(b + 1) * BATCH)
                    .map(|i| match i % 5 < 2 {
                        true => BatchOp::Put {
                            key: key(i).to_string(),
                            value: value(i),
                        },
                        false => BatchOp::Get {
                            key: key(i).to_string(),
                        },
                    })
                    .collect()
            })
            .collect();
        let batch = self.time(
            "instance.batch_ns_per_op",
            "TieraInstance::apply_batch",
            batches.len(),
            1,
            |b| {
                let (results, _) = inst.apply_batch(&batches[b]);
                failed += results.iter().filter(|r| r.is_err()).count() as u64;
            },
        );
        if failed > 0 {
            eprintln!("probe: {failed} instance ops failed");
        }
        // The tier numbers come from `tiers()`, which ran first.
        let tier = |name: &str| self.out.get(name).copied().unwrap_or(0.0);
        let (tier_put, tier_get) = (tier("tiers.put_ns"), tier("tiers.get_ns"));
        self.out.insert("metastore.write_ns", write);
        self.out.insert("metastore.read_ns", read);
        self.out.insert("instance.put_ns", put);
        self.out.insert("instance.get_ns", get);
        self.out
            .insert("instance.batch_ns_per_op", batch / BATCH as f64);
        self.out
            .insert("instance.self_put_ns", put - write - tier_put);
        self.out
            .insert("instance.self_get_ns", get - read - tier_get);
        Ok(())
    }

    /// The two layers that only set-up and routing touch.
    fn coord_and_policy(&mut self) {
        let inputs = self.inputs;
        match ShardMap::new(64, 8, 8) {
            Ok(map) => {
                let ns = self.time("coord.group_of_ns", "ShardMap::group_of", 500, 64, |i| {
                    black_box(map.group_of(inputs.key(i)));
                });
                self.out.insert("coord.group_of_ns", ns);
            }
            Err(e) => eprintln!("probe: shard map: {e}"),
        }
        let source = wiera_policy::canned::PERSISTENT_INSTANCE;
        let ns = self.time("policy.compile_us", "parse+compile", 200, 1, |_| {
            let compiled = wiera_policy::parse(source).map(|spec| wiera_policy::compile(&spec));
            black_box(compiled.is_ok());
        });
        self.out.insert("policy.compile_us", ns / 1e3);
    }

    /// The replica and client layers, on a cluster of the probes' own: a
    /// one-region and a two-region synchronous primary-backup deployment.
    /// The difference between a put on each is what the backup costs.
    fn stack(&mut self) -> Result<(), String> {
        const N: usize = 1500;
        let t0 = Instant::now();
        let cluster = Cluster::launch(&[Region::UsEast, Region::UsWest], TIME_SCALE, self.seed);
        let regions = [("US-East", true), ("US-West", false)];
        let two = deploy(&cluster, "probe2", &regions, bodies::PRIMARY_BACKUP_SYNC)?;
        let launch = t0.elapsed();
        let one = deploy(
            &cluster,
            "probe1",
            &regions[..1],
            bodies::PRIMARY_BACKUP_SYNC,
        )?;
        let app = NodeId::new(Region::UsEast, "probe-app");
        let client =
            WieraClient::builder(cluster.data_mesh.clone(), Region::UsEast, "probe-client")
                .replicas(two.replicas())
                .seed(self.seed)
                .build();

        let keys: Vec<String> = (0..N).map(|i| self.inputs.key(i).to_string()).collect();
        let values: Vec<Bytes> = (0..N).map(|i| self.inputs.value(i)).collect();
        let put_batches: Vec<Vec<(String, Bytes)>> = (0..N)
            .map(|i| (keys[i].clone(), values[i].clone()))
            .collect::<Vec<_>>()
            .chunks_exact(BATCH)
            .map(<[_]>::to_vec)
            .collect();
        let get_batches: Vec<Vec<String>> = keys.chunks_exact(BATCH).map(<[_]>::to_vec).collect();
        let batches = put_batches.len();

        let mut failed = 0u64;
        let failed = &mut failed;
        let replica_put = self.time_us("replica.put_us", "put_from(1 region)", N, failed, |i| {
            one.put_from(&app, &keys[i], values[i].clone()).is_ok()
        });
        let replica_get = self.time_us("replica.get_us", "get_from(1 region)", N, failed, |i| {
            one.get_from(&app, &keys[i]).is_ok()
        });
        let replicated_put = self.time_us(
            "replica.repl_sync_us",
            "put_from(2 regions)",
            N,
            failed,
            |i| two.put_from(&app, &keys[i], values[i].clone()).is_ok(),
        );
        let client_put = self.time_us("client.put_us", "WieraClient::put", N, failed, |i| {
            client.put(&keys[i], values[i].clone()).is_ok()
        });
        let client_get = self.time_us("client.get_us", "WieraClient::get", N, failed, |i| {
            client.get(&keys[i]).is_ok()
        });
        let batch_put = self.time_us(
            "client.put_batch_us_per_op",
            "WieraClient::put_batch",
            batches,
            failed,
            |b| all_ok(client.put_batch(&put_batches[b])),
        ) / BATCH as f64;
        let batch_get = self.time_us(
            "client.get_batch_us_per_op",
            "WieraClient::get_batch",
            batches,
            failed,
            |b| all_ok(client.get_batch(&get_batches[b])),
        ) / BATCH as f64;

        one.stop_all();
        two.stop_all();
        cluster.shutdown();
        if *failed > 0 {
            eprintln!("probe: {failed} replica or client calls failed");
        }
        let got = |name: &str| self.out.get(name).copied().unwrap_or(0.0);
        let beneath = got("net.rpc_local_us") + got("instance.put_ns") / 1e3;
        self.out
            .insert("deployment.launch_ms", launch.as_secs_f64() * 1e3);
        self.out.insert("replica.put_us", replica_put);
        self.out.insert("replica.get_us", replica_get);
        self.out
            .insert("replica.self_put_us", replica_put - beneath);
        self.out
            .insert("replica.repl_sync_us", replicated_put - replica_put);
        self.out.insert("client.put_us", client_put);
        self.out.insert("client.get_us", client_get);
        self.out.insert("client.put_batch_us_per_op", batch_put);
        self.out.insert("client.get_batch_us_per_op", batch_get);
        // `put_from` itself goes through a `WieraClient` today, so this is
        // near zero until the two paths part.
        self.out
            .insert("client.self_put_us", client_put - replicated_put);
        Ok(())
    }

    /// [`Probes::time`] for calls that can fail: one call per span, µs.
    fn time_us(
        &mut self,
        probe: &'static str,
        call: &'static str,
        calls: usize,
        failed: &mut u64,
        mut f: impl FnMut(usize) -> bool,
    ) -> f64 {
        self.time(probe, call, calls, 1, |i| *failed += u64::from(!f(i))) / 1e3
    }
}

fn all_ok<T, E>(batch: Result<Vec<Result<T, E>>, E>) -> bool {
    batch.is_ok_and(|items| items.iter().all(Result::is_ok))
}
