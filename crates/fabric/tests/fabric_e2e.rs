//! End-to-end fabric test: 2 ingest nodes × 3 batches, one coordinator,
//! two read replicas, on the memo-sized schema and on 20 binary attributes.
//!
//! Asserts that the replicas' answers match a one-shot acquisition over
//! the union of all rows to 1e-9, every reader observes a strictly monotone
//! version sequence, and reads never block (a hammering reader thread makes
//! continuous progress throughout).

mod common;

use common::{wait_for, Workload};
use pka_contingency::Assignment;
use pka_fabric::{
    Coordinator, CoordinatorConfig, IngestNode, IngestNodeConfig, Replica, ReplicaConfig,
    RetryPolicy,
};
use pka_serve::{LineClient, ServeConfig};
use pka_stream::{RefreshPolicy, StreamConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn fabric_converges_to_the_one_shot_acquisition() {
    converges_to_the_one_shot_acquisition(&Workload::narrow());
}

/// The same fabric on 20 binary attributes: a cumulative shard over 2^20
/// cells must cross the wire as one line of observed cells.
#[test]
fn wide_fabric_converges_to_the_one_shot_acquisition() {
    converges_to_the_one_shot_acquisition(&Workload::wide());
}

fn converges_to_the_one_shot_acquisition(workload: &Workload) {
    let schema = || workload.schema();
    let timeout = Duration::from_secs(60);
    let retry = RetryPolicy::fast();

    // Replicas first (push-fed; no coordinator address needed).
    let replicas: Vec<Replica> = (0..2)
        .map(|_| Replica::start(schema(), ReplicaConfig::new().with_retry(retry.clone())).unwrap())
        .collect();

    // The coordinator knows its replicas and refits only on demand, so the
    // test controls exactly when versions are published.
    let mut coordinator_config = CoordinatorConfig::new()
        .with_serve(
            ServeConfig::new().with_stream(
                StreamConfig::new()
                    .with_policy(RefreshPolicy::Manual)
                    .with_acquisition(workload.acquisition()),
            ),
        )
        .with_sync_interval(Duration::from_millis(10))
        .with_retry(retry.clone());
    for replica in &replicas {
        coordinator_config = coordinator_config.with_replica(replica.addr().to_string());
    }
    let coordinator = Coordinator::start(schema(), coordinator_config).unwrap();

    // Two push-capable ingest nodes.
    let nodes: Vec<IngestNode> = ["node-a", "node-b"]
        .iter()
        .map(|name| {
            IngestNode::start(
                schema(),
                IngestNodeConfig::new(coordinator.addr().to_string())
                    .with_serve(ServeConfig::new().with_node_name(*name))
                    .with_push_interval(Duration::from_millis(10))
                    .with_retry(retry.clone()),
            )
            .unwrap()
        })
        .collect();

    // A reader hammering replica 0's snapshot slot for the whole run:
    // versions must be monotone and loads must keep completing (the load
    // path is wait-free, so progress is continuous even mid-publish).
    let reader_handle = replicas[0].snapshots();
    let reader_stop = Arc::new(AtomicBool::new(false));
    let reader_loads = Arc::new(AtomicU64::new(0));
    let reader = {
        let stop = Arc::clone(&reader_stop);
        let loads = Arc::clone(&reader_loads);
        std::thread::spawn(move || {
            let mut last = 0u64;
            let probe = Assignment::from_pairs([(0, 0), (1, 0)]);
            while !stop.load(Ordering::Relaxed) {
                if let Some(snapshot) = reader_handle.load() {
                    let version = snapshot.version();
                    assert!(version >= last, "reader saw version {version} after {last}");
                    last = version;
                    let p = snapshot.knowledge_base().probability(&probe);
                    assert!(p.is_finite() && p >= 0.0);
                }
                loads.fetch_add(1, Ordering::Relaxed);
            }
            last
        })
    };

    // 3 batches per node, refreshing (and therefore publishing) after each
    // round so the replicas step through versions 1, 2, 3.
    let mut coordinator_client = LineClient::connect(coordinator.addr()).unwrap();
    let batch = 80usize;
    let mut all_rows: Vec<Vec<usize>> = Vec::new();
    let mut replica_versions: Vec<Vec<u64>> = vec![Vec::new(); replicas.len()];
    for round in 0..3 {
        for (i, node) in nodes.iter().enumerate() {
            let share = workload.rows((round * nodes.len() + i) * batch, batch);
            let mut client = LineClient::connect(node.addr()).unwrap();
            client.ingest(&share).unwrap();
            all_rows.extend(share);
        }
        let expected = all_rows.len() as u64;
        wait_for(timeout, "pushers to deliver every tuple", || {
            coordinator_client.stats().unwrap().total_ingested >= expected
        });
        let refit = coordinator_client.refresh().unwrap();
        assert_eq!(refit.version, round as u64 + 1);
        assert_eq!(refit.observations, expected, "refit must cover all pushed tuples");
        for (i, replica) in replicas.iter().enumerate() {
            let mut client = LineClient::connect(replica.addr()).unwrap();
            wait_for(timeout, "replica to reach the coordinator's version", || {
                client.snapshot_version().unwrap().unwrap_or(0) >= refit.version
            });
            replica_versions[i].push(client.snapshot_version().unwrap().unwrap());
        }
    }

    // Every replica stepped through strictly increasing versions.
    for versions in &replica_versions {
        assert_eq!(versions.len(), 3);
        assert!(versions.windows(2).all(|w| w[0] < w[1]), "versions not monotone: {versions:?}");
    }

    // Replica answers must match a one-shot acquisition over the union of
    // every row ever ingested to 1e-9 — marginals over every attribute
    // value plus a conditional.
    let one_shot = workload.one_shot(&all_rows);
    for replica in &replicas {
        workload.assert_converged(replica.addr(), &one_shot);
        let mut client = LineClient::connect(replica.addr()).unwrap();
        let conditional = client.query(&[("attr1", "v0")], &[("attr0", "v0")]).unwrap();
        let joint = one_shot.probability(&Assignment::from_pairs([(0, 0), (1, 0)]));
        let evidence = one_shot.probability(&Assignment::single(0, 0));
        assert!(
            (conditional.probability - joint / evidence).abs() < 1e-9,
            "conditional drifted: {} vs {}",
            conditional.probability,
            joint / evidence,
        );
    }

    // The reader made continuous progress the whole time.
    reader_stop.store(true, Ordering::Relaxed);
    let final_version = reader.join().unwrap();
    assert!(final_version <= 3);
    assert!(
        reader_loads.load(Ordering::Relaxed) > 1_000,
        "reader should have completed thousands of wait-free loads"
    );

    // Clean teardown, ingest nodes first so their final flush lands on a
    // live coordinator.
    for node in nodes {
        node.shutdown().unwrap();
    }
    for replica in replicas {
        replica.shutdown().unwrap();
    }
    coordinator.shutdown().unwrap();
}
