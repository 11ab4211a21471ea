//! Boots the system under test in-process through the crates' public
//! start functions, and tears it down.

use crate::workload::{Inputs, Spec, Topology};
use pka_fabric::{
    Coordinator, CoordinatorConfig, IngestNode, IngestNodeConfig, Replica, ReplicaConfig,
};
use pka_serve::{EngineStats, LineClient, ServeConfig, Server, ServerHandle, ServerStats};
use pka_stream::{RefreshPolicy, StreamConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The engine configuration of the node that fits, shared with the
/// in-process reference engine the correctness gate compares against.
pub fn stream_config(spec: &Spec, policy: RefreshPolicy) -> StreamConfig {
    let config = StreamConfig::new().with_policy(policy);
    match spec.max_order {
        Some(order) => config.with_max_order(order),
        None => config,
    }
}

// One value per run: the size difference between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum System {
    Standalone(ServerHandle),
    Fabric { replica: Replica, coordinator: Coordinator, node: IngestNode, dir: PathBuf },
}

pub type BenchResult<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

impl System {
    /// Boots the workload's topology, ingests the seed rows and waits until
    /// the query node serves its first snapshot.  Returns the system and
    /// the seconds that took (`setup_s`).
    pub fn boot(spec: &Spec, inputs: &Inputs, dir: &Path) -> BenchResult<(System, f64)> {
        let started = Instant::now();
        let schema = || std::sync::Arc::clone(&inputs.schema);
        let fit_config = stream_config(spec, RefreshPolicy::EveryNTuples(spec.refit_every));
        let system = match spec.topology {
            Topology::Standalone => System::Standalone(
                Server::start(schema(), ServeConfig::new().with_stream(fit_config))
                    .map_err(err("server start"))?,
            ),
            Topology::Fabric => {
                std::fs::create_dir_all(dir).map_err(err("scratch dir"))?;
                let replica =
                    Replica::start(schema(), ReplicaConfig::new()).map_err(err("replica start"))?;
                let coordinator = Coordinator::start(
                    schema(),
                    CoordinatorConfig::new()
                        .with_serve(
                            ServeConfig::new()
                                .with_stream(fit_config)
                                .with_checkpoint(dir.join("coordinator.ckpt")),
                        )
                        .with_replica(replica.addr().to_string()),
                )
                .map_err(err("coordinator start"))?;
                let node = IngestNode::start(
                    schema(),
                    IngestNodeConfig::new(coordinator.addr().to_string()).with_serve(
                        ServeConfig::new()
                            .with_stream(stream_config(spec, RefreshPolicy::Manual))
                            .with_node_name("bench-node")
                            .with_journal(dir.join("node.journal")),
                    ),
                )
                .map_err(err("ingest node start"))?;
                System::Fabric { replica, coordinator, node, dir: dir.to_path_buf() }
            }
        };
        let mut writer = LineClient::connect(system.ingest_addr()).map_err(err("connect"))?;
        writer.ingest(&inputs.seed_rows).map_err(err("seed ingest"))?;
        let mut reader = LineClient::connect(system.query_addr()).map_err(err("connect"))?;
        let give_up = Instant::now() + Duration::from_secs(60);
        while reader.snapshot_version().map_err(err("snapshot-version"))?.is_none() {
            if Instant::now() > give_up {
                return Err("no snapshot served within 60 s of the seed ingest".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((system, started.elapsed().as_secs_f64()))
    }

    /// Where ingest batches go.
    pub fn ingest_addr(&self) -> SocketAddr {
        match self {
            System::Standalone(server) => server.addr(),
            System::Fabric { node, .. } => node.addr(),
        }
    }

    /// Where queries go.
    pub fn query_addr(&self) -> SocketAddr {
        match self {
            System::Standalone(server) => server.addr(),
            System::Fabric { replica, .. } => replica.addr(),
        }
    }

    /// The node that fits.
    pub fn fit_addr(&self) -> SocketAddr {
        match self {
            System::Standalone(server) => server.addr(),
            System::Fabric { coordinator, .. } => coordinator.addr(),
        }
    }

    /// Every node's address, for counters summed over the system.
    pub fn node_addrs(&self) -> Vec<SocketAddr> {
        match self {
            System::Standalone(server) => vec![server.addr()],
            System::Fabric { replica, coordinator, node, .. } => {
                vec![node.addr(), coordinator.addr(), replica.addr()]
            }
        }
    }

    pub fn journal_path(&self) -> Option<PathBuf> {
        match self {
            System::Standalone(_) => None,
            System::Fabric { dir, .. } => Some(dir.join("node.journal")),
        }
    }

    /// Stops every node and joins every thread they started.
    pub fn shutdown(self) -> BenchResult<()> {
        match self {
            System::Standalone(server) => server.shutdown().map(drop).map_err(err("shutdown")),
            System::Fabric { replica, coordinator, node, dir } => {
                let results = [
                    node.shutdown().map_err(err("node shutdown")),
                    coordinator.shutdown().map_err(err("coordinator shutdown")),
                    replica.shutdown().map_err(err("replica shutdown")),
                ];
                let _ = std::fs::remove_dir_all(&dir);
                results.into_iter().collect()
            }
        }
    }
}

/// Counters read once at the end of a run.
pub struct Counters {
    /// Engine counters of the node that fits.
    pub fit: EngineStats,
    /// Engine counters of the node that serves queries.
    pub query_engine: EngineStats,
    /// Reactor/serve counters of the node that serves queries.
    pub query_server: ServerStats,
    /// Reactor/serve counters summed over every node.
    pub all_servers: ServeTotals,
}

/// Refusal and request counters summed over every node.
#[derive(Debug, Default)]
pub struct ServeTotals {
    pub requests: u64,
    pub protocol_errors: u64,
    pub shed_writes: u64,
    pub deadline_exceeded: u64,
    pub rate_limited: u64,
}

pub fn read_counters(system: &System) -> BenchResult<Counters> {
    let stats = |addr: SocketAddr| -> BenchResult<(EngineStats, ServerStats)> {
        let mut client = LineClient::connect(addr).map_err(err("connect"))?;
        Ok((client.stats().map_err(err("stats"))?, client.server_stats().map_err(err("stats"))?))
    };
    let (fit, _) = stats(system.fit_addr())?;
    let (query_engine, query_server) = stats(system.query_addr())?;
    let mut all_servers = ServeTotals::default();
    for addr in system.node_addrs() {
        let (_, s) = stats(addr)?;
        all_servers.requests += s.requests;
        all_servers.protocol_errors += s.protocol_errors;
        all_servers.shed_writes += s.shed_writes;
        all_servers.deadline_exceeded += s.deadline_exceeded;
        all_servers.rate_limited += s.rate_limited;
    }
    Ok(Counters { fit, query_engine, query_server, all_servers })
}
