//! Fabric ingest nodes: local tabulation, cumulative push.
//!
//! An ingest node is a [`pka_serve::Server`] in the
//! [`FabricRole::IngestNode`] role: clients `ingest` rows into it exactly
//! as they would into a standalone server, but the node never refits — its
//! refresh policy is forced to manual, so it stays a cheap tabulator.  A
//! **pusher thread** watches the node's local tuple count and, whenever it
//! has grown, ships the node's *cumulative* [`pka_stream::CountShard`] to
//! the coordinator under the tuple count as the sequence number.
//!
//! Pushing cumulative counts instead of increments is what makes the
//! fabric tolerate every delivery pathology with one rule: the coordinator
//! keeps the highest-sequence shard per source, so a lost push is repaired
//! by the next one, and a duplicated or reordered push is discarded.

use crate::coordinator::sleep_until;
use crate::retry::{FabricClient, RetryPolicy};
use crate::{FabricError, Result};
use pka_contingency::Schema;
use pka_serve::{FabricRole, ServeConfig, Server, ServerHandle};
use pka_stream::RefreshPolicy;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of an [`IngestNode`].
#[derive(Debug, Clone)]
pub struct IngestNodeConfig {
    /// The underlying server configuration (role forced to
    /// [`FabricRole::IngestNode`], refresh policy forced to manual).
    pub serve: ServeConfig,
    /// The coordinator to push shards to.
    pub coordinator: String,
    /// How often the pusher checks for new local tuples.
    pub push_interval: Duration,
    /// Retry policy for pushes.
    pub retry: RetryPolicy,
}

impl IngestNodeConfig {
    /// A node pushing to `coordinator` every 25 ms.
    pub fn new(coordinator: impl Into<String>) -> Self {
        Self {
            serve: ServeConfig::new(),
            coordinator: coordinator.into(),
            push_interval: Duration::from_millis(25),
            retry: RetryPolicy::default(),
        }
    }

    /// Sets the underlying server configuration.
    pub fn with_serve(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }

    /// Sets the push interval.
    pub fn with_push_interval(mut self, interval: Duration) -> Self {
        self.push_interval = interval;
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// A running ingest node.
pub struct IngestNode {
    server: Option<ServerHandle>,
    stop: Arc<AtomicBool>,
    pusher: Option<JoinHandle<()>>,
    addr: SocketAddr,
    name: String,
}

impl IngestNode {
    /// Starts the node's server and its shard pusher.
    pub fn start(schema: Arc<Schema>, config: IngestNodeConfig) -> Result<Self> {
        if config.push_interval.is_zero() {
            return Err(FabricError::Config {
                reason: "push_interval must be non-zero".to_string(),
            });
        }
        let mut serve = config.serve.clone().with_role(FabricRole::IngestNode);
        // The node only tabulates; fitting happens on the coordinator over
        // the merged counts.
        serve.stream.policy = RefreshPolicy::Manual;
        let server = Server::start(schema, serve)?;
        let addr = server.addr();
        let name = config.serve.node_name.clone().unwrap_or_else(|| addr.to_string());
        let stop = Arc::new(AtomicBool::new(false));
        let pusher = spawn_pusher(
            addr,
            config.coordinator,
            config.push_interval,
            config.retry,
            Arc::clone(&stop),
        );
        Ok(Self { server: Some(server), stop, pusher: Some(pusher), addr, name })
    }

    /// The node's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The source name the node pushes under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A trigger for this node's graceful shutdown, used by the binary's
    /// signal watcher: raising it unblocks [`IngestNode::wait`], which
    /// makes the pusher's final flush attempt and journals local counts.
    pub fn shutdown_trigger(&self) -> pka_serve::ShutdownTrigger {
        self.server.as_ref().expect("server runs until consumed").shutdown_trigger()
    }

    /// Blocks until a client asks the server to shut down, then stops the
    /// pusher (which makes one final flush attempt).
    pub fn wait(mut self) -> Result<()> {
        let server = self.server.take().expect("server runs until consumed");
        let result = server.wait().map(drop).map_err(FabricError::from);
        self.halt_pusher();
        result
    }

    /// Shuts the node down: final shard flush, then the server.
    pub fn shutdown(mut self) -> Result<()> {
        self.halt_pusher();
        let server = self.server.take().expect("server runs until consumed");
        server.shutdown().map(drop).map_err(FabricError::from)
    }

    fn halt_pusher(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(pusher) = self.pusher.take() {
            let _ = pusher.join();
        }
    }
}

impl Drop for IngestNode {
    fn drop(&mut self) {
        self.halt_pusher();
    }
}

fn spawn_pusher(
    self_addr: SocketAddr,
    coordinator: String,
    interval: Duration,
    retry: RetryPolicy,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        // The pusher reads the node's shard through its own public
        // `shard-pull` endpoint: the engine thread stays the single
        // writer, and the pusher is just another client.
        let mut loopback = FabricClient::new(self_addr.to_string(), retry.clone());
        let mut coordinator = FabricClient::new(coordinator, retry);
        let mut pushed_seq = 0u64;
        loop {
            let stopping = stop.load(Ordering::SeqCst);
            // Pull (a whole cumulative shard) only once the node holds
            // tuples it has not pushed.  An ingest node absorbs no remote
            // shards, so its `total_ingested` is the `seq` a pull returns.
            let grown =
                loopback.call(|c| c.stats()).map_or(true, |s| s.total_ingested > pushed_seq);
            if let Some(Ok(answer)) = grown.then(|| loopback.call(|c| c.shard_pull())) {
                if answer.seq > pushed_seq {
                    let pushed = coordinator
                        .call(|c| c.shard_push(&answer.source, answer.seq, &answer.shard));
                    if pushed.is_ok() {
                        pushed_seq = answer.seq;
                    }
                }
            }
            if stopping {
                // The pull above was the final flush; deliberately after
                // the stop check so tuples ingested right before shutdown
                // still reach the coordinator.
                break;
            }
            sleep_until(&stop, interval);
        }
    })
}
