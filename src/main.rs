//! The `pka` binary: every node role of the served knowledge base, plus a
//! `probe` that drives running nodes end to end (the CI smoke tests).
//!
//! ```text
//! pka standalone  SCHEMA [options]
//! pka coordinator SCHEMA [options] [--replica ADDR]... [--pull ADDR]...
//! pka ingest-node SCHEMA [options] --coordinator ADDR
//! pka replica     SCHEMA [options] [--coordinator ADDR]
//! pka probe --addr ADDR [--ingest ADDR]... [--replica ADDR]... [options]
//! ```
//!
//! `SCHEMA` is `--schema "name=v1|v2;…"`, `--cards 3,2,2` (anonymous
//! `attrN`/`vN` names) or `--survey` (the memo's smoking survey); every
//! node of one fabric must be given the same schema.  [`FLAGS`] lists every
//! option with the roles it applies to and the configuration it feeds; a
//! flag missing from it, or given to a role it does not apply to, is
//! refused.  A node prints `listening on <addr>` once bound, so scripts can
//! scrape an ephemeral port, and drains gracefully (final checkpoint
//! included) on a client `shutdown`, `SIGTERM` or `SIGINT`.
//!
//! The probe checks the node at `--addr` over the whole protocol: ingest
//! (spread over the `--ingest` nodes when given), refresh, query, explain,
//! query-batch, malformed input and lattice hits, printing the `recovery`
//! counters for crash-recovery scripts to grep.  Flags add an overload
//! storm before the functional steps (`--storm-requests N`), a factored-path
//! check (`--expect-factored`) and an idle fan-in check (`--idle-hold N`).
//! Every `--replica` must then converge to the node's answer and refuse
//! writes; `--shutdown` stops replicas and ingest nodes, then the node.

use pka_contingency::{Attribute, Schema};
use pka_fabric::{
    Coordinator, CoordinatorConfig, IngestNode, IngestNodeConfig, Replica, ReplicaConfig,
    StormConfig,
};
use pka_serve::{
    protocol, watch_termination, BucketSpec, LineClient, RateLimitConfig, ServeConfig, ServeError,
    Server, ShutdownTrigger,
};
use pka_stream::{FsyncPolicy, RefreshPolicy, StreamConfig};
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const STANDALONE: u8 = 1;
const COORDINATOR: u8 = 2;
const INGEST_NODE: u8 = 4;
const REPLICA: u8 = 8;
const PROBE: u8 = 16;
const NODES: u8 = STANDALONE | COORDINATOR | INGEST_NODE | REPLICA;
/// The roles whose engine fits the model, and so reads the acquisition
/// flags; an ingest node only tabulates.
const FITTING: u8 = STANDALONE | COORDINATOR;

const ROLES: [(&str, u8); 5] = [
    ("standalone", STANDALONE),
    ("coordinator", COORDINATOR),
    ("ingest-node", INGEST_NODE),
    ("replica", REPLICA),
    ("probe", PROBE),
];

/// One command-line flag: the roles it applies to and what it configures.
struct Flag {
    name: &'static str,
    roles: u8,
    takes_value: bool,
    feed: Feed,
}

type Fallible<T> = Result<T, Box<dyn std::error::Error>>;
type Build<T> = fn(T, &str) -> Fallible<T>;

/// The configuration a flag's value feeds.
#[derive(Clone, Copy)]
enum Feed {
    Schema(fn(&str) -> Fallible<Arc<Schema>>),
    Serve(Build<ServeConfig>),
    /// A `RATE` or `RATE:BURST` token bucket, in requests per second.
    RateLimit(fn(&mut RateLimitConfig) -> &mut Option<BucketSpec>),
    Stream(Build<StreamConfig>),
    Coordinator(Build<CoordinatorConfig>),
    IngestNode(Build<IngestNodeConfig>),
    Replica(Build<ReplicaConfig>),
    Probe(Build<ProbeConfig>),
    /// A repeatable peer address for the probe.
    ProbePeer(fn(&mut ProbeConfig) -> &mut Vec<String>),
}

const fn flag(name: &'static str, roles: u8, feed: Feed) -> Flag {
    Flag { name, roles, takes_value: true, feed }
}

const fn switch(name: &'static str, roles: u8, feed: Feed) -> Flag {
    Flag { name, roles, takes_value: false, feed }
}

/// Every flag the binary accepts.  A name may appear once per role.
const FLAGS: &[Flag] = &[
    switch("--survey", NODES, Feed::Schema(|_| Ok(pka_datagen::smoking::schema()))),
    flag("--schema", NODES, Feed::Schema(parse_schema)),
    flag("--cards", NODES, Feed::Schema(parse_cards)),
    // Reactor front end (`docs/net.md`).
    flag("--port", NODES, Feed::Serve(|c, v| Ok(c.with_port(num(v)?)))),
    flag("--host", NODES, Feed::Serve(|c, v| Ok(c.with_host(v)))),
    flag("--max-line-bytes", NODES, Feed::Serve(|c, v| Ok(c.with_max_line_bytes(num(v)?)))),
    flag("--loop-shards", NODES, Feed::Serve(|c, v| Ok(c.with_loop_shards(num(v)?)))),
    flag("--max-connections", NODES, Feed::Serve(|c, v| Ok(c.with_max_connections(num(v)?)))),
    flag("--idle-timeout-ms", NODES, Feed::Serve(|c, v| Ok(c.with_idle_timeout_ms(num(v)?)))),
    // Admission control.
    flag("--engine-queue", NODES, Feed::Serve(|c, v| Ok(c.with_engine_queue_cap(num(v)?)))),
    flag("--rate-limit-conn", NODES, Feed::RateLimit(|r| &mut r.per_conn)),
    flag("--rate-limit-read", NODES, Feed::RateLimit(|r| &mut r.read)),
    flag("--rate-limit-write", NODES, Feed::RateLimit(|r| &mut r.write)),
    // Durability (`docs/fabric.md`).
    flag("--journal", NODES, Feed::Serve(|c, v| Ok(c.with_journal(v)))),
    flag(
        "--journal-fsync",
        NODES,
        Feed::Serve(|c, v| Ok(c.with_journal_fsync(FsyncPolicy::parse(v)?))),
    ),
    flag("--checkpoint", NODES, Feed::Serve(|c, v| Ok(c.with_checkpoint(v)))),
    flag(
        "--checkpoint-interval-ms",
        NODES,
        Feed::Serve(|c, v| Ok(c.with_checkpoint_interval(ms(v)?))),
    ),
    // Engine.  A replica rebuilds each synced snapshot's lattice itself.
    flag("--policy", FITTING, Feed::Stream(|c, v| Ok(c.with_policy(RefreshPolicy::parse(v)?)))),
    flag("--max-order", FITTING, Feed::Stream(|c, v| Ok(c.with_max_order(num(v)?)))),
    flag(
        "--lattice-order",
        FITTING | REPLICA,
        Feed::Stream(|c, v| Ok(c.with_lattice_order(num(v)?))),
    ),
    // Fabric roles.
    flag("--replica", COORDINATOR, Feed::Coordinator(|c, v| Ok(c.with_replica(v)))),
    flag("--pull", COORDINATOR, Feed::Coordinator(|c, v| Ok(c.with_ingest_node(v)))),
    flag(
        "--sync-interval-ms",
        COORDINATOR,
        Feed::Coordinator(|c, v| Ok(c.with_sync_interval(ms(v)?))),
    ),
    flag(
        "--coordinator",
        INGEST_NODE,
        Feed::IngestNode(|c, v| Ok(IngestNodeConfig { coordinator: v.to_string(), ..c })),
    ),
    flag("--name", INGEST_NODE, Feed::Serve(|c, v| Ok(c.with_node_name(v)))),
    flag(
        "--push-interval-ms",
        INGEST_NODE,
        Feed::IngestNode(|c, v| Ok(c.with_push_interval(ms(v)?))),
    ),
    flag("--coordinator", REPLICA, Feed::Replica(|c, v| Ok(c.with_coordinator(v)))),
    flag("--pull-interval-ms", REPLICA, Feed::Replica(|c, v| Ok(c.with_pull_interval(ms(v)?)))),
    // Probe.
    flag("--addr", PROBE, Feed::Probe(|p, v| Ok(ProbeConfig { addr: v.to_string(), ..p }))),
    flag("--ingest", PROBE, Feed::ProbePeer(|p| &mut p.ingest)),
    flag("--replica", PROBE, Feed::ProbePeer(|p| &mut p.replicas)),
    flag("--rows", PROBE, Feed::Probe(|p, v| Ok(ProbeConfig { rows: num(v)?, ..p }))),
    flag(
        "--timeout-s",
        PROBE,
        Feed::Probe(|p, v| Ok(ProbeConfig { timeout: Duration::from_secs(num(v)?), ..p })),
    ),
    flag(
        "--storm-requests",
        PROBE,
        Feed::Probe(|p, v| Ok(ProbeConfig { storm_requests: Some(num(v)?), ..p })),
    ),
    flag(
        "--idle-hold",
        PROBE,
        Feed::Probe(|p, v| Ok(ProbeConfig { idle_hold: Some(num(v)?), ..p })),
    ),
    switch(
        "--expect-factored",
        PROBE,
        Feed::Probe(|p, _| Ok(ProbeConfig { expect_factored: true, ..p })),
    ),
    switch("--shutdown", PROBE, Feed::Probe(|p, _| Ok(ProbeConfig { shutdown: true, ..p }))),
];

fn num<T: std::str::FromStr>(value: &str) -> Fallible<T> {
    Ok(value.parse().map_err(|_| format!("`{value}` is not a valid number"))?)
}

fn ms(value: &str) -> Fallible<Duration> {
    Ok(Duration::from_millis(num(value)?))
}

fn parse_schema(spec: &str) -> Fallible<Arc<Schema>> {
    let mut attributes = Vec::new();
    for attr_spec in spec.split(';').filter(|s| !s.is_empty()) {
        let (name, values) = attr_spec
            .split_once('=')
            .ok_or_else(|| format!("attribute `{attr_spec}` is not name=v1|v2"))?;
        let values: Vec<&str> = values.split('|').filter(|v| !v.is_empty()).collect();
        if values.len() < 2 {
            return Err(format!("attribute `{name}` needs at least two values").into());
        }
        attributes.push(Attribute::new(name, values));
    }
    Ok(Schema::new(attributes)?.into_shared())
}

fn parse_cards(cards: &str) -> Fallible<Arc<Schema>> {
    let cardinalities: Vec<usize> =
        cards.split(',').map(|c| num(c.trim())).collect::<Result<_, _>>()?;
    Ok(Schema::uniform(&cardinalities)?.into_shared())
}

/// What the probe drives and checks.
struct ProbeConfig {
    addr: String,
    ingest: Vec<String>,
    replicas: Vec<String>,
    rows: usize,
    timeout: Duration,
    storm_requests: Option<usize>,
    idle_hold: Option<usize>,
    expect_factored: bool,
    shutdown: bool,
}

/// Everything one invocation's flags configure; each role reads its part.
struct Options {
    schema: Option<Arc<Schema>>,
    serve: ServeConfig,
    coordinator: CoordinatorConfig,
    ingest_node: IngestNodeConfig,
    replica: ReplicaConfig,
    probe: ProbeConfig,
}

impl Options {
    /// Reads `args` for `role`, refusing unknown flags and flags that do
    /// not apply to it.
    fn parse(role: u8, args: &[String]) -> Result<Self, String> {
        let role_name = ROLES.iter().find(|(_, bit)| *bit == role).map_or("?", |(name, _)| name);
        let mut options = Options {
            schema: None,
            serve: ServeConfig::new(),
            coordinator: CoordinatorConfig::new(),
            ingest_node: IngestNodeConfig::new(""),
            replica: ReplicaConfig::new(),
            probe: ProbeConfig {
                addr: String::new(),
                ingest: Vec::new(),
                replicas: Vec::new(),
                rows: 240,
                timeout: Duration::from_secs(30),
                storm_requests: None,
                idle_hold: None,
                expect_factored: false,
                shutdown: false,
            },
        };
        let mut args = args.iter();
        while let Some(name) = args.next() {
            let flag =
                FLAGS.iter().find(|f| f.name == name && f.roles & role != 0).ok_or_else(|| {
                    if FLAGS.iter().any(|f| f.name == name) {
                        format!("`{name}` does not apply to `{role_name}`")
                    } else {
                        format!("unknown flag `{name}` for `{role_name}`")
                    }
                })?;
            let value = if flag.takes_value {
                args.next().ok_or_else(|| format!("`{name}` needs a value"))?
            } else {
                ""
            };
            options = options.feed(flag.feed, value).map_err(|e| format!("bad {name}: {e}"))?;
        }
        Ok(options)
    }

    fn feed(mut self, feed: Feed, value: &str) -> Fallible<Self> {
        match feed {
            Feed::Schema(build) => self.schema = Some(build(value)?),
            Feed::Serve(build) => self.serve = build(self.serve, value)?,
            Feed::RateLimit(field) => {
                *field(&mut self.serve.rate_limit) = Some(BucketSpec::parse(value)?)
            }
            Feed::Stream(build) => self.serve.stream = build(self.serve.stream, value)?,
            Feed::Coordinator(build) => self.coordinator = build(self.coordinator, value)?,
            Feed::IngestNode(build) => self.ingest_node = build(self.ingest_node, value)?,
            Feed::Replica(build) => self.replica = build(self.replica, value)?,
            Feed::Probe(build) => self.probe = build(self.probe, value)?,
            Feed::ProbePeer(list) => list(&mut self.probe).push(value.to_string()),
        }
        Ok(self)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("pka: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Fallible<()> {
    let Some(&(_, role)) = args.first().and_then(|arg| ROLES.iter().find(|(name, _)| name == arg))
    else {
        return Err(
            "usage: pka <standalone|coordinator|ingest-node|replica|probe> [options]".into()
        );
    };
    let options = Options::parse(role, &args[1..])?;
    if role == PROBE {
        Ok(probe(&options.probe)?)
    } else {
        boot(role, options)
    }
}

/// Starts the node for `role` and serves until it is shut down.
fn boot(role: u8, options: Options) -> Fallible<()> {
    let schema = options.schema.ok_or("no schema given: pass --schema, --cards or --survey")?;
    let serve = options.serve;
    match role {
        STANDALONE => {
            let node = Server::start(schema, serve)?;
            serve_until_shutdown(node.addr(), node.shutdown_trigger(), || node.wait())
        }
        COORDINATOR => {
            let config = options.coordinator.with_serve(serve);
            let node = Coordinator::start(schema, config)?;
            serve_until_shutdown(node.addr(), node.shutdown_trigger(), || node.wait())
        }
        INGEST_NODE => {
            if options.ingest_node.coordinator.is_empty() {
                return Err("ingest-node needs --coordinator HOST:PORT".into());
            }
            let config = options.ingest_node.with_serve(serve);
            let node = IngestNode::start(schema, config)?;
            serve_until_shutdown(node.addr(), node.shutdown_trigger(), || node.wait())
        }
        REPLICA => {
            let config = options.replica.with_serve(serve);
            let node = Replica::start(schema, config)?;
            serve_until_shutdown(node.addr(), node.shutdown_trigger(), || node.wait())
        }
        _ => unreachable!("the probe is not a node role"),
    }
}

/// Announces the bound address, routes `SIGTERM`/`SIGINT` to the node's
/// graceful drain — connections drain, pushers flush and the engine cuts a
/// final checkpoint, so an orchestrated restart never loses acknowledged
/// work — and blocks until a client `shutdown` or a signal.
fn serve_until_shutdown<T, E: std::error::Error + 'static>(
    addr: SocketAddr,
    trigger: ShutdownTrigger,
    wait: impl FnOnce() -> Result<T, E>,
) -> Fallible<()> {
    println!("listening on {addr}");
    std::io::stdout().flush().ok();
    if let Ok(watch) = watch_termination() {
        std::thread::Builder::new().name("pka-signals".to_string()).spawn(move || {
            watch.wait();
            trigger.request();
        })?;
    }
    wait()?;
    println!("shut down cleanly");
    Ok(())
}

/// Drives the node at `--addr` (and its fabric peers) end to end and fails
/// loudly on any surprise.
fn probe(config: &ProbeConfig) -> Result<(), String> {
    let addr = config.addr.as_str();
    if addr.is_empty() {
        return Err("probe needs --addr HOST:PORT".to_string());
    }
    let mut client = LineClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;

    // 1. Liveness, and the schema every later step builds on.
    if !client.ping().map_err(|e| format!("ping: {e}"))? {
        return Err("ping did not pong".to_string());
    }
    println!("probe: ping ok");
    let schema = client.schema().map_err(|e| format!("schema: {e}"))?;
    if schema.is_empty() {
        return Err("the node reported an empty schema".to_string());
    }
    let cards: Vec<usize> = schema.iter().map(|(_, values)| values.len()).collect();

    // 2. Optional overload storm, run *before* the functional steps: drive
    //    the node well past capacity, report the admission counters, then
    //    let the normal probe prove it recovered.
    if let Some(total) = config.storm_requests {
        storm(&mut client, addr, total, &cards)?;
    }

    // 3. Ingest deterministic correlated rows, straight into the node or
    //    spread over the ingest nodes, whose pushers must deliver every one.
    let rows: Vec<Vec<usize>> = (0..config.rows)
        .map(|k| cards.iter().enumerate().map(|(a, &card)| (k + a * (k % 3)) % card).collect())
        .collect();
    if config.ingest.is_empty() {
        ingest(&mut client, addr, &rows)?;
    } else {
        let held = client.stats().map_err(|e| format!("stats: {e}"))?.total_ingested;
        let target = held + rows.len() as u64;
        for (i, node) in config.ingest.iter().enumerate() {
            let share: Vec<Vec<usize>> =
                rows.iter().skip(i).step_by(config.ingest.len()).cloned().collect();
            let mut node_client =
                LineClient::connect(node).map_err(|e| format!("connect {node}: {e}"))?;
            ingest(&mut node_client, node, &share)?;
        }
        wait_for(config.timeout, "the node to hold every pushed tuple", || {
            Ok(client.stats().map_err(|e| e.to_string())?.total_ingested >= target)
        })?;
        println!("probe: {addr} holds all {} pushed tuples", rows.len());
    }

    // 4. Publish a snapshot, and report the durability counters for
    //    crash-recovery scripts to grep: how much state came back from
    //    journal/checkpoint at boot, and how stale the sources are now.
    client.refresh().map_err(|e| format!("refresh: {e}"))?;
    let version = client
        .snapshot_version()
        .map_err(|e| format!("snapshot-version: {e}"))?
        .ok_or("no snapshot after refresh")?;
    println!("probe: refresh ok (snapshot version {version})");
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    println!(
        "probe: recovery recovered_sources={} recovered_tuples={} \
         journal_truncated_bytes={} journal_records={} checkpoints_written={} \
         max_push_age_ms={}",
        stats.recovered_sources,
        stats.recovered_tuples,
        stats.journal_truncated_bytes,
        stats.journal_records,
        stats.checkpoints_written,
        stats.max_push_age_ms.map_or_else(|| "none".to_string(), |ms| ms.to_string()),
    );

    // 5. Query and explain against the first attribute; a query batch
    //    answers every entry from one snapshot, agreeing with the query.
    let (attr0, values0) = &schema[0];
    let answer = client.query(&[(attr0, &values0[0])], &[]).map_err(|e| format!("query: {e}"))?;
    if !(answer.probability > 0.0 && answer.probability <= 1.0) {
        return Err(format!("marginal probability {} out of range", answer.probability));
    }
    println!("probe: query ok ({} = {:.4})", answer.description, answer.probability);
    if schema.len() > 1 {
        let (attr1, values1) = &schema[1];
        client
            .explain(&[(attr0, &values0[0])], &[(attr1, &values1[0])])
            .map_err(|e| format!("explain: {e}"))?;
        println!("probe: explain ok");
    }
    let batch: &[pka_serve::NamedQuery] =
        &[(&[(attr0, &values0[0])], &[]), (&[(attr0, &values0[0])], &[])];
    let batch_answers = client.query_batch(batch).map_err(|e| format!("query-batch: {e}"))?;
    if batch_answers.len() != 2 {
        return Err(format!("query-batch returned {} of 2 answers", batch_answers.len()));
    }
    for entry in &batch_answers {
        let entry = entry.as_ref().map_err(|e| format!("query-batch entry: {e}"))?;
        if (entry.probability - answer.probability).abs() > 1e-12 {
            return Err(format!(
                "query-batch answered {} where query answered {}",
                entry.probability, answer.probability
            ));
        }
    }
    println!("probe: query-batch ok");

    // 6. Malformed input must produce structured errors and leave the
    //    connection usable.
    for (bad, expected) in [
        ("{\"id\":1,\"method\":", "parse-error"),
        ("{\"id\":1,\"method\":\"nope\"}", "unknown-method"),
        ("[]", "invalid-request"),
    ] {
        let response = client.call_raw(bad).map_err(|e| format!("malformed probe: {e}"))?;
        let code = response
            .get("error")
            .and_then(|e| e.get("code"))
            .map(|c| format!("{c:?}"))
            .unwrap_or_default();
        if !code.contains(expected) {
            return Err(format!("malformed line `{bad}` answered {code}, wanted {expected}"));
        }
    }
    if !client.ping().map_err(|e| format!("ping after malformed input: {e}"))? {
        return Err("connection unusable after malformed input".to_string());
    }
    println!("probe: malformed-input handling ok");

    // 7. Stats must reflect the ingest, and the queries above must have
    //    taken the lattice fast path.
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    if stats.total_ingested < rows.len() as u64 {
        return Err(format!(
            "stats report {} ingested, expected >= {}",
            stats.total_ingested,
            rows.len()
        ));
    }
    let server_stats = client.server_stats().map_err(|e| format!("server stats: {e}"))?;
    if server_stats.lattice_hits == 0 {
        return Err("no query was answered from the marginal lattice".to_string());
    }
    println!(
        "probe: stats ok ({} tuples, {} refits, {} lattice hits)",
        stats.total_ingested, stats.refits, server_stats.lattice_hits
    );

    // 8. Optional wide-schema check: an order-3 query misses the default
    //    order-2 lattice, so its fallback evaluation path is observable in
    //    the stats.  On a factored snapshot (schema above the dense
    //    ceiling) that must be variable elimination — and the dense-joint
    //    stride walk must never have run, which is the structural proof
    //    that no dense joint exists to walk.
    if config.expect_factored {
        if schema.len() < 3 {
            return Err("--expect-factored needs a schema with at least 3 attributes".to_string());
        }
        let (attr1, values1) = &schema[1];
        let (attr2, values2) = &schema[2];
        let deep = client
            .query(&[(attr0, &values0[0]), (attr1, &values1[0])], &[(attr2, &values2[0])])
            .map_err(|e| format!("factored query: {e}"))?;
        if !(deep.probability >= 0.0 && deep.probability <= 1.0) {
            return Err(format!("factored query probability {} out of range", deep.probability));
        }
        let server_stats =
            client.server_stats().map_err(|e| format!("server stats after factored query: {e}"))?;
        if server_stats.factored_evals == 0 {
            return Err("no query was answered by factored evaluation".to_string());
        }
        if server_stats.dense_evals > 0 {
            return Err(format!(
                "{} queries took the dense-joint walk on a snapshot that should not have one",
                server_stats.dense_evals
            ));
        }
        println!(
            "probe: factored path ok ({} factored evals, elimination width {})",
            server_stats.factored_evals, server_stats.elimination_width_max
        );
    }

    // 9. Every replica reaches the node's version without going backwards,
    //    answers as the node does, and refuses writes.
    for replica_addr in &config.replicas {
        let mut replica = LineClient::connect(replica_addr)
            .map_err(|e| format!("replica {replica_addr}: {e}"))?;
        let mut last_seen = 0u64;
        wait_for(config.timeout, "replica to reach the node's version", || {
            let seen = replica.snapshot_version().map_err(|e| e.to_string())?.unwrap_or(0);
            if seen < last_seen {
                return Err(format!(
                    "replica {replica_addr} went backwards: {last_seen} -> {seen}"
                ));
            }
            last_seen = seen;
            Ok(seen >= version)
        })?;
        let replica_answer = replica
            .query(&[(attr0, &values0[0])], &[])
            .map_err(|e| format!("replica {replica_addr} query: {e}"))?;
        if (replica_answer.probability - answer.probability).abs() > 1e-9 {
            return Err(format!(
                "replica {replica_addr} answered {} where the node answered {}",
                replica_answer.probability, answer.probability
            ));
        }
        match replica.ingest(&rows[..1]) {
            Err(ServeError::Remote { code, .. }) if code == "role-unsupported" => {}
            other => {
                return Err(format!("replica {replica_addr} did not refuse ingest: {other:?}"))
            }
        }
        println!("probe: replica {replica_addr} converged (version {last_seen})");
    }

    // 10. Optional fan-in check: hold N idle connections open at once and
    //     make the node count them, proving the event-loop front end
    //     carries them without a thread per socket.
    if let Some(hold) = config.idle_hold {
        let mut held = Vec::with_capacity(hold);
        for i in 0..hold {
            held.push(TcpStream::connect(addr).map_err(|e| format!("idle-hold connect {i}: {e}"))?);
        }
        // The last sockets may still be in flight from the acceptor to their
        // shard.  `+ 1` for the probe's own connection; fabric peers' pusher
        // and pump connections only push the count higher.
        wait_for(config.timeout, "the node to report every held connection", || {
            let stats = client.server_stats().map_err(|e| e.to_string())?;
            Ok(stats.open_connections > hold as u64)
        })?;
        let stats = client.server_stats().map_err(|e| format!("server stats: {e}"))?;
        println!(
            "probe: idle-hold ok ({} connections open, shard occupancy {:?})",
            stats.open_connections, stats.shard_connections
        );
        drop(held);
    }

    // 11. Pipelined requests all answer, in order.
    let pings: Vec<_> = (0..16).map(|_| ("ping", protocol::object([]))).collect();
    let responses = client.pipeline(&pings).map_err(|e| format!("pipeline: {e}"))?;
    if responses.len() != 16 || responses.iter().any(|r| r.is_err()) {
        return Err("pipelined requests failed".to_string());
    }
    println!("probe: pipelining ok");

    if config.shutdown {
        for peer in config.replicas.iter().chain(&config.ingest) {
            let mut peer_client =
                LineClient::connect(peer).map_err(|e| format!("shutdown {peer}: {e}"))?;
            peer_client.shutdown().map_err(|e| format!("shutdown {peer}: {e}"))?;
            println!("probe: {peer} shutdown acknowledged");
        }
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        println!("probe: shutdown acknowledged");
    }
    Ok(())
}

fn ingest(client: &mut LineClient, addr: &str, rows: &[Vec<usize>]) -> Result<(), String> {
    let summary = client.ingest(rows).map_err(|e| format!("ingest {addr}: {e}"))?;
    if summary.accepted != rows.len() as u64 {
        return Err(format!("{addr} accepted {} of {} rows", summary.accepted, rows.len()));
    }
    println!("probe: ingest ok ({} rows into {addr})", rows.len());
    Ok(())
}

/// Pipelines `total` ingest requests over 8 connections at the node and
/// prints the admission counters on one `probe: storm` line for CI to grep.
fn storm(client: &mut LineClient, addr: &str, total: usize, cards: &[usize]) -> Result<(), String> {
    let connections = 8usize;
    let config = StormConfig {
        connections,
        requests_per_conn: total.div_ceil(connections).max(1),
        rows_per_request: 4,
        cards: cards.to_vec(),
        deadline_ms: None,
        window: 32,
        seed: 0x5eed,
    };
    let socket = addr
        .to_socket_addrs()
        .map_err(|e| format!("bad address `{addr}`: {e}"))?
        .next()
        .ok_or("the address resolved to nothing")?;
    let report = pka_fabric::ingest_storm(socket, &config).map_err(|e| format!("storm: {e}"))?;
    let stats = client.server_stats().map_err(|e| format!("server stats: {e}"))?;
    println!(
        "probe: storm offered={} accepted={} shed={} rate_limited={} \
         deadline_exceeded={} unanswered={} queue_depth_max={} engine_queue_cap={} \
         shed_writes={} elapsed_ms={}",
        report.offered,
        report.accepted,
        report.overloaded,
        stats.rate_limited,
        stats.deadline_exceeded,
        report.unanswered,
        report.max_queue_depth,
        stats.engine_queue_cap,
        stats.shed_writes,
        report.elapsed.as_millis(),
    );
    if report.accepted == 0 {
        return Err("storm: no request was accepted at all".to_string());
    }
    // Normal traffic must flow again immediately after the storm.
    if !client.ping().map_err(|e| format!("post-storm ping: {e}"))? {
        return Err("the node did not pong after the storm".to_string());
    }
    println!("probe: post-storm ping ok");
    Ok(())
}

/// Polls `check` until it returns true or `timeout` elapses.
fn wait_for(
    timeout: Duration,
    what: &str,
    mut check: impl FnMut() -> Result<bool, String>,
) -> Result<(), String> {
    let start = Instant::now();
    loop {
        if check()? {
            return Ok(());
        }
        if start.elapsed() > timeout {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|item| item.to_string()).collect()
    }

    /// A valid value for every flag that takes one.
    fn sample(flag: &str) -> &'static str {
        match flag {
            "--schema" => "a=x|y;b=u|v|w",
            "--cards" => "2,3",
            "--host" => "127.0.0.1",
            "--journal" | "--checkpoint" => "node.state",
            "--journal-fsync" => "interval=50",
            "--rate-limit-conn" | "--rate-limit-read" | "--rate-limit-write" => "100:10",
            "--policy" => "every=64",
            "--name" => "node-a",
            "--addr" | "--ingest" | "--replica" | "--pull" | "--coordinator" => "127.0.0.1:7878",
            _ => "2",
        }
    }

    #[test]
    fn every_role_accepts_exactly_the_flags_that_apply_to_it() {
        for &(role_name, role) in &ROLES {
            for flag in FLAGS {
                let applies = FLAGS.iter().any(|f| f.name == flag.name && f.roles & role != 0);
                let mut args = argv(&[flag.name]);
                if flag.takes_value {
                    args.push(sample(flag.name).to_string());
                }
                match Options::parse(role, &args) {
                    Ok(_) => assert!(applies, "`{role_name}` accepted `{}`", flag.name),
                    Err(e) => {
                        assert!(!applies, "`{role_name}` refused `{}`: {e}", flag.name);
                        assert!(e.contains(flag.name) && e.contains(role_name), "{e}");
                    }
                }
            }
            for unknown in ["--survy", "--dense-ceiling", "--shards", "--help", "survey", "-p"] {
                let e = Options::parse(role, &argv(&[unknown])).err().expect("unknown flag");
                assert!(e.contains(unknown) && e.contains(role_name), "{e}");
            }
        }
    }

    #[test]
    fn a_flag_name_feeds_one_entry_per_role() {
        for (i, flag) in FLAGS.iter().enumerate() {
            for other in &FLAGS[i + 1..] {
                let shared = other.name == flag.name && other.roles & flag.roles != 0;
                assert!(!shared, "`{}` is listed twice for one role", flag.name);
            }
        }
    }

    #[test]
    fn every_role_gets_the_engine_flags_it_reads() {
        for (role, flag) in [
            (COORDINATOR, "--max-order"),
            (COORDINATOR, "--lattice-order"),
            (COORDINATOR, "--max-line-bytes"),
            (REPLICA, "--lattice-order"),
        ] {
            assert!(Options::parse(role, &argv(&[flag, "2"])).is_ok(), "{flag}");
        }
        for (role, flag) in [
            (REPLICA, "--policy"),
            (REPLICA, "--max-order"),
            (INGEST_NODE, "--policy"),
            (INGEST_NODE, "--max-order"),
            (INGEST_NODE, "--replica"),
            (STANDALONE, "--coordinator"),
            (STANDALONE, "--expect-factored"),
            (PROBE, "--survey"),
        ] {
            assert!(Options::parse(role, &argv(&[flag, "2"])).is_err(), "{flag}");
        }
    }

    #[test]
    fn flags_compose_instead_of_replacing_each_other() {
        let options = Options::parse(
            COORDINATOR,
            &argv(&[
                "--survey",
                "--policy",
                "manual",
                "--max-order",
                "2",
                "--lattice-order",
                "1",
                "--replica",
                "a:1",
                "--replica",
                "b:2",
                "--rate-limit-read",
                "50",
            ]),
        )
        .expect("valid coordinator flags");
        let stream = &options.serve.stream;
        assert_eq!(stream.policy, RefreshPolicy::Manual);
        assert_eq!(stream.acquisition.max_order, Some(2));
        assert_eq!(stream.lattice_order, 1);
        assert_eq!(options.coordinator.replicas, ["a:1", "b:2"]);
        assert!(options.serve.rate_limit.read.is_some());
        assert_eq!(options.schema, Some(pka_datagen::smoking::schema()));
    }

    #[test]
    fn malformed_values_are_refused_with_the_flag_name() {
        for args in [
            &["--port"][..],
            &["--port", "http"],
            &["--policy", "sometimes"],
            &["--cards", "2,x"],
            &["--schema", "a=x"],
            &["--rate-limit-conn", "-1"],
            &["--journal-fsync", "always"],
        ] {
            let e = Options::parse(STANDALONE, &argv(args)).err().expect("malformed value");
            assert!(e.contains(args[0]), "{e}");
        }
    }
}
