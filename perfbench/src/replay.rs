//! Replays a run's generated inputs through each layer's public entry
//! points, in the order the servers call them, on in-process engines.
//!
//! Untraced, the replay is the reference the correctness gate compares
//! the served answers against: a `StreamingEngine` fed the same batches
//! under the same configuration, with the refit policy applied after each
//! batch exactly as the server's engine applies it.  Traced, every call
//! runs inside a span, and at each refit point the refit's stages are
//! also run one by one (tabulate, acquire, re-solve, snapshot build,
//! lattice build, publish) so each stage gets its own time.

use crate::system::{stream_config, BenchResult};
use crate::trace::Tracer;
use crate::workload::{query_line, Inputs, Spec};
use pka_contingency::Assignment;
use pka_core::{Acquisition, KnowledgeBase, Query};
use pka_maxent::{IncidenceCache, MarginalLattice, Solver};
use pka_serve::protocol;
use pka_stream::{
    CountShard, FsyncPolicy, RefreshPolicy, RemoteDelivery, ShardJournal, Snapshot, SnapshotHandle,
    SnapshotMeta, StreamConfig, StreamingEngine,
};
use serde::{Deserialize, Value};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the acquisition trace of one refit recorded.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefitTrace {
    pub rounds: usize,
    pub promotions: usize,
    pub candidates: usize,
    pub significant: usize,
    pub sweeps: usize,
}

/// What a replay leaves behind.
pub struct Replayed {
    /// The reference engine of the node that serves queries.
    pub served: SnapshotHandle,
    pub refits: Vec<RefitTrace>,
    pub occupied_cells: usize,
    pub cells: usize,
    pub shard_bytes: Vec<f64>,
    pub sync_bytes: Vec<f64>,
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("replay {what}: {e}")
}

/// The refit stages, run one by one beside the engine's own refresh.
struct Stages {
    acquisition: Acquisition,
    solver: Solver,
    acquire_cache: IncidenceCache,
    resolve_cache: IncidenceCache,
    lattice_order: usize,
    dense_ceiling: usize,
    scratch: SnapshotHandle,
    traces: Vec<RefitTrace>,
}

impl Stages {
    fn new(config: &StreamConfig) -> Stages {
        let acquisition = Acquisition::new(config.acquisition);
        Stages {
            solver: Solver::new(config.acquisition.convergence)
                .with_dense_ceiling(config.acquisition.dense_ceiling),
            acquisition,
            acquire_cache: IncidenceCache::new(),
            resolve_cache: IncidenceCache::new(),
            lattice_order: config.lattice_order,
            dense_ceiling: config.acquisition.dense_ceiling,
            scratch: SnapshotHandle::new(),
            traces: Vec::new(),
        }
    }

    /// One refit point: the stages (traced only), then the engine's own
    /// `refresh`, which is what the server runs.
    fn refit(
        &mut self,
        engine: &mut StreamingEngine,
        tracer: &mut Tracer,
        req: u64,
    ) -> BenchResult<()> {
        if tracer.enabled() {
            let previous = engine.snapshot().ok_or("refit before the first snapshot")?;
            let open = tracer.enter("refit.stages", req);
            let table = tracer.timed("stream.tabulate", req, || engine.current_table());
            let table = table.map_err(err("tabulate"))?;
            let outcome = tracer.timed("core.acquire", req, || {
                self.acquisition
                    .run_warm_started_cached(
                        &table,
                        previous.knowledge_base(),
                        &mut self.acquire_cache,
                    )
                    .or_else(|_| self.acquisition.run_cached(&table, &mut self.acquire_cache))
            });
            let outcome = outcome.map_err(err("acquire"))?;
            let trace = &outcome.trace;
            self.traces.push(RefitTrace {
                rounds: trace.rounds.len(),
                promotions: trace.selected_constraints().len(),
                candidates: trace.total_evaluations(),
                significant: trace.rounds.iter().map(|r| r.significant_count).sum(),
                sweeps: trace.total_solver_iterations(),
            });
            let resolved = tracer.timed("maxent.resolve", req, || {
                self.solver.fit_from_cached(
                    previous.knowledge_base().model().clone(),
                    outcome.knowledge_base.constraints(),
                    &mut self.resolve_cache,
                )
            });
            black_box(resolved.map_err(err("re-solve"))?);
            let (dense_ceiling, lattice_order) = (self.dense_ceiling, self.lattice_order);
            let snapshot = tracer.timed("stream.snapshot_build", req, || {
                Snapshot::with_lattice_order_and_ceiling(
                    outcome.knowledge_base,
                    previous.version() + 1,
                    table.total(),
                    true,
                    lattice_order,
                    dense_ceiling,
                )
            });
            let lattice = tracer.timed("maxent.lattice_build", req, || match snapshot.joint() {
                Some(joint) => MarginalLattice::build(joint, lattice_order),
                None => MarginalLattice::build_factored(snapshot.factor_graph(), lattice_order),
            });
            black_box(lattice);
            let scratch = &self.scratch;
            tracer.timed("stream.publish", req, || scratch.publish(snapshot));
            tracer.exit(open);
        }
        tracer.timed("stream.refresh", req, || engine.refresh()).map_err(err("refresh"))?;
        Ok(())
    }
}

/// Parses a batch's `ingest` line the way the server does (traced runs
/// only; untraced replays take the generated rows directly).
fn batch_rows(
    inputs: &Inputs,
    batch: usize,
    tracer: &mut Tracer,
) -> BenchResult<Option<Vec<Vec<usize>>>> {
    if !tracer.enabled() {
        return Ok(None);
    }
    let line = inputs.batch_lines[batch].trim_end();
    tracer
        .timed("serve.ingest_parse", batch as u64, || {
            protocol::parse_request(line).and_then(|r| protocol::rows_from_value(&r.params))
        })
        .map(Some)
        .map_err(|e| format!("replay parse: {}", e.message))
}

/// A single server: batches → engine (refit policy applied per batch).
pub fn standalone(
    spec: &Spec,
    inputs: &Inputs,
    acked: &[bool],
    tracer: &mut Tracer,
) -> BenchResult<Replayed> {
    let config = stream_config(spec, RefreshPolicy::Manual);
    let mut stages = Stages::new(&config);
    let mut engine =
        StreamingEngine::new(Arc::clone(&inputs.schema), config).map_err(err("engine"))?;
    engine.ingest_batch(&inputs.seed_rows).map_err(err("seed"))?;
    engine.refresh().map_err(err("seed refit"))?;
    let mut refit_points = 0u64;
    for (j, rows) in inputs.batches.iter().enumerate().filter(|(j, _)| acked[*j]) {
        let open = tracer.enter("batch", j as u64);
        let parsed = batch_rows(inputs, j, tracer)?;
        let rows = parsed.as_deref().unwrap_or(rows);
        let absorbed = tracer.timed("stream.absorb", j as u64, || engine.ingest_batch(rows));
        absorbed.map_err(err("absorb"))?;
        tracer.exit(open);
        if engine.pending() >= spec.refit_every {
            stages.refit(&mut engine, tracer, refit_points)?;
            refit_points += 1;
        }
    }
    let table = engine.current_table().map_err(err("tabulate"))?;
    Ok(Replayed {
        served: engine.handle(),
        refits: stages.traces,
        occupied_cells: table.nonzero_cells().count(),
        cells: inputs.schema.cell_count(),
        shard_bytes: Vec::new(),
        sync_bytes: Vec::new(),
    })
}

/// Ingest node → coordinator → replica, one push per batch and one sync
/// per coordinator refit.
pub fn fabric(
    spec: &Spec,
    inputs: &Inputs,
    acked: &[bool],
    tracer: &mut Tracer,
    dir: &Path,
) -> BenchResult<Replayed> {
    let schema = || Arc::clone(&inputs.schema);
    let manual = stream_config(spec, RefreshPolicy::Manual);
    let mut stages = Stages::new(&manual);
    let mut node = StreamingEngine::new(schema(), manual.clone()).map_err(err("engine"))?;
    let mut coordinator = StreamingEngine::new(schema(), manual).map_err(err("engine"))?;
    let mut replica =
        StreamingEngine::new(schema(), StreamConfig::new().with_policy(RefreshPolicy::Manual))
            .map_err(err("engine"))?;
    std::fs::create_dir_all(dir).map_err(err("scratch dir"))?;
    let journal_path = dir.join("replay.journal");
    let (mut journal, _) =
        ShardJournal::open(&journal_path, FsyncPolicy::Interval(Duration::from_millis(100)))
            .map_err(err("journal"))?;
    let mut shard_bytes = Vec::new();
    let mut sync_bytes = Vec::new();

    let mut push = |node: &StreamingEngine,
                    coordinator: &mut StreamingEngine,
                    tracer: &mut Tracer,
                    req: u64|
     -> BenchResult<()> {
        let open = tracer.enter("push", req);
        let seq = node.local_tuples();
        let shard = tracer.timed("stream.export", req, || node.export_local_shard());
        let shard = shard.map_err(err("export"))?;
        let appended = tracer.timed("stream.journal_append", req, || journal.append(seq, &shard));
        appended.map_err(err("journal append"))?;
        let json = tracer.timed("fabric.shard_encode", req, || shard.to_json());
        let json = json.map_err(err("encode"))?;
        shard_bytes.push(json.len() as f64);
        let shard = tracer.timed("fabric.shard_decode", req, || CountShard::from_json(&json));
        let shard = shard.map_err(err("decode"))?;
        let delivery = RemoteDelivery { source: "bench-node".to_string(), seq, shard };
        let outcome = tracer
            .timed("stream.shard_absorb", req, || coordinator.accept_remote_shards(vec![delivery]));
        for result in outcome {
            result.map_err(err("shard absorb"))?;
        }
        tracer.exit(open);
        Ok(())
    };
    let mut sync = |coordinator: &StreamingEngine,
                    replica: &mut StreamingEngine,
                    tracer: &mut Tracer,
                    req: u64|
     -> BenchResult<()> {
        let snapshot = coordinator.snapshot().ok_or("sync before the first snapshot")?;
        let open = tracer.enter("sync", req);
        let (meta, kb) = tracer.timed("fabric.sync_encode", req, || {
            let meta = serde_json::to_string(&snapshot.meta()).expect("meta serialises");
            let kb = serde_json::to_string(snapshot.knowledge_base()).expect("kb serialises");
            (meta, kb)
        });
        sync_bytes.push((meta.len() + kb.len()) as f64);
        let decoded = tracer.timed("fabric.sync_decode", req, || {
            let meta: Value = serde_json::from_str(&meta).map_err(|e| e.to_string())?;
            let kb: Value = serde_json::from_str(&kb).map_err(|e| e.to_string())?;
            let meta = SnapshotMeta::from_value(&meta).map_err(|e| e.to_string())?;
            KnowledgeBase::deserialize(&kb).map(|kb| (meta, kb)).map_err(|e| e.to_string())
        });
        let (meta, kb) = decoded.map_err(err("sync decode"))?;
        let applied =
            tracer.timed("fabric.replica_apply", req, || replica.apply_synced_snapshot(&meta, kb));
        applied.map_err(err("replica apply"))?;
        tracer.exit(open);
        Ok(())
    };

    node.ingest_batch(&inputs.seed_rows).map_err(err("seed"))?;
    push(&node, &mut coordinator, &mut Tracer::new(false), u64::MAX)?;
    coordinator.refresh().map_err(err("seed refit"))?;
    sync(&coordinator, &mut replica, &mut Tracer::new(false), u64::MAX)?;
    let mut refit_points = 0u64;
    for (j, rows) in inputs.batches.iter().enumerate().filter(|(j, _)| acked[*j]) {
        let open = tracer.enter("batch", j as u64);
        let parsed = batch_rows(inputs, j, tracer)?;
        let rows = parsed.as_deref().unwrap_or(rows);
        let absorbed = tracer.timed("stream.absorb", j as u64, || node.ingest_batch(rows));
        absorbed.map_err(err("absorb"))?;
        tracer.exit(open);
        push(&node, &mut coordinator, tracer, j as u64)?;
        if coordinator.pending() >= spec.refit_every {
            stages.refit(&mut coordinator, tracer, refit_points)?;
            sync(&coordinator, &mut replica, tracer, refit_points)?;
            refit_points += 1;
        }
    }
    drop(journal);
    let _ = std::fs::remove_file(&journal_path);
    let table = coordinator.current_table().map_err(err("tabulate"))?;
    Ok(Replayed {
        served: replica.handle(),
        refits: stages.traces,
        occupied_cells: table.nonzero_cells().count(),
        cells: inputs.schema.cell_count(),
        shard_bytes,
        sync_bytes,
    })
}

/// The server's answer fields for one query, computed on `snapshot`.
fn answer_value(snapshot: &Snapshot, target: Assignment, evidence: Assignment) -> Value {
    let kb = snapshot.knowledge_base();
    let evidence_p = kb.probability(&evidence);
    let merged = target.merge(&evidence).expect("probes never conflict");
    let joint_p = kb.probability(&merged);
    let prior_p = kb.probability(&target);
    let p = joint_p / evidence_p;
    let description = Query::conditional(target, evidence).describe(kb.schema());
    protocol::object([
        ("probability", Value::F64(p)),
        ("joint_probability", Value::F64(joint_p)),
        ("evidence_probability", Value::F64(evidence_p)),
        ("prior_probability", Value::F64(prior_p)),
        ("lift", Value::F64(p / prior_p)),
        ("description", Value::Str(description)),
        ("snapshot_version", Value::U64(snapshot.version())),
        ("observations", Value::U64(snapshot.observations())),
    ])
}

/// Replays the first `count` queries of the run through the read path:
/// parse, snapshot load, evaluation, serialise; then the evaluator alone
/// (a lattice lookup, or the dense stride walk / elimination a miss
/// takes).  Returns the wall time of the whole replay.
pub fn read_path(
    inputs: &Inputs,
    served: &SnapshotHandle,
    count: usize,
    tracer: &mut Tracer,
) -> BenchResult<Duration> {
    let started = Instant::now();
    let mut line = Vec::with_capacity(256);
    for (i, &probe_index) in inputs.query_seq.iter().take(count).enumerate() {
        let req = i as u64;
        let probe = &inputs.probes[probe_index as usize];
        line.clear();
        query_line(&mut line, req, probe);
        let text = std::str::from_utf8(&line[..line.len() - 1]).expect("query lines are ASCII");
        let open = tracer.enter("query", req);
        let request = tracer.timed("serve.parse", req, || protocol::parse_request(text));
        let request = request.map_err(|e| format!("replay parse: {}", e.message))?;
        let snapshot = tracer.timed("stream.snapshot_load", req, || served.load());
        let snapshot = snapshot.ok_or("no reference snapshot")?;
        let value = tracer.timed("core.query_eval", req, || {
            let schema = snapshot.knowledge_base().schema();
            let target = request.params.get("target").expect("probe has a target");
            let evidence = request.params.get("evidence").expect("probe has evidence");
            let target = protocol::assignment_from_value(schema, target, "target");
            let evidence = protocol::assignment_from_value(schema, evidence, "evidence");
            match (target, evidence) {
                (Ok(t), Ok(e)) => Ok(answer_value(&snapshot, t, e)),
                _ => Err("probe does not fit the schema".to_string()),
            }
        })?;
        let reply = tracer.timed("serve.serialize", req, || protocol::ok_line(&request.id, value));
        black_box(reply);
        tracer.exit(open);

        let merged = probe.target.merge(&probe.evidence).expect("probes never conflict");
        let lattice = snapshot.lattice();
        let p = if lattice.covers(merged.vars()) {
            tracer.timed("maxent.eval_hit", req, || lattice.probability(&merged))
        } else {
            tracer.timed("maxent.eval_miss", req, || {
                Some(match snapshot.joint() {
                    Some(joint) => joint.probability(&merged),
                    None => snapshot.factor_graph().probability(&merged),
                })
            })
        };
        black_box(p);
    }
    Ok(started.elapsed())
}

/// The reference answer `P(target | evidence)` of a probe.
pub fn reference_answer(
    served: &SnapshotHandle,
    target: &Assignment,
    evidence: &Assignment,
) -> Option<f64> {
    served.load()?.knowledge_base().conditional(target, evidence).ok()
}
