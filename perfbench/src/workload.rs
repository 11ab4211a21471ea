//! The three workloads and the inputs each one generates from a seed.
//!
//! Every input a run sends — seed rows, ingest batches and the query mix —
//! is generated here before timing starts.  The ground-truth models are
//! fixed per workload; `--seed` only changes which rows and queries are
//! drawn from them, so two seeds give two samples of the same workload.

use pka_contingency::{Assignment, Schema, VarSet};
use pka_datagen::sampler::seeded_rng;
use pka_datagen::WideExperiment;
use pka_serve::protocol;
use rand::prelude::*;
use serde::Value;
use std::sync::Arc;

/// Where the workload's writes and reads go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `pka_serve::Server` takes both ingest and queries.
    Standalone,
    /// Ingest node → coordinator → replica; queries go to the replica.
    Fabric,
}

/// One workload: schema, rates, refit policy and query mix.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub topology: Topology,
    /// Binary attributes of the generated schema; 0 selects the 144-cell
    /// survey schema.
    pub binary_attributes: usize,
    pub seed_rows: usize,
    pub batch_rows: usize,
    /// Ingest batches sent per second (open loop).
    pub batch_hz: f64,
    /// Queries sent per second in the open-loop phase.
    pub query_hz: f64,
    /// Share of queries whose variables span three attributes, so the
    /// order-2 lattice misses and the evaluator falls back to the dense
    /// stride walk or variable elimination.
    pub miss_frac: f64,
    /// `RefreshPolicy::EveryNTuples` on the node that fits.
    pub refit_every: u64,
    /// Constraint-order cap of the acquisition search, when set.
    pub max_order: Option<usize>,
    /// Whether ingest continues through the closed-loop phase.  Where it
    /// stops, the closed loop measures reads alone: the refit and sync
    /// bursts of the write side moved that throughput by a quarter
    /// between runs.
    pub writes_in_closed_loop: bool,
}

/// Pipelined `query` lines kept in flight in the closed-loop phase.
pub const CLOSED_LOOP_DEPTH: usize = 64;

/// Seed of the fixed ground-truth model of the binary-attribute workloads.
const MODEL_SEED: u64 = 31;

pub const WORKLOADS: [Spec; 3] = [
    // The read path under writes: reactor, protocol and lattice work
    // dominate; the solver does little.
    Spec {
        name: "survey_mixed",
        topology: Topology::Standalone,
        binary_attributes: 0,
        seed_rows: 20_000,
        batch_rows: 250,
        batch_hz: 20.0,
        query_hz: 4_000.0,
        miss_frac: 0.2,
        refit_every: 2_000,
        max_order: None,
        writes_in_closed_loop: true,
    },
    // The write side past the dense ceiling (2^20 cells, factored path):
    // scoring, tests, factored solve, elimination-built lattice, publish.
    // A refit here takes ~0.8 s under this load and the acknowledgement of
    // the batch that trips it waits for it, so the batches due meanwhile
    // queue behind it.  At one refit per 8 batches that was 4 of every 8,
    // which put the ack median on the edge between the two modes; one per
    // 16 keeps it in the fast mode.  Likewise three queries in four are
    // eliminations, so the RTT median sits inside one population.
    Spec {
        name: "wide_refit",
        topology: Topology::Standalone,
        binary_attributes: 20,
        seed_rows: 5_000,
        batch_rows: 250,
        batch_hz: 4.0,
        query_hz: 500.0,
        miss_frac: 0.75,
        refit_every: 4_000,
        max_order: Some(2),
        writes_in_closed_loop: false,
    },
    // Shard encode/decode/absorb, journal, snapshot sync and replica apply
    // run only here; 2^16 cells keeps the refits on the dense path.
    Spec {
        name: "fabric_sync",
        topology: Topology::Fabric,
        binary_attributes: 16,
        seed_rows: 4_000,
        batch_rows: 200,
        batch_hz: 10.0,
        query_hz: 200.0,
        miss_frac: 0.2,
        refit_every: 4_000,
        max_order: Some(2),
        writes_in_closed_loop: false,
    },
];

impl Spec {
    pub fn named(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|w| w.name == name)
    }
}

/// One distinct question of the query mix.
#[derive(Debug, Clone)]
pub struct Probe {
    pub target: Assignment,
    pub evidence: Assignment,
    /// `{"target": {...}, "evidence": {...}}`, ready to splice into a line.
    pub params: Value,
    pub params_json: String,
    /// True when `target ∪ evidence` spans more attributes than the lattice.
    pub miss: bool,
}

/// Everything a run sends, generated before timing starts.
pub struct Inputs {
    pub schema: Arc<Schema>,
    pub seed_rows: Vec<Vec<usize>>,
    pub batches: Vec<Vec<Vec<usize>>>,
    /// One `ingest` line per batch, id = batch index, newline-terminated.
    pub batch_lines: Vec<String>,
    pub probes: Vec<Probe>,
    /// Probe index of each query, in send order (the closed-loop phase
    /// wraps around).
    pub query_seq: Vec<u32>,
}

/// Length of the open-loop query phase; the closed-loop phase takes the
/// rest of the run.  Ingest runs for the whole run.
pub fn open_loop_share(seconds: f64) -> f64 {
    seconds * 5.0 / 6.0
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64, seconds: f64) -> Inputs {
        let sampler = RowSampler::for_spec(spec);
        let schema = Arc::clone(&sampler.schema);
        let mut rows_rng = seeded_rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0DA7A);
        let seed_rows = (0..spec.seed_rows).map(|_| sampler.row(&mut rows_rng)).collect();
        let write_secs =
            if spec.writes_in_closed_loop { seconds } else { open_loop_share(seconds) };
        let batch_count = (spec.batch_hz * write_secs).round() as usize;
        let batches: Vec<Vec<Vec<usize>>> = (0..batch_count)
            .map(|_| (0..spec.batch_rows).map(|_| sampler.row(&mut rows_rng)).collect())
            .collect();
        let batch_lines =
            batches.iter().enumerate().map(|(i, rows)| ingest_line(i as u64, rows)).collect();

        let mut query_rng = seeded_rng(seed ^ 0x5EED_F00D);
        let probes = probe_pool(&schema, &mut query_rng);
        let (hits, misses): (Vec<u32>, Vec<u32>) =
            (0..probes.len() as u32).partition(|&i| !probes[i as usize].miss);
        let query_count = (spec.query_hz * open_loop_share(seconds)).round() as usize;
        let query_seq = (0..query_count.max(1))
            .map(|_| {
                let kind = if query_rng.random::<f64>() < spec.miss_frac { &misses } else { &hits };
                kind[query_rng.random_range(0..kind.len())]
            })
            .collect();
        Inputs { schema, seed_rows, batches, batch_lines, probes, query_seq }
    }
}

/// Probes per kind (lattice hit / lattice miss) in the query pool.
const PROBES_PER_KIND: usize = 64;

/// Hits ask `P(a | b)` (two attributes, inside the order-2 lattice); misses
/// ask `P(a | b, c)`, whose joint term spans three attributes.
fn probe_pool(schema: &Schema, rng: &mut StdRng) -> Vec<Probe> {
    let n = schema.len();
    let mut probes = Vec::with_capacity(2 * PROBES_PER_KIND);
    for miss in [false, true] {
        for _ in 0..PROBES_PER_KIND {
            // A partial Fisher-Yates shuffle: three distinct attributes.
            let mut attrs: Vec<usize> = (0..n).collect();
            for i in 0..3 {
                let j = rng.random_range(i..n);
                attrs.swap(i, j);
            }
            let mut pick = |attr: usize| {
                let card = schema.cardinality(attr).expect("attribute in schema");
                (attr, rng.random_range(0..card))
            };
            let target = Assignment::from_pairs([pick(attrs[0])]);
            let evidence = if miss {
                Assignment::from_pairs([pick(attrs[1]), pick(attrs[2])])
            } else {
                Assignment::from_pairs([pick(attrs[1])])
            };
            let params = protocol::object([
                ("target", protocol::assignment_to_value(schema, &target)),
                ("evidence", protocol::assignment_to_value(schema, &evidence)),
            ]);
            let params_json = serde_json::to_string(&params).expect("value serialises");
            probes.push(Probe { target, evidence, params, params_json, miss });
        }
    }
    probes
}

/// A newline-terminated `query` request line.
pub fn query_line(out: &mut Vec<u8>, id: u64, probe: &Probe) {
    out.extend_from_slice(b"{\"id\":");
    out.extend_from_slice(id.to_string().as_bytes());
    out.extend_from_slice(b",\"method\":\"query\",\"params\":");
    out.extend_from_slice(probe.params_json.as_bytes());
    out.extend_from_slice(b"}\n");
}

fn ingest_line(id: u64, rows: &[Vec<usize>]) -> String {
    let rows = Value::Array(
        rows.iter()
            .map(|r| Value::Array(r.iter().map(|&v| Value::U64(v as u64)).collect()))
            .collect(),
    );
    let mut line = protocol::request_line(id, "ingest", &protocol::object([("rows", rows)]));
    line.push('\n');
    line
}

/// Exact sampler for a ground truth that splits into independent groups
/// of attributes: each group's marginal is computed once, and a row is one
/// categorical draw per group.
struct RowSampler {
    schema: Arc<Schema>,
    /// (member attributes ascending, their cardinalities, cumulative
    /// marginal in row-major order with the last member fastest).
    groups: Vec<(Vec<usize>, Vec<usize>, Vec<f64>)>,
}

impl RowSampler {
    fn for_spec(spec: &Spec) -> RowSampler {
        if spec.binary_attributes == 0 {
            let joint = pka_datagen::survey::ground_truth();
            let schema = joint.shared_schema();
            let members: Vec<usize> = (0..schema.len()).collect();
            let cards = members.iter().map(|&a| schema.cardinality(a).expect("attr")).collect();
            return RowSampler { groups: vec![(members, cards, joint.cumulative())], schema };
        }
        let experiment = WideExperiment::generate(
            spec.binary_attributes,
            2,
            4,
            5.0,
            &mut seeded_rng(MODEL_SEED),
        );
        let schema = Arc::clone(experiment.schema());
        // Union-find over the planted pairs: attributes joined by a planted
        // factor are dependent and must be drawn together.
        let mut parent: Vec<usize> = (0..schema.len()).collect();
        fn root(parent: &mut [usize], mut a: usize) -> usize {
            while parent[a] != a {
                parent[a] = parent[parent[a]];
                a = parent[a];
            }
            a
        }
        for planted in experiment.planted() {
            let vars: Vec<usize> = planted.assignment.vars().iter().collect();
            for pair in vars.windows(2) {
                let (x, y) = (root(&mut parent, pair[0]), root(&mut parent, pair[1]));
                parent[x] = y;
            }
        }
        let mut groups: Vec<(Vec<usize>, Vec<usize>, Vec<f64>)> = Vec::new();
        for a in 0..schema.len() {
            if root(&mut parent, a) != a {
                continue;
            }
            let members: Vec<usize> =
                (0..schema.len()).filter(|&b| root(&mut parent, b) == a).collect();
            let cards = members.iter().map(|&m| schema.cardinality(m).expect("attr")).collect();
            let marginal = experiment.graph().marginal(VarSet::from_indices(members.clone()));
            let cumulative = marginal
                .iter()
                .scan(0.0, |acc, p| {
                    *acc += p;
                    Some(*acc)
                })
                .collect();
            groups.push((members, cards, cumulative));
        }
        RowSampler { schema, groups }
    }

    fn row(&self, rng: &mut StdRng) -> Vec<usize> {
        let mut values = vec![0usize; self.schema.len()];
        for (members, cards, cumulative) in &self.groups {
            let total = *cumulative.last().expect("non-empty marginal");
            let u = rng.random::<f64>() * total;
            let mut cell = cumulative.partition_point(|&c| c <= u).min(cumulative.len() - 1);
            for (&attr, &card) in members.iter().zip(cards).rev() {
                values[attr] = cell % card;
                cell /= card;
            }
        }
        values
    }
}
