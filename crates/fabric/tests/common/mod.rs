//! What the fabric scenarios run on, shared by `fabric_e2e.rs` and
//! `chaos_recovery.rs`: each scenario body takes a [`Workload`], so the
//! same assertions run on the memo-sized schema and on a wide one.

use pka_contingency::{Assignment, Schema};
use pka_core::{Acquisition, AcquisitionConfig, KnowledgeBase};
use pka_datagen::{sampler::seeded_rng, WideExperiment};
use pka_maxent::ConvergenceCriteria;
use pka_serve::LineClient;
use pka_stream::CountShard;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows every scenario can draw from (the largest ingests 480).
const POOL: usize = 480;

/// A schema, the rows ingested into it (drawn in order), and the
/// acquisition settings shared by the coordinator and the one-shot oracle.
pub struct Workload {
    schema: Arc<Schema>,
    pool: Vec<Vec<usize>>,
    acquisition: AcquisitionConfig,
}

/// A solver setting tight enough that warm-started coordinator refits and
/// the cold one-shot fit agree far below the 1e-9 assertion threshold.
fn tight_acquisition() -> AcquisitionConfig {
    AcquisitionConfig::new().with_convergence(
        ConvergenceCriteria::new().with_tolerance(1e-13).with_max_iterations(5000),
    )
}

impl Workload {
    /// Three attributes (3×2×2) with deterministic correlated rows: attr1
    /// follows attr0's parity, attr2 cycles slowly — enough structure for
    /// acquisition to find constraints.
    pub fn narrow() -> Self {
        let pool = (0..POOL)
            .map(|k| {
                let a = k % 3;
                let b = if k % 7 == 0 { 1 - (a % 2) } else { a % 2 };
                let c = (k / 5) % 2;
                vec![a, b, c]
            })
            .collect();
        Self {
            schema: Schema::uniform(&[3, 2, 2]).unwrap().into_shared(),
            pool,
            acquisition: tight_acquisition(),
        }
    }

    /// Twenty binary attributes (2^20 cells, past the dense ceiling) with
    /// rows drawn from a ground truth with planted pairwise dependencies;
    /// acquisition searches pairwise only, with a small promotion budget.
    pub fn wide() -> Self {
        let experiment = WideExperiment::generate(20, 2, 4, 5.0, &mut seeded_rng(31));
        let dataset = experiment.sample_dataset(POOL as u64, &mut seeded_rng(32));
        Self {
            schema: Arc::clone(experiment.schema()),
            pool: dataset.samples().iter().map(|s| s.values().to_vec()).collect(),
            acquisition: tight_acquisition().with_max_order(2).with_max_constraints_per_order(2),
        }
    }

    /// The schema, as every node is started with it.
    pub fn schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// The acquisition settings for the coordinator's engine.
    pub fn acquisition(&self) -> AcquisitionConfig {
        self.acquisition
    }

    /// `n` rows starting at `offset` in the workload's row sequence.
    pub fn rows(&self, offset: usize, n: usize) -> Vec<Vec<usize>> {
        self.pool[offset..offset + n].to_vec()
    }

    /// One-shot acquisition over `all_rows`, the convergence oracle.  It
    /// answers by variable elimination, so a wide oracle never walks the
    /// dense joint.
    pub fn one_shot(&self, all_rows: &[Vec<usize>]) -> KnowledgeBase {
        let mut shard = CountShard::new(self.schema());
        shard.record_batch(all_rows).unwrap();
        let table = shard.into_table();
        assert_eq!(table.total(), all_rows.len() as u64);
        let mut oracle = Acquisition::new(self.acquisition()).run(&table).unwrap().knowledge_base;
        oracle.attach_factor_graph(Arc::new(oracle.factor_graph())).unwrap();
        oracle
    }

    /// Asserts a live node's first-order marginals — every value of every
    /// attribute — match the oracle to 1e-9.
    pub fn assert_converged(&self, addr: std::net::SocketAddr, oracle: &KnowledgeBase) {
        let mut client = LineClient::connect(addr).unwrap();
        for (attr, attribute) in self.schema.attributes().iter().enumerate() {
            for v in 0..attribute.cardinality() {
                let (name, value) = (attribute.name(), format!("v{v}"));
                let answer = client.query(&[(name, value.as_str())], &[]).unwrap();
                let expected = oracle.probability(&Assignment::single(attr, v));
                assert!(
                    (answer.probability - expected).abs() < 1e-9,
                    "P({name}={value}): fabric {} vs one-shot {expected}",
                    answer.probability,
                );
            }
        }
    }
}

pub fn wait_for(timeout: Duration, what: &str, mut check: impl FnMut() -> bool) {
    let start = Instant::now();
    while !check() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}
