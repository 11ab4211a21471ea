//! Correctness gates, metric computation and the two outputs of a run:
//! the contract's last stdout line and the self-stamped results file.

use crate::load::{ConnLog, Outcome, Record, BUCKET};
use crate::replay::{self, Replayed};
use crate::system::{BenchResult, Counters, System};
use crate::workload::{open_loop_share, Inputs, Spec, Topology};
use pka_serve::LineClient;
use pka_stream::SnapshotHandle;
use serde::Value;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Answers must agree with their reference to this absolute tolerance.
const AGREEMENT: f64 = 1e-9;

/// Nearest-rank percentile (`q` in [0, 1]); 0 for an empty sample.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    percentile(&mut values.to_vec(), 0.5)
}

/// Percentile `q` of the samples due in the quieter seconds of the run.
///
/// The hypervisor of this kind of host steals CPU in bursts of seconds
/// (`steal_s_by_second` in the results file): in a burst, a query's round
/// trip grows up to tenfold, and a run's tail followed how much of the run
/// a burst covered.  So the open-loop phase is cut into one-second windows,
/// taken in order of increasing steal until at least half of them are in
/// and the pooled sample has ten values beyond the percentile; windows tied
/// with the last one taken come in too (on a host that reports no steal,
/// that is every window).  Windows with the least steal are the ones the
/// program, not the host, decided.
fn quiet_percentile(samples: &[(Duration, f64)], steal_by_second: &[f64], q: f64) -> f64 {
    let seconds = steal_by_second.len().max(1);
    let mut by_window = vec![Vec::new(); seconds];
    for &(due, value) in samples {
        by_window[(due.as_secs() as usize).min(seconds - 1)].push(value);
    }
    let steal = |w: usize| steal_by_second.get(w).copied().unwrap_or(0.0);
    let mut order: Vec<usize> = (0..seconds).collect();
    order.sort_by(|&a, &b| steal(a).total_cmp(&steal(b)).then(a.cmp(&b)));
    let mut pooled = Vec::new();
    let mut threshold = None;
    for (taken, &w) in order.iter().enumerate() {
        if threshold.is_some_and(|t| steal(w) > t) {
            break;
        }
        pooled.extend_from_slice(&by_window[w]);
        let beyond = pooled.len() as f64 * (1.0 - q);
        if threshold.is_none() && 2 * (taken + 1) >= seconds && beyond >= 10.0 {
            threshold = Some(steal(w));
        }
    }
    percentile(&mut pooled, q)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Every correctness check of a run, passed or not.
#[derive(Debug, Default)]
pub struct Gates {
    checks: Vec<(String, bool)>,
}

impl Gates {
    pub fn check(&mut self, ok: bool, what: String) {
        self.checks.push((what, ok));
    }

    pub fn passed(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn summary(&self) -> String {
        let failed: Vec<&str> =
            self.checks.iter().filter(|(_, ok)| !ok).map(|(w, _)| w.as_str()).collect();
        if failed.is_empty() {
            format!("all {} gates passed", self.checks.len())
        } else {
            format!("{} of {} gates failed: {}", failed.len(), self.checks.len(), failed.join("; "))
        }
    }

    /// Both connections lasted the run; every answer is a probability, and
    /// versions and observations never decrease on the query connection.
    pub fn check_connections(&mut self, queries: &ConnLog, ingest: &ConnLog) {
        for (name, log) in [("query", queries), ("ingest", ingest)] {
            if let Some(e) = &log.io_error {
                self.check(false, format!("{name} connection ended early: {e}"));
            }
        }
        let answers = &queries.answers;
        let outside = answers.out_of_range;
        self.check(outside == 0, format!("every answer in [0,1] ({outside} outside)"));
        let decreases = answers.decreases;
        self.check(
            decreases == 0,
            format!("versions and observations never decrease ({decreases} decreases)"),
        );
    }

    /// Every end-to-end metric had samples to measure (none reads 0).
    pub fn check_measured(&mut self, metrics: &[Metric]) {
        let empty: Vec<&str> = metrics
            .iter()
            .filter(|(_, v, _)| !v.is_finite() || *v <= 0.0)
            .map(|(n, _, _)| *n)
            .collect();
        self.check(empty.is_empty(), format!("every end-to-end metric measured ({empty:?} not)"));
    }

    /// The served answers equal an in-process engine fed the same batches.
    pub fn check_against_reference(
        &mut self,
        system: &System,
        inputs: &Inputs,
        reference: &SnapshotHandle,
    ) -> BenchResult<()> {
        let snapshot = reference.load().ok_or("reference engine published nothing")?;
        let mut client = LineClient::connect(system.query_addr()).map_err(|e| e.to_string())?;
        let mut worst = 0.0f64;
        let mut mismatched_versions = 0;
        for probe in &inputs.probes {
            let served = client.call("query", probe.params.clone()).map_err(|e| e.to_string())?;
            let p = served.get("probability").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let version = served.get("snapshot_version").and_then(Value::as_u64);
            let observations = served.get("observations").and_then(Value::as_u64);
            if version != Some(snapshot.version()) || observations != Some(snapshot.observations())
            {
                mismatched_versions += 1;
            }
            let expected = replay::reference_answer(reference, &probe.target, &probe.evidence)
                .unwrap_or(f64::NAN);
            worst = worst.max((p - expected).abs()).max(if p.is_nan() { 1.0 } else { 0.0 });
        }
        self.check(
            mismatched_versions == 0,
            format!(
                "served snapshot is the reference's (version {}, {} observations)",
                snapshot.version(),
                snapshot.observations()
            ),
        );
        self.check(
            worst <= AGREEMENT,
            format!("served answers agree with the reference engine (max diff {worst:.3e})"),
        );
        Ok(())
    }

    /// The coordinator absorbed every row sent, and the replica answers as
    /// the coordinator does at equal version.
    pub fn check_fabric(&mut self, system: &System, inputs: &Inputs, rows: u64) -> BenchResult<()> {
        let connect = |addr| LineClient::connect(addr).map_err(|e| e.to_string());
        let mut coordinator = connect(system.fit_addr())?;
        let mut replica = connect(system.query_addr())?;
        let give_up = Instant::now() + Duration::from_secs(30);
        let mut absorbed = 0;
        while Instant::now() < give_up {
            absorbed = coordinator.stats().map_err(|e| e.to_string())?.total_ingested;
            if absorbed == rows {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.check(
            absorbed == rows,
            format!("coordinator holds every row sent ({absorbed} of {rows})"),
        );
        let version = coordinator.refresh().map_err(|e| e.to_string())?.version;
        let mut synced = None;
        while Instant::now() < give_up {
            synced = replica.snapshot_version().map_err(|e| e.to_string())?;
            if synced == Some(version) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.check(
            synced == Some(version),
            format!("replica reaches the coordinator's version {version} ({synced:?})"),
        );
        let mut worst = 0.0f64;
        for probe in &inputs.probes {
            let ask = |client: &mut LineClient| -> BenchResult<f64> {
                let answer =
                    client.call("query", probe.params.clone()).map_err(|e| e.to_string())?;
                Ok(answer.get("probability").and_then(Value::as_f64).unwrap_or(f64::NAN))
            };
            let (c, r) = (ask(&mut coordinator)?, ask(&mut replica)?);
            worst = worst.max((c - r).abs()).max(if c.is_nan() || r.is_nan() { 1.0 } else { 0.0 });
        }
        self.check(
            worst <= AGREEMENT,
            format!("replica agrees with the coordinator (max diff {worst:.3e})"),
        );
        Ok(())
    }
}

/// Everything one run measured.
pub struct Report {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setup_s: Vec<f64>,
    pub queries: ConnLog,
    pub ingest: ConnLog,
    pub gates: Gates,
    pub seed_rows: usize,
    pub batch_rows: Vec<usize>,
    pub rss_peak_mb: f64,
    /// CPU seconds the hypervisor gave other guests during the timed phase.
    pub host_steal_s: f64,
    pub journal_bytes: u64,
    pub counters: Option<Counters>,
    pub trace_overhead_frac: Option<f64>,
    /// Per span name: durations and self times (ns).
    pub spans: Vec<(&'static str, Vec<f64>, Vec<f64>)>,
    pub replayed: Option<Replayed>,
    /// Wall seconds of each phase of the run.
    pub phases: Vec<(&'static str, f64)>,
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// How one generator stream kept its schedule.
struct Health {
    scheduled_hz: f64,
    achieved_hz: f64,
    lag_p50_us: f64,
    lag_p99_us: f64,
}

impl Health {
    fn of(log: &ConnLog) -> Health {
        let open = &log.records;
        let mut lags: Vec<f64> =
            open.iter().map(|r| r.sent.saturating_sub(r.due).as_secs_f64() * 1e6).collect();
        let rate = |first: Duration, last: Duration| {
            let span = last.saturating_sub(first).as_secs_f64();
            if open.len() < 2 || span <= 0.0 {
                0.0
            } else {
                (open.len() - 1) as f64 / span
            }
        };
        let (first, last) = (open.first(), open.last());
        Health {
            scheduled_hz: first.zip(last).map_or(0.0, |(f, l)| rate(f.due, l.due)),
            achieved_hz: first.zip(last).map_or(0.0, |(f, l)| rate(f.sent, l.sent)),
            lag_p50_us: percentile(&mut lags, 0.5),
            lag_p99_us: percentile(&mut lags, 0.99),
        }
    }

    /// Behind: the achieved rate fell 1% short of the schedule, or the
    /// 99th-percentile send was late by more than one period and 2 ms.
    fn behind(&self) -> bool {
        let period_us = if self.scheduled_hz > 0.0 { 1e6 / self.scheduled_hz } else { 0.0 };
        self.achieved_hz < 0.99 * self.scheduled_hz || self.lag_p99_us > period_us.max(2_000.0)
    }
}

impl Report {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        spec: &'static Spec,
        seed: u64,
        inputs: &Inputs,
        seconds: f64,
        trace: bool,
        setup_s: Vec<f64>,
        queries: ConnLog,
        ingest: ConnLog,
        gates: Gates,
    ) -> Report {
        Report {
            spec,
            seed,
            seconds,
            trace,
            setup_s,
            queries,
            ingest,
            gates,
            seed_rows: inputs.seed_rows.len(),
            batch_rows: inputs.batches.iter().map(Vec::len).collect(),
            rss_peak_mb: 0.0,
            host_steal_s: 0.0,
            journal_bytes: 0,
            counters: None,
            trace_overhead_frac: None,
            spans: Vec::new(),
            replayed: None,
            phases: Vec::new(),
        }
    }

    fn rtt_samples_us(&self) -> Vec<f64> {
        self.queries.records.iter().filter(|r| r.ok()).filter_map(Record::latency_us).collect()
    }

    fn open_phase(&self) -> Duration {
        Duration::from_secs_f64(open_loop_share(self.seconds))
    }

    /// Host steal in each second of the open-loop phase.
    fn steal_by_second(&self) -> Vec<f64> {
        let seconds = self.open_phase().as_secs() as usize;
        self.queries.steal.windows(2).take(seconds).map(|w| w[1].1 - w[0].1).collect()
    }

    fn rtt_us(&self, q: f64) -> f64 {
        let samples: Vec<(Duration, f64)> = self
            .queries
            .records
            .iter()
            .filter(|r| r.ok())
            .filter_map(|r| Some((r.due, r.latency_us()?)))
            .collect();
        quiet_percentile(&samples, &self.steal_by_second(), q)
    }

    fn ack_us(&self, q: f64) -> f64 {
        let samples: Vec<(Duration, f64)> = self.ingest.records[..self.open_phase_batches()]
            .iter()
            .filter(|r| r.ok())
            .filter_map(|r| Some((r.due, r.latency_us()?)))
            .collect();
        quiet_percentile(&samples, &self.steal_by_second(), q)
    }

    /// Successful replies per second in each full bucket of the closed
    /// loop; the median of these is reported.
    fn closed_qps(&self) -> Vec<f64> {
        let closed = &self.queries.closed;
        let Some((start, end)) = closed.window else { return Vec::new() };
        let full = (end - start).div_duration_f64(BUCKET) as usize;
        closed.completions[..full.min(closed.completions.len())]
            .iter()
            .map(|&n| n as f64 / BUCKET.as_secs_f64())
            .collect()
    }

    /// Batches due in the open-loop phase.  The writer keeps sending
    /// during the closed loop, but there the query stream saturates both
    /// cores, and mixing the two regimes would make the ingest percentiles
    /// depend on how many batches fall in each.
    fn open_phase_batches(&self) -> usize {
        let end = self.open_phase();
        self.ingest.records.partition_point(|r| r.due < end)
    }

    fn ack_samples_us(&self, refit: Option<bool>) -> Vec<f64> {
        self.ingest.records[..self.open_phase_batches()]
            .iter()
            .filter(|r| match (&r.outcome, refit) {
                (Some(Outcome::Ack { .. }), None) => true,
                (Some(Outcome::Ack { refit: was }), Some(want)) => *was == want,
                _ => false,
            })
            .filter_map(Record::latency_us)
            .collect()
    }

    /// Per acknowledged open-phase batch: ms from its due time to the
    /// first answer whose `observations` cover it.  Batches no answer
    /// covered before the run ended are left out.
    fn visible_ms(&self) -> Vec<f64> {
        let answers = &self.queries.answers.timeline;
        let mut covered = self.seed_rows as u64;
        let mut visible = Vec::new();
        let open = self.open_phase_batches();
        for (record, rows) in self.ingest.records[..open].iter().zip(&self.batch_rows) {
            if !record.ok() {
                continue;
            }
            covered += *rows as u64;
            let first = answers.partition_point(|a| a.1 < covered);
            if let Some((done, _)) = answers.get(first) {
                visible.push(done.saturating_sub(record.due).as_secs_f64() * 1e3);
            }
        }
        visible
    }

    fn failures(&self) -> Vec<(String, u64)> {
        let mut all = self.queries.failures();
        for (reason, n) in self.ingest.failures() {
            match all.iter_mut().find(|(r, _)| *r == reason) {
                Some((_, m)) => *m += n,
                None => all.push((reason, n)),
            }
        }
        all
    }

    fn attempted(&self) -> u64 {
        self.queries.attempted() + self.ingest.attempted()
    }

    fn failed(&self) -> u64 {
        self.failures().iter().map(|(_, n)| n).sum()
    }

    pub fn generator_behind(&self) -> bool {
        Health::of(&self.queries).behind() || Health::of(&self.ingest).behind()
    }

    pub fn end_to_end(&self) -> Vec<Metric> {
        let mut visible = self.visible_ms();
        let attempted = self.attempted().max(1) as f64;
        vec![
            ("setup_s", median(&self.setup_s), "s"),
            ("query_rtt_p50_us", self.rtt_us(0.5), "us"),
            ("query_throughput_qps", median(&self.closed_qps()), "1/s"),
            ("ingest_ack_p50_us", self.ack_us(0.5), "us"),
            ("ingest_ack_p90_us", self.ack_us(0.9), "us"),
            ("visible_p50_ms", percentile(&mut visible, 0.5), "ms"),
            ("visible_p90_ms", percentile(&mut visible, 0.9), "ms"),
            ("rss_peak_mb", self.rss_peak_mb, "MiB"),
            ("ok_frac", 1.0 - self.failed() as f64 / attempted, "frac"),
        ]
    }

    fn span_p(&self, name: &str, q: f64, scale: f64) -> f64 {
        self.spans
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, durations, _)| percentile(&mut durations.clone(), q) / scale)
    }

    pub fn per_layer(&self) -> Vec<Metric> {
        let (us, ms) = (1e3, 1e6);
        let p50 = |name: &str, scale: f64| self.span_p(name, 0.5, scale);
        let rtt_p50 = self.rtt_us(0.5);
        let read_replayed = p50("serve.parse", us)
            + p50("stream.snapshot_load", us)
            + p50("core.query_eval", us)
            + p50("serve.serialize", us);
        let plain_ack_p50 = percentile(&mut self.ack_samples_us(Some(false)), 0.5);
        // An ingest node also exports and journals its shard before it acks.
        let write_replayed = p50("serve.ingest_parse", us)
            + p50("stream.absorb", us)
            + p50("stream.export", us)
            + p50("stream.journal_append", us);
        let fabric = self.spec.topology == Topology::Fabric;
        let empty = Vec::new();
        let refits = self.replayed.as_ref().map_or(&empty, |r| &r.refits);
        let per_refit =
            |f: fn(&replay::RefitTrace) -> usize| mean(refits.iter().map(|t| f(t) as f64));
        let candidates: usize = refits.iter().map(|t| t.candidates).sum();
        let significant: usize = refits.iter().map(|t| t.significant).sum();
        let replayed = |f: fn(&Replayed) -> f64| self.replayed.as_ref().map_or(0.0, f);
        let c = self.counters.as_ref();
        let counter = |f: fn(&Counters) -> u64| c.map_or(0.0, |c| f(c) as f64);
        let lookups = counter(|c| c.query_server.lattice_hits + c.query_server.lattice_misses);
        let gen_lag = Health::of(&self.queries).lag_p99_us.max(Health::of(&self.ingest).lag_p99_us);
        vec![
            ("serve.parse_us_p50", p50("serve.parse", us), "us"),
            ("serve.serialize_us_p50", p50("serve.serialize", us), "us"),
            ("serve.ingest_parse_us_p50", p50("serve.ingest_parse", us), "us"),
            ("net.self_us_p50", rtt_p50 - read_replayed, "us"),
            ("serve.write_residual_us_p50", plain_ack_p50 - write_replayed, "us"),
            ("net.requests", counter(|c| c.all_servers.requests), "count"),
            ("net.protocol_errors", counter(|c| c.all_servers.protocol_errors), "count"),
            ("serve.shed_writes", counter(|c| c.all_servers.shed_writes), "count"),
            ("serve.deadline_exceeded", counter(|c| c.all_servers.deadline_exceeded), "count"),
            ("serve.rate_limited", counter(|c| c.all_servers.rate_limited), "count"),
            ("stream.snapshot_load_ns_p50", p50("stream.snapshot_load", 1.0), "ns"),
            ("stream.absorb_us_p50", p50("stream.absorb", us), "us"),
            ("stream.refit_ms_p50", p50("stream.refresh", ms), "ms"),
            ("stream.refit_ms_p90", self.span_p("stream.refresh", 0.9, ms), "ms"),
            ("stream.tabulate_ms_p50", p50("stream.tabulate", ms), "ms"),
            ("stream.snapshot_build_ms_p50", p50("stream.snapshot_build", ms), "ms"),
            ("stream.publish_us_p50", p50("stream.publish", us), "us"),
            ("stream.refits", counter(|c| c.fit.refits), "count"),
            ("stream.solver_sweeps", counter(|c| c.fit.solver_sweeps), "count"),
            ("stream.cache_full_hits", counter(|c| c.fit.cache_full_hits), "count"),
            ("stream.cache_extensions", counter(|c| c.fit.cache_extensions), "count"),
            ("stream.cache_rebuilds", counter(|c| c.fit.cache_rebuilds), "count"),
            ("stream.journal_append_us_p50", p50("stream.journal_append", us), "us"),
            ("stream.journal_bytes", self.journal_bytes as f64, "B"),
            ("stream.shard_absorb_us_p50", p50("stream.shard_absorb", us), "us"),
            ("core.acquire_ms_p50", p50("core.acquire", ms), "ms"),
            ("core.rounds", per_refit(|t| t.rounds), "count/refit"),
            ("core.promotions", per_refit(|t| t.promotions), "count/refit"),
            ("significance.cells_tested", per_refit(|t| t.candidates), "count/refit"),
            (
                "significance.significant_frac",
                if candidates == 0 { 0.0 } else { significant as f64 / candidates as f64 },
                "frac",
            ),
            ("core.query_eval_ns_p50", p50("core.query_eval", 1.0), "ns"),
            ("maxent.solver_sweeps_per_refit", per_refit(|t| t.sweeps), "count/refit"),
            ("maxent.resolve_ms_p50", p50("maxent.resolve", ms), "ms"),
            ("maxent.lattice_build_ms_p50", p50("maxent.lattice_build", ms), "ms"),
            ("maxent.eval_hit_ns_p50", p50("maxent.eval_hit", 1.0), "ns"),
            ("maxent.eval_miss_us_p50", p50("maxent.eval_miss", us), "us"),
            (
                "maxent.lattice_hit_frac",
                if lookups == 0.0 {
                    0.0
                } else {
                    counter(|c| c.query_server.lattice_hits) / lookups
                },
                "frac",
            ),
            ("maxent.factored_evals", counter(|c| c.query_server.factored_evals), "count"),
            ("maxent.dense_evals", counter(|c| c.query_server.dense_evals), "count"),
            (
                "maxent.elimination_width_max",
                counter(|c| c.query_server.elimination_width_max),
                "count",
            ),
            ("contingency.occupied_cells", replayed(|r| r.occupied_cells as f64), "count"),
            ("contingency.cells", replayed(|r| r.cells as f64), "count"),
            ("fabric.shard_bytes_p50", replayed(|r| median(&r.shard_bytes)), "B"),
            ("fabric.shard_encode_us_p50", p50("fabric.shard_encode", us), "us"),
            ("fabric.shard_decode_us_p50", p50("fabric.shard_decode", us), "us"),
            ("fabric.sync_bytes_p50", replayed(|r| median(&r.sync_bytes)), "B"),
            ("fabric.replica_apply_ms_p50", p50("fabric.replica_apply", ms), "ms"),
            (
                "fabric.sync_applied_frac",
                match c {
                    Some(c) if fabric && c.fit.refits > 0 => {
                        c.query_engine.synced_snapshots as f64 / c.fit.refits as f64
                    }
                    _ => 0.0,
                },
                "frac",
            ),
            ("bench.gen_lag_p99_us", gen_lag, "us"),
            ("bench.trace_overhead_frac", self.trace_overhead_frac.unwrap_or(0.0), "frac"),
        ]
    }

    fn metrics(&self) -> Vec<Metric> {
        if self.trace {
            self.per_layer()
        } else {
            self.end_to_end()
        }
    }

    /// The contract's last line of standard output.
    pub fn last_line(&self) -> String {
        let metrics = self
            .metrics()
            .into_iter()
            .map(|(name, value, unit)| {
                (name.to_string(), object(vec![("value", Value::F64(value)), ("unit", s(unit))]))
            })
            .collect();
        let line = object(vec![
            ("correct", Value::Bool(self.gates.passed())),
            ("attempted", Value::U64(self.attempted())),
            ("failed", Value::U64(self.failed())),
            ("metrics", Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("value serialises")
    }

    /// Writes the self-stamped results file and returns its path.
    pub fn write_results(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            self.spec.name,
            self.seed,
            u8::from(self.trace)
        ));
        let metric_list = |metrics: Vec<Metric>| {
            Value::Array(
                metrics
                    .into_iter()
                    .map(|(n, v, u)| {
                        object(vec![("name", s(n)), ("value", Value::F64(v)), ("unit", s(u))])
                    })
                    .collect(),
            )
        };
        let health = |log: &ConnLog| {
            let h = Health::of(log);
            object(vec![
                ("scheduled_hz", Value::F64(h.scheduled_hz)),
                ("achieved_hz", Value::F64(h.achieved_hz)),
                ("lag_p50_us", Value::F64(h.lag_p50_us)),
                ("lag_p99_us", Value::F64(h.lag_p99_us)),
                ("behind", Value::Bool(h.behind())),
            ])
        };
        let count = |n: usize| Value::U64(n as u64);
        let spans = self
            .spans
            .iter()
            .map(|(name, durations, self_times)| {
                object(vec![
                    ("name", s(name)),
                    ("count", count(durations.len())),
                    ("p50_ns", Value::F64(median(durations))),
                    ("p90_ns", Value::F64(percentile(&mut durations.clone(), 0.9))),
                    ("self_p50_ns", Value::F64(median(self_times))),
                ])
            })
            .collect();
        let results = object(vec![
            ("workload", s(self.spec.name)),
            ("seed", Value::U64(self.seed)),
            ("seconds", Value::F64(self.seconds)),
            ("trace", Value::Bool(self.trace)),
            ("host", host_stamp()),
            ("host_steal_s", Value::F64(self.host_steal_s)),
            (
                "phase_s",
                Value::Object(
                    self.phases.iter().map(|(n, v)| (n.to_string(), Value::F64(*v))).collect(),
                ),
            ),
            ("correct", Value::Bool(self.gates.passed())),
            (
                "gates",
                Value::Array(
                    self.gates
                        .checks
                        .iter()
                        .map(|(w, ok)| object(vec![("check", s(w)), ("passed", Value::Bool(*ok))]))
                        .collect(),
                ),
            ),
            ("attempted", Value::U64(self.attempted())),
            ("failed", Value::U64(self.failed())),
            (
                "failures",
                Value::Object(
                    self.failures().into_iter().map(|(r, n)| (r, Value::U64(n))).collect(),
                ),
            ),
            (
                "samples",
                object(vec![
                    ("setups", count(self.setup_s.len())),
                    ("open_loop_queries", count(self.rtt_samples_us().len())),
                    // Not an end-to-end metric: across runs its spread
                    // exceeded the largest bound (README, "Bounds").
                    ("query_rtt_p90_us_quiet", Value::F64(self.rtt_us(0.9))),
                    ("query_rtt_p99_us_quiet", Value::F64(self.rtt_us(0.99))),
                    ("closed_loop_queries", Value::U64(self.queries.closed.sent)),
                    (
                        "rtt_us_by_percentile",
                        Value::Object(
                            [0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999]
                                .iter()
                                .map(|&q| {
                                    let v = percentile(&mut self.rtt_samples_us(), q);
                                    (format!("p{}", q * 100.0), Value::F64(v))
                                })
                                .collect(),
                        ),
                    ),
                    ("steal_s_by_second", floats(self.steal_by_second())),
                    (
                        "qps_by_bucket",
                        Value::Array(self.closed_qps().into_iter().map(Value::F64).collect()),
                    ),
                    ("throughput_buckets", count(self.closed_qps().len())),
                    ("ingest_acks", count(self.ack_samples_us(None).len())),
                    ("refit_acks", count(self.ack_samples_us(Some(true)).len())),
                    ("visible_batches", count(self.visible_ms().len())),
                ]),
            ),
            ("setup_s_all", Value::Array(self.setup_s.iter().map(|&v| Value::F64(v)).collect())),
            (
                "generator",
                object(vec![
                    ("queries", health(&self.queries)),
                    ("ingest", health(&self.ingest)),
                    ("behind", Value::Bool(self.generator_behind())),
                ]),
            ),
            ("end_to_end", metric_list(self.end_to_end())),
            ("per_layer", if self.trace { metric_list(self.per_layer()) } else { Value::Null }),
            ("spans", Value::Array(spans)),
        ]);
        let text = serde_json::to_string_pretty(&results).expect("value serialises");
        std::fs::write(&path, text + "\n")?;
        Ok(path)
    }
}

fn floats(values: Vec<f64>) -> Value {
    Value::Array(values.into_iter().map(Value::F64).collect())
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Host core count, rustc version, commit and a fingerprint of the
/// sources, so every results file says what produced it.
fn host_stamp() -> Value {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    object(vec![
        ("nproc", Value::U64(nproc as u64)),
        ("rustc", s(&command("rustc", &["--version"]))),
        ("commit", s(&commit(&command))),
        ("source_fingerprint", s(&source_fingerprint())),
        (
            "unix_time",
            Value::U64(
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.as_secs()),
            ),
        ),
    ])
}

/// The commit checked out here; `unknown` unless this directory is itself
/// the top of a git work tree (a plain copy nested in another repository
/// must not report that repository's commit).
fn commit(command: &dyn Fn(&str, &[&str]) -> String) -> String {
    let top = command("git", &["rev-parse", "--show-toplevel"]);
    let here = std::env::current_dir().and_then(|d| d.canonicalize());
    match (Path::new(&top).canonicalize(), here) {
        (Ok(top), Ok(here)) if top == here => command("git", &["rev-parse", "HEAD"]),
        _ => "unknown".to_string(),
    }
}

/// FNV-1a over the paths and bytes of every source file the benchmark
/// builds from: identifies the code when the checkout is not a git
/// repository.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml" || e == "lock") {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.lock"), PathBuf::from("Cargo.toml")];
    for root in ["crates", "vendor", "perfbench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}
