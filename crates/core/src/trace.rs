//! Records of what the acquisition procedure examined and decided.
//!
//! Table 1 of the memo is one round of this trace: every second-order cell,
//! its predicted probability, mean, standard deviation, number of standard
//! deviations, `m2 − m1` and the posterior odds.  The trace keeps that
//! information for every round at every order so the memo's tables can be
//! regenerated and so users can audit why a constraint was (or was not)
//! accepted.

use pka_contingency::{Assignment, Schema};
use pka_maxent::SolveReport;
use serde::{Deserialize, Serialize};

/// One scored candidate cell — one row of a Table-1-style report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellEvaluation {
    /// The cell under test.
    pub assignment: Assignment,
    /// Observed count in the data.
    pub observed: u64,
    /// Probability the model (fitted to the constraints known so far)
    /// assigns the cell.
    pub predicted_p: f64,
    /// Predicted mean count (Eq. 33).
    pub mean: f64,
    /// Predicted standard deviation (Eq. 34).
    pub std_dev: f64,
    /// Standardised deviation of the observation.
    pub z_score: f64,
    /// Message length of hypothesis H1.
    pub m1: f64,
    /// Message length of hypothesis H2.
    pub m2: f64,
    /// `m2 − m1`; negative means significant (Eq. 47).
    pub delta: f64,
    /// Posterior odds `p(H1|D)/p(H2|D) = exp(delta)`.
    pub likelihood_ratio: f64,
    /// Whether the cell passed the significance test.
    pub significant: bool,
}

impl CellEvaluation {
    /// Human-readable single-line rendering using schema names.
    pub fn describe(&self, schema: &Schema) -> String {
        format!(
            "{}: observed {} (predicted {:.1} ± {:.1}, {:+.2} sd), m2-m1 = {:+.2}{}",
            self.assignment.describe(schema),
            self.observed,
            self.mean,
            self.std_dev,
            self.z_score,
            self.delta,
            if self.significant { "  [significant]" } else { "" }
        )
    }
}

/// One round at one order: every candidate scored against the current model,
/// plus which cell (if any) was promoted to a constraint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundTrace {
    /// The constraint order being searched (2 for second-order cells, …).
    pub order: usize,
    /// 1-based round number within the order.
    pub round: usize,
    /// Scores of every candidate cell (empty unless evaluation recording was
    /// enabled in the configuration).
    pub evaluations: Vec<CellEvaluation>,
    /// The cell promoted to a constraint this round, if any.
    pub selected: Option<Assignment>,
    /// `m2 − m1` of the selected cell.
    pub selected_delta: Option<f64>,
    /// Number of candidate cells considered this round.
    pub candidates: usize,
    /// Number of candidates that tested significant this round.
    pub significant_count: usize,
    /// Report of the solver run that followed the promotion (absent when no
    /// cell was promoted).
    pub fit_report: Option<SolveReport>,
}

/// Where one acquisition run spent its wall time, in whole microseconds.
///
/// The stages do not overlap and each is truncated separately, so their
/// sum never exceeds the run's own wall time; the remainder is
/// bookkeeping (constraint set and knowledge-base assembly, trace records).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageMicros {
    /// The one walk over the observed cells that counts every marginal the
    /// run reads.
    pub count_micros: u64,
    /// Candidate scoring across every round: the model's predicted
    /// marginals (dense scatter or factored elimination), the Eq. 41
    /// bounds and the message-length test.
    pub scoring_micros: u64,
    /// Solver fits: the initial fit plus one per promoted cell.
    pub solve_micros: u64,
    /// The final exact renormalisation of the model.
    pub normalize_micros: u64,
}

/// The full history of an acquisition run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AcquisitionTrace {
    /// Every round, in execution order.
    pub rounds: Vec<RoundTrace>,
    /// Report of the initial (first-order only) fit.
    pub initial_fit: Option<SolveReport>,
    /// Time per stage of the run.
    pub stages: StageMicros,
}

impl AcquisitionTrace {
    /// Rounds belonging to one order.
    pub fn rounds_at_order(&self, order: usize) -> impl Iterator<Item = &RoundTrace> {
        self.rounds.iter().filter(move |r| r.order == order)
    }

    /// The first round at a given order — for order 2 this is exactly the
    /// memo's Table 1 (all second-order cells scored against the
    /// independence model).
    pub fn first_round_at_order(&self, order: usize) -> Option<&RoundTrace> {
        self.rounds_at_order(order).next()
    }

    /// Every constraint the run promoted, in discovery order.
    pub fn selected_constraints(&self) -> Vec<Assignment> {
        self.rounds.iter().filter_map(|r| r.selected.clone()).collect()
    }

    /// Total number of candidate-cell evaluations performed.
    pub fn total_evaluations(&self) -> usize {
        self.rounds.iter().map(|r| r.candidates).sum()
    }

    /// Total solver sweeps spent across the run: the initial fit plus every
    /// per-promotion refit.  This is the cost the streaming engine's warm
    /// starts exist to reduce, so it is the headline number of the warm vs
    /// cold benchmark.
    pub fn total_solver_iterations(&self) -> usize {
        self.initial_fit.as_ref().map_or(0, |r| r.iterations)
            + self
                .rounds
                .iter()
                .filter_map(|r| r.fit_report.as_ref())
                .map(|r| r.iterations)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("smoking", ["smoker", "non-smoker", "married-to-smoker"]),
            Attribute::yes_no("cancer"),
        ])
        .unwrap()
    }

    fn evaluation(delta: f64) -> CellEvaluation {
        CellEvaluation {
            assignment: Assignment::from_pairs([(0, 0), (1, 0)]),
            observed: 240,
            predicted_p: 0.048,
            mean: 165.0,
            std_dev: 12.5,
            z_score: 6.03,
            m1: 20.0,
            m2: 20.0 + delta,
            delta,
            likelihood_ratio: delta.exp(),
            significant: delta < 0.0,
        }
    }

    #[test]
    fn describe_mentions_names_and_flag() {
        let s = schema();
        let e = evaluation(-11.5);
        let text = e.describe(&s);
        assert!(text.contains("smoking=smoker"));
        assert!(text.contains("cancer=yes"));
        assert!(text.contains("[significant]"));
        let e = evaluation(1.7);
        assert!(!e.describe(&s).contains("[significant]"));
    }

    #[test]
    fn trace_accessors() {
        let round = |order: usize, round: usize, selected: bool| RoundTrace {
            order,
            round,
            evaluations: vec![evaluation(-1.0)],
            selected: selected.then(|| Assignment::from_pairs([(0, 0), (1, 0)])),
            selected_delta: selected.then_some(-1.0),
            candidates: 16,
            significant_count: usize::from(selected),
            fit_report: None,
        };
        let trace = AcquisitionTrace {
            rounds: vec![round(2, 1, true), round(2, 2, false), round(3, 1, false)],
            initial_fit: None,
            stages: StageMicros::default(),
        };
        assert_eq!(trace.rounds_at_order(2).count(), 2);
        assert_eq!(trace.first_round_at_order(2).unwrap().round, 1);
        assert!(trace.first_round_at_order(4).is_none());
        assert_eq!(trace.selected_constraints().len(), 1);
        assert_eq!(trace.total_evaluations(), 48);
    }
}
