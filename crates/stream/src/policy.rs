//! Staleness policies: when does accumulated data trip a refresh?
//!
//! The engine tracks a *dirty counter* — tuples ingested since the last
//! refit — and consults a [`RefreshPolicy`] after every ingest.  Policies
//! are deliberately cheap pure functions of `(pending, fitted)` so the
//! decision adds nothing measurable to the ingest hot path.

use crate::error::StreamError;
use crate::Result;

/// When to re-run acquisition over the accumulated counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefreshPolicy {
    /// Refresh once `n` tuples have arrived since the last fit.
    EveryNTuples(u64),
    /// Refresh once the pending tuples amount to at least this fraction of
    /// the data the current snapshot was fitted on (e.g. `0.1` = refresh on
    /// 10 % growth).  Trips on the first tuple when nothing has been fitted
    /// yet.
    DirtyFraction(f64),
    /// Never refresh automatically; the caller drives
    /// [`crate::StreamingEngine::refresh`] explicitly.
    Manual,
}

impl RefreshPolicy {
    /// Parses a CLI spec: `manual`, `every=<tuples>` or `fraction=<growth>`,
    /// rejecting parameters [`RefreshPolicy::validate`] would refuse.
    pub fn parse(spec: &str) -> Result<Self> {
        let bad = || StreamError::InvalidConfig {
            reason: format!("unknown refresh policy `{spec}` (want manual, every=N or fraction=F)"),
        };
        let policy = if spec == "manual" {
            RefreshPolicy::Manual
        } else if let Some(n) = spec.strip_prefix("every=") {
            RefreshPolicy::EveryNTuples(n.parse().map_err(|_| bad())?)
        } else if let Some(f) = spec.strip_prefix("fraction=") {
            RefreshPolicy::DirtyFraction(f.parse().map_err(|_| bad())?)
        } else {
            return Err(bad());
        };
        policy.validate()?;
        Ok(policy)
    }

    /// Validates the policy's parameters.
    pub fn validate(&self) -> Result<()> {
        match *self {
            RefreshPolicy::EveryNTuples(0) => Err(StreamError::InvalidConfig {
                reason: "EveryNTuples(0) would refresh before any data arrives".to_string(),
            }),
            RefreshPolicy::DirtyFraction(f) if !(f > 0.0) || !f.is_finite() => {
                Err(StreamError::InvalidConfig {
                    reason: format!("DirtyFraction must be a positive finite number, got {f}"),
                })
            }
            _ => Ok(()),
        }
    }

    /// Whether `pending` tuples on top of a snapshot fitted on `fitted`
    /// tuples warrant a refresh.
    pub fn should_refresh(&self, pending: u64, fitted: u64) -> bool {
        match *self {
            RefreshPolicy::EveryNTuples(n) => pending >= n,
            RefreshPolicy::DirtyFraction(f) => {
                if pending == 0 {
                    false
                } else if fitted == 0 {
                    true
                } else {
                    pending as f64 >= f * fitted as f64
                }
            }
            RefreshPolicy::Manual => false,
        }
    }
}

impl Default for RefreshPolicy {
    /// Refresh on 10 % growth — a reasonable freshness/cost balance for
    /// serving workloads.
    fn default() -> Self {
        RefreshPolicy::DirtyFraction(0.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_n_trips_at_n() {
        let p = RefreshPolicy::EveryNTuples(100);
        assert!(!p.should_refresh(99, 0));
        assert!(p.should_refresh(100, 0));
        assert!(p.should_refresh(101, 1_000_000));
    }

    #[test]
    fn dirty_fraction_scales_with_fitted_size() {
        let p = RefreshPolicy::DirtyFraction(0.5);
        assert!(!p.should_refresh(0, 0), "no data, nothing to do");
        assert!(p.should_refresh(1, 0), "first data always trips");
        assert!(!p.should_refresh(49, 100));
        assert!(p.should_refresh(50, 100));
    }

    #[test]
    fn manual_never_trips() {
        assert!(!RefreshPolicy::Manual.should_refresh(u64::MAX, 0));
    }

    #[test]
    fn parse_reads_every_cli_spelling() {
        assert_eq!(RefreshPolicy::parse("manual").unwrap(), RefreshPolicy::Manual);
        assert_eq!(RefreshPolicy::parse("every=128").unwrap(), RefreshPolicy::EveryNTuples(128));
        assert_eq!(
            RefreshPolicy::parse("fraction=0.25").unwrap(),
            RefreshPolicy::DirtyFraction(0.25)
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for spec in [
            "",
            "Manual",
            "sometimes",
            "every=",
            "every=x",
            "every=-1",
            "every=0",
            "fraction=0",
            "fraction=-0.5",
            "fraction=nan",
        ] {
            assert!(RefreshPolicy::parse(spec).is_err(), "`{spec}` should be refused");
        }
    }

    #[test]
    fn validation_rejects_degenerate_parameters() {
        assert!(RefreshPolicy::EveryNTuples(0).validate().is_err());
        assert!(RefreshPolicy::DirtyFraction(0.0).validate().is_err());
        assert!(RefreshPolicy::DirtyFraction(-1.0).validate().is_err());
        assert!(RefreshPolicy::DirtyFraction(f64::NAN).validate().is_err());
        assert!(RefreshPolicy::EveryNTuples(1).validate().is_ok());
        assert!(RefreshPolicy::DirtyFraction(0.25).validate().is_ok());
        assert!(RefreshPolicy::Manual.validate().is_ok());
    }
}
