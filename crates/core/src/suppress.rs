//! Suppression of hard-to-anonymize samples (§7.1).
//!
//! GLOVE's specialized generalization can be combined with removal of the
//! samples whose merge would exceed configured spatial/temporal extents:
//! "specialized generalization can be combined with removal of samples whose
//! temporal or spatial stretch efforts in (12) and (13) exceed some
//! threshold". The paper shows (Fig. 9) that suppressing a few percent of
//! outlier samples buys a large accuracy gain for everything else.
//!
//! This module holds the decision predicate and the bookkeeping type; the
//! actual removal happens inside [`crate::merge`], where the candidate boxes
//! are formed.

use crate::config::SuppressionThresholds;
use crate::json_struct;
use crate::model::Sample;

/// Running counters of suppression activity across merges.
///
/// `user_samples` counts each dropped fingerprint sample once per subscriber
/// sharing it — the unit in which the paper reports "Deleted samples"
/// (Table 2) and discard percentages (Fig. 9).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuppressionLedger {
    /// Fingerprint samples dropped (one per merge decision).
    pub samples: u64,
    /// Dropped samples weighted by the multiplicity of the fingerprint they
    /// belonged to.
    pub user_samples: u64,
}

json_struct!(SuppressionLedger {
    samples,
    user_samples,
});

impl SuppressionLedger {
    /// Records the suppression of one sample belonging to a fingerprint
    /// shared by `multiplicity` subscribers.
    pub fn record(&mut self, multiplicity: usize) {
        self.samples += 1;
        self.user_samples += multiplicity as u64;
    }

    /// Accumulates another ledger into this one.
    pub fn absorb(&mut self, other: SuppressionLedger) {
        self.samples += other.samples;
        self.user_samples += other.user_samples;
    }
}

/// Returns true if a merged sample `candidate` violates the thresholds and
/// the merge that would produce it should be refused.
///
/// The spatial test compares the larger box side against `max_space_m`; the
/// temporal test compares the window length against `max_time_min`. (At the
/// paper's native granularity a merged box's extent *is* the accumulated
/// stretch, up to the initial 100 m / 1 min.)
#[inline]
pub fn violates(candidate: &Sample, thresholds: &SuppressionThresholds) -> bool {
    if let Some(max_s) = thresholds.max_space_m {
        if candidate.dx.max(candidate.dy) > max_s {
            return true;
        }
    }
    if let Some(max_t) = thresholds.max_time_min {
        if candidate.dt > max_t {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_thresholds_never_fire() {
        let t = SuppressionThresholds::default();
        let huge = Sample::new(0, 0, 1_000_000, 1_000_000, 0, 1_000_000).unwrap();
        assert!(!violates(&huge, &t));
    }

    #[test]
    fn spatial_threshold_fires_on_larger_side() {
        let t = SuppressionThresholds {
            max_space_m: Some(1_000),
            max_time_min: None,
        };
        let ok = Sample::new(0, 0, 1_000, 100, 0, 1).unwrap();
        let too_wide = Sample::new(0, 0, 1_001, 100, 0, 1).unwrap();
        let too_tall = Sample::new(0, 0, 100, 1_001, 0, 1).unwrap();
        assert!(!violates(&ok, &t));
        assert!(violates(&too_wide, &t));
        assert!(violates(&too_tall, &t));
    }

    #[test]
    fn temporal_threshold_fires_on_window_length() {
        let t = SuppressionThresholds {
            max_space_m: None,
            max_time_min: Some(360),
        };
        let ok = Sample::new(0, 0, 100, 100, 0, 360).unwrap();
        let too_long = Sample::new(0, 0, 100, 100, 0, 361).unwrap();
        assert!(!violates(&ok, &t));
        assert!(violates(&too_long, &t));
    }

    #[test]
    fn ledger_accumulates_weighted() {
        let mut ledger = SuppressionLedger::default();
        ledger.record(1);
        ledger.record(5);
        assert_eq!(ledger.samples, 2);
        assert_eq!(ledger.user_samples, 6);
        let mut other = SuppressionLedger::default();
        other.record(2);
        ledger.absorb(other);
        assert_eq!(ledger.samples, 3);
        assert_eq!(ledger.user_samples, 8);
    }
}
