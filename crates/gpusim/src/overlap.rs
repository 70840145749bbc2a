//! Software-pipelining arithmetic: what overlap buys.
//!
//! Several designs in the paper's landscape hide one stage behind another:
//! DGL/PyG prefetch features during compute, GNNLab runs sampling on a
//! dedicated GPU, FastGL prefetches the next subgraph's topology (§6.5).
//! This module holds the one overlap model they share: the depth-1
//! two-stage pipeline bound and the producer time it leaves visible.

use crate::timeline::SimTime;

/// Total time of a sequence of items through a 2-stage pipeline where
/// stage 1 of item `i + 1` may overlap stage 2 of item `i` (the classic
/// prefetch bound): `t = s1[0] + Σ max(s1[i+1], s2[i]) + s2[last]`.
///
/// Returns zero for an empty sequence.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn two_stage_pipeline(stage1: &[SimTime], stage2: &[SimTime]) -> SimTime {
    assert_eq!(
        stage1.len(),
        stage2.len(),
        "pipeline stages must cover the same items"
    );
    if stage1.is_empty() {
        return SimTime::ZERO;
    }
    let mut total = stage1[0];
    for i in 0..stage1.len() - 1 {
        total += stage1[i + 1].max(stage2[i]);
    }
    total + stage2[stage2.len() - 1]
}

/// Visible (unhidden) time of a producer stage whose item `i + 1` is
/// produced while item `i` is consumed — the prefetch-depth-1 pipeline of
/// the classic bound above. Returns the pipelined makespan minus the
/// consumer's own work: the fill (`producer[0]`) plus every gap where
/// production outruns consumption.
///
/// This is the single overlap model shared by GNNLab's dedicated sampler
/// GPUs (sampling hidden behind training) and FastGL's pipelined window
/// prefetch (Fig. 5): both charge only what the consumer cannot hide.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn hidden_stage_visible(producer: &[SimTime], consumer: &[SimTime]) -> SimTime {
    let consumed: SimTime = consumer.iter().copied().sum();
    two_stage_pipeline(producer, consumer).saturating_sub(consumed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn balanced_pipeline_halves_time_asymptotically() {
        let s1 = vec![t(100); 50];
        let s2 = vec![t(100); 50];
        let piped = two_stage_pipeline(&s1, &s2);
        // Half the 10 000 ns the two stages take back to back, plus one item.
        assert_eq!(piped.as_nanos(), 100 + 49 * 100 + 100);
    }

    #[test]
    fn dominant_stage_hides_the_other_completely() {
        let s1 = vec![t(10); 20];
        let s2 = vec![t(1_000); 20];
        let piped = two_stage_pipeline(&s1, &s2);
        // 10 (fill) + 19 * 1000 + 1000 (drain).
        assert_eq!(piped.as_nanos(), 10 + 19_000 + 1_000);
    }

    #[test]
    fn single_item_has_no_overlap() {
        let piped = two_stage_pipeline(&[t(50)], &[t(70)]);
        assert_eq!(piped.as_nanos(), 120);
    }

    #[test]
    fn empty_sequences() {
        assert_eq!(two_stage_pipeline(&[], &[]), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "same items")]
    fn mismatched_lengths_panic() {
        let _ = two_stage_pipeline(&[t(1)], &[]);
    }
}
