//! Data-parallel multi-GPU arithmetic (paper §5 and Fig. 14a).
//!
//! FastGL trains data-parallel: training seeds shard round-robin across
//! trainer GPUs, every GPU runs the full pipeline on its shard, and a ring
//! all-reduce synchronises gradients each iteration. GNNLab additionally
//! dedicates GPUs to sampling. This module collects the pure arithmetic of
//! that organisation — shard sizing, host-gather contention, all-reduce
//! cost, and GNNLab's sample-hiding — which [`crate::pipeline::Pipeline`]
//! applies.

use fastgl_gpusim::transfer::ring_allreduce_time;
use fastgl_gpusim::{SimTime, SystemSpec};

/// The GPU roles of one machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuRoles {
    /// GPUs running the training pipeline.
    pub trainers: usize,
    /// GPUs dedicated to sampling (GNNLab's factored design).
    pub samplers: usize,
}

impl GpuRoles {
    /// Splits `num_gpus` into roles.
    ///
    /// # Panics
    ///
    /// Panics if no GPU remains for training.
    pub fn new(num_gpus: usize, samplers: usize) -> Self {
        assert!(
            samplers < num_gpus,
            "at least one GPU must train ({num_gpus} GPUs, {samplers} samplers)"
        );
        Self {
            trainers: num_gpus - samplers,
            samplers,
        }
    }

    /// Per-iteration gradient all-reduce time across the trainers.
    pub fn allreduce_time(&self, spec: &SystemSpec, param_bytes: u64) -> SimTime {
        if self.trainers <= 1 {
            SimTime::ZERO
        } else {
            ring_allreduce_time(&spec.host, param_bytes, self.trainers)
        }
    }

    /// Host-gather contention factor: the trainers' loader processes share
    /// the host memory bus, so each sees roughly `trainers` times the solo
    /// gather latency.
    pub fn gather_contention(&self) -> f64 {
        self.trainers as f64
    }

    /// Per-window visible sample time of GNNLab's factored design: the
    /// dedicated samplers produce window `w + 1` while the trainers consume
    /// window `w`, so only the pipeline fill plus any window where sampling
    /// outruns training shows on the critical path. Entry `w` is the
    /// sampling time of window `w` that the overlap model leaves there.
    ///
    /// `sample[w]` is the shard's sampling time of window `w`; `train[w]`
    /// is the trainers' IO + compute time of the same window. Each sampler
    /// GPU serves `trainers / samplers` shards, which scales the producer
    /// side. With no dedicated samplers the sampling is on the critical
    /// path and returned unchanged.
    ///
    /// The identity `max(p, c) - c = p ∸ c` (truncated subtraction, exact
    /// on nanosecond integers) splits the aggregate bound of
    /// [`fastgl_gpusim::overlap::hidden_stage_visible`] window by window — the fill
    /// (`produced[0]`) charges to window 0 and each later window charges
    /// only its production excess over the preceding window's training —
    /// so the entries sum to that aggregate **exactly**, which
    /// `fastgl-insight`'s attribution relies on.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn visible_sample_per_window(&self, sample: &[SimTime], train: &[SimTime]) -> Vec<SimTime> {
        assert_eq!(
            sample.len(),
            train.len(),
            "pipeline stages must cover the same items"
        );
        if self.samplers == 0 {
            return sample.to_vec();
        }
        let ratio = self.trainers as f64 / self.samplers as f64;
        sample
            .iter()
            .enumerate()
            .map(|(w, &s)| {
                let produced = s * ratio;
                if w == 0 {
                    produced
                } else {
                    produced.saturating_sub(train[w - 1])
                }
            })
            .collect()
    }
}

/// Expected parallel speedup of an epoch whose solo breakdown is
/// `(sample, io, compute)` when run on `n` trainer GPUs, under this
/// module's model (perfect shard parallelism, contended gathers, per-batch
/// all-reduce). Used by tests and the scalability experiment as a
/// closed-form cross-check of the pipeline's behaviour.
pub fn ideal_epoch_time(
    sample: SimTime,
    io_gather: SimTime,
    io_copy: SimTime,
    compute: SimTime,
    allreduce_total: SimTime,
    trainers: usize,
) -> SimTime {
    assert!(trainers > 0, "need at least one trainer");
    let n = trainers as u64;
    // Sample, PCIe copies, and compute divide across shards; the host
    // gather divides but is re-multiplied by contention (net unchanged).
    sample / n + io_gather + io_copy / n + compute / n + allreduce_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgl_gpusim::overlap;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn roles_split_and_validate() {
        let r = GpuRoles::new(8, 2);
        assert_eq!(r.trainers, 6);
        assert_eq!(r.samplers, 2);
        assert_eq!(r.gather_contention(), 6.0);
    }

    #[test]
    #[should_panic(expected = "at least one GPU must train")]
    fn all_samplers_rejected() {
        let _ = GpuRoles::new(2, 2);
    }

    #[test]
    fn allreduce_zero_for_single_trainer() {
        let spec = SystemSpec::rtx3090_server(2);
        let solo = GpuRoles::new(2, 1);
        assert_eq!(solo.allreduce_time(&spec, 1 << 20), SimTime::ZERO);
        let duo = GpuRoles::new(2, 0);
        assert!(duo.allreduce_time(&spec, 1 << 20) > SimTime::ZERO);
    }

    /// The aggregate visible sample time of the overlap model, computed
    /// straight from [`overlap::hidden_stage_visible`]: the reference the
    /// per-window split must sum to.
    fn aggregate_visible(r: &GpuRoles, sample: &[SimTime], train: &[SimTime]) -> SimTime {
        if r.samplers == 0 {
            return sample.iter().copied().sum();
        }
        let ratio = r.trainers as f64 / r.samplers as f64;
        let produced: Vec<SimTime> = sample.iter().map(|&s| s * ratio).collect();
        overlap::hidden_stage_visible(&produced, train)
    }

    #[test]
    fn per_window_hiding_charges_only_fill_and_excess() {
        let r = GpuRoles::new(2, 1); // 1 trainer, 1 sampler
        let sample = [t(100), t(100), t(100)];
        let train = [t(500), t(500), t(500)];
        // Sampler keeps up: only the first window's fill is visible.
        assert_eq!(aggregate_visible(&r, &sample, &train), t(100));
        // Sampler falls behind on every window: fill + per-window excess.
        let slow = [t(800), t(800), t(800)];
        assert_eq!(aggregate_visible(&r, &slow, &train), t(800 + 300 + 300));
        // No dedicated sampler: the full sum is on the critical path.
        let plain = GpuRoles::new(2, 0);
        assert_eq!(aggregate_visible(&plain, &slow, &train), t(2_400));
        assert_eq!(plain.visible_sample_per_window(&slow, &train), slow);
        // Never less than the producer's excess over the consumer in total.
        let steady = t(2_400).saturating_sub(t(1_500));
        assert!(aggregate_visible(&r, &slow, &train) >= steady);
    }

    #[test]
    fn per_window_decomposition_sums_exactly_to_the_aggregate() {
        // Irregular, tie-heavy inputs across several role splits: the
        // per-window entries must reproduce the aggregate bound to the
        // nanosecond, including the float producer scaling.
        for (gpus, samplers) in [(2usize, 1usize), (8, 2), (8, 3), (4, 0)] {
            let r = GpuRoles::new(gpus, samplers);
            let sample: Vec<SimTime> = (0..17).map(|i| t(37 * (i % 5) + i)).collect();
            let train: Vec<SimTime> = (0..17).map(|i| t(120 - 6 * (i % 9))).collect();
            let per = r.visible_sample_per_window(&sample, &train);
            assert_eq!(per.len(), sample.len());
            let sum: SimTime = per.iter().copied().sum();
            assert_eq!(
                sum,
                aggregate_visible(&r, &sample, &train),
                "roles {gpus}/{samplers}"
            );
        }
    }

    #[test]
    fn per_window_fill_and_excess_land_on_the_right_windows() {
        let r = GpuRoles::new(2, 1);
        let sample = [t(100), t(100), t(100)];
        let train = [t(500), t(500), t(500)];
        // Sampler keeps up: only window 0 (the fill) is charged.
        assert_eq!(
            r.visible_sample_per_window(&sample, &train),
            vec![t(100), SimTime::ZERO, SimTime::ZERO]
        );
        // Sampler falls behind: fill plus per-window excess.
        let slow = [t(800), t(800), t(800)];
        assert_eq!(
            r.visible_sample_per_window(&slow, &train),
            vec![t(800), t(300), t(300)]
        );
    }

    #[test]
    #[should_panic(expected = "same items")]
    fn per_window_mismatched_lengths_panic() {
        let r = GpuRoles::new(2, 1);
        let _ = r.visible_sample_per_window(&[t(1)], &[]);
    }

    #[test]
    fn two_samplers_halve_the_sampler_work() {
        let r = GpuRoles::new(8, 2); // 6 trainers, 2 samplers
                                     // Work = 6/2 * shard sample.
        let per = r.visible_sample_per_window(&[t(100)], &[SimTime::ZERO]);
        assert_eq!(per, vec![t(300)]);
    }

    #[test]
    fn ideal_scaling_is_sublinear_with_fixed_gather() {
        let one = ideal_epoch_time(t(100), t(300), t(300), t(300), SimTime::ZERO, 1);
        let four = ideal_epoch_time(t(100), t(300), t(300), t(300), t(20), 4);
        let speedup = one.as_secs_f64() / four.as_secs_f64();
        assert!(speedup > 1.5 && speedup < 4.0, "speedup {speedup}");
    }
}
