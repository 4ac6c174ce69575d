//! Per-epoch statistics reported by every system.

use ds_simgpu::Cluster;

/// Measurements of one training epoch (all times in *simulated* seconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochStats {
    /// End-to-end epoch makespan (the paper's headline metric).
    pub epoch_time: f64,
    /// Sampler busy time (max over ranks).
    pub sample_time: f64,
    /// Loader busy time (max over ranks).
    pub load_time: f64,
    /// Trainer busy time (max over ranks).
    pub train_time: f64,
    /// Mean GPU utilization across ranks (busy / elapsed, Fig. 6).
    pub utilization: f64,
    /// Seed-weighted mean training loss (0 when compute is skipped).
    pub loss: f64,
    /// Seed-weighted mean training accuracy.
    pub accuracy: f64,
    /// NVLink bytes moved this epoch.
    pub nvlink_bytes: u64,
    /// PCIe wire bytes moved this epoch.
    pub pcie_bytes: u64,
    /// Mini-batches per rank.
    pub num_batches: usize,
    /// Total seeds processed across ranks.
    pub seeds: usize,
    /// Batches retried by the supervisor this epoch (summed over ranks).
    pub retried_batches: usize,
    /// Ranks that newly fell back to degraded local sampling this epoch.
    pub degraded_ranks: usize,
}

impl EpochStats {
    /// Total communication bytes (NVLink + PCIe).
    pub fn total_bytes(&self) -> u64 {
        self.nvlink_bytes + self.pcie_bytes
    }

    /// Folds one epoch's per-rank measurements: stage and epoch times
    /// are the slowest rank's, utilization is the mean over ranks, loss
    /// and accuracy are seed-weighted, and link bytes are `cluster`'s
    /// meters since the epoch reset them. The supervision counts are
    /// left at zero for the caller.
    pub(crate) fn fold(ranks: &[RankEpoch], cluster: &Cluster, num_batches: usize) -> EpochStats {
        let mut metrics = MetricAccumulator::default();
        for r in ranks {
            metrics.merge(&r.metrics);
        }
        let (loss, accuracy, seeds) = metrics.finish();
        let (nvlink_bytes, pcie_bytes, _) = cluster.traffic_totals();
        let fmax = |f: fn(&RankEpoch) -> f64| ranks.iter().map(f).fold(0.0, f64::max);
        EpochStats {
            epoch_time: fmax(|r| r.makespan),
            sample_time: fmax(|r| r.sample_busy),
            load_time: fmax(|r| r.load_busy),
            train_time: fmax(|r| r.train_busy),
            utilization: ranks
                .iter()
                .map(|r| (r.useful / r.makespan.max(1e-12)).min(1.0))
                .sum::<f64>()
                / ranks.len().max(1) as f64,
            loss,
            accuracy,
            nvlink_bytes,
            pcie_bytes,
            num_batches,
            seeds,
            retried_batches: 0,
            degraded_ranks: 0,
        }
    }
}

/// One rank's measurement of one epoch (simulated seconds).
pub(crate) struct RankEpoch {
    pub(crate) sample_busy: f64,
    pub(crate) load_busy: f64,
    pub(crate) train_busy: f64,
    /// Occupancy-weighted device-useful seconds (Fig. 6's metric).
    pub(crate) useful: f64,
    pub(crate) makespan: f64,
    pub(crate) metrics: MetricAccumulator,
}

/// Aggregates per-rank (loss·seeds, acc·seeds, seeds) triples.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricAccumulator {
    loss_weighted: f64,
    acc_weighted: f64,
    seeds: usize,
}

impl MetricAccumulator {
    /// Adds one rank's batch result.
    pub fn add(&mut self, loss: f32, acc: f64, seeds: usize) {
        self.loss_weighted += loss as f64 * seeds as f64;
        self.acc_weighted += acc * seeds as f64;
        self.seeds += seeds;
    }

    /// Merges another accumulator.
    pub fn merge(&mut self, other: &MetricAccumulator) {
        self.loss_weighted += other.loss_weighted;
        self.acc_weighted += other.acc_weighted;
        self.seeds += other.seeds;
    }

    /// (mean loss, mean accuracy, total seeds).
    pub fn finish(&self) -> (f64, f64, usize) {
        if self.seeds == 0 {
            (0.0, 0.0, 0)
        } else {
            (
                self.loss_weighted / self.seeds as f64,
                self.acc_weighted / self.seeds as f64,
                self.seeds,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_weights_by_seeds() {
        let mut a = MetricAccumulator::default();
        a.add(1.0, 1.0, 10);
        a.add(3.0, 0.0, 30);
        let (loss, acc, seeds) = a.finish();
        assert!((loss - 2.5).abs() < 1e-9);
        assert!((acc - 0.25).abs() < 1e-9);
        assert_eq!(seeds, 40);
    }

    #[test]
    fn empty_accumulator_is_zero() {
        assert_eq!(MetricAccumulator::default().finish(), (0.0, 0.0, 0));
    }

    #[test]
    fn merge_combines() {
        let mut a = MetricAccumulator::default();
        a.add(2.0, 0.5, 4);
        let mut b = MetricAccumulator::default();
        b.add(4.0, 1.0, 4);
        a.merge(&b);
        let (loss, acc, _) = a.finish();
        assert!((loss - 3.0).abs() < 1e-9);
        assert!((acc - 0.75).abs() < 1e-9);
    }

    #[test]
    fn total_bytes_sums_links() {
        let s = EpochStats {
            nvlink_bytes: 10,
            pcie_bytes: 5,
            ..Default::default()
        };
        assert_eq!(s.total_bytes(), 15);
    }
}
