//! DSP's partitioned feature cache (§3.1).
//!
//! Every GPU caches the hottest features **of its own graph patch**, so
//! all GPUs together form one aggregate cache: with k GPUs, k× more
//! features are reachable over NVLink than any replicated scheme allows,
//! at the cost of an all-to-all lookup (which the loader batches per
//! mini-batch).

use ds_graph::{Features, NodeId};
use ds_tensor::Matrix;
use std::ops::Range;

/// Sentinel for "not cached".
const COLD: u32 = u32::MAX;

/// A per-rank partitioned feature cache.
#[derive(Clone, Debug)]
pub struct PartitionedCache {
    dim: usize,
    range_starts: Vec<NodeId>,
    /// Per rank: local id → cached row index (or `COLD`). The paper's
    /// "feature position list" (§6).
    position: Vec<Vec<u32>>,
    /// Per rank: cached rows.
    storage: Vec<Matrix>,
}

impl PartitionedCache {
    /// Builds the cache: walk `hot_order` (hottest first) and cache each
    /// node's row on its owner rank while that rank's `budget_bytes`
    /// lasts.
    pub fn build(
        features: &Features,
        ranges: &[Range<NodeId>],
        hot_order: &[NodeId],
        budget_bytes: u64,
    ) -> Self {
        let dim = features.dim();
        let row_bytes = features.row_bytes();
        let k = ranges.len();
        let rows_per_rank = (budget_bytes / row_bytes.max(1)) as usize;
        let owner = |v: NodeId| -> usize {
            ranges
                .iter()
                .position(|r| r.contains(&v))
                .expect("node outside all ranges")
        };
        let mut position: Vec<Vec<u32>> = ranges
            .iter()
            .map(|r| vec![COLD; (r.end - r.start) as usize])
            .collect();
        let mut rows: Vec<Vec<f32>> = vec![Vec::new(); k];
        let mut counts = vec![0usize; k];
        for &v in hot_order {
            let o = owner(v);
            if counts[o] >= rows_per_rank {
                continue;
            }
            let local = (v - ranges[o].start) as usize;
            if position[o][local] != COLD {
                continue;
            }
            position[o][local] = counts[o] as u32;
            rows[o].extend_from_slice(features.row(v));
            counts[o] += 1;
        }
        let storage = rows
            .into_iter()
            .zip(&counts)
            .map(|(data, &c)| Matrix::from_vec(c, dim, data))
            .collect();
        let mut range_starts: Vec<NodeId> = ranges.iter().map(|r| r.start).collect();
        range_starts.push(ranges.last().map(|r| r.end).unwrap_or(0));
        PartitionedCache {
            dim,
            range_starts,
            position,
            storage,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.storage.len()
    }

    /// Owner rank of a global node id (range check).
    #[inline]
    pub fn owner(&self, v: NodeId) -> usize {
        self.range_starts.partition_point(|&s| s <= v) - 1
    }

    /// The cached row of global node `v` on `rank`, if `rank` owns and
    /// caches it. O(1): `rank`'s own range is checked directly, so a
    /// caller that already knows `owner(v)` pays no second search.
    pub fn lookup(&self, rank: usize, v: NodeId) -> Option<&[f32]> {
        let local = v.checked_sub(self.range_starts[rank])? as usize;
        match *self.position[rank].get(local)? {
            COLD => None,
            slot => Some(self.storage[rank].row(slot as usize)),
        }
    }

    /// Whether `v` is cached anywhere (on its owner).
    pub fn is_cached(&self, v: NodeId) -> bool {
        self.lookup(self.owner(v), v).is_some()
    }

    /// Cached rows on `rank`.
    pub fn cached_rows(&self, rank: usize) -> usize {
        self.storage[rank].rows()
    }

    /// Global ids cached on `rank`, in slot order — i.e. hottest first,
    /// the insertion order of [`Self::build`]'s `hot_order` walk. The
    /// warm-start contents handed to a dynamic policy shard.
    pub fn cached_nodes(&self, rank: usize) -> Vec<NodeId> {
        let start = self.range_starts[rank];
        let mut out = vec![0; self.cached_rows(rank)];
        for (local, &slot) in self.position[rank].iter().enumerate() {
            if slot != COLD {
                out[slot as usize] = start + local as NodeId;
            }
        }
        out
    }

    /// Cache bytes on `rank`.
    pub fn bytes(&self, rank: usize) -> u64 {
        (self.storage[rank].rows() * self.dim * 4) as u64
    }

    /// Total cached rows across the aggregate cache.
    pub fn total_cached(&self) -> usize {
        (0..self.num_ranks()).map(|r| self.cached_rows(r)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(n: usize, dim: usize) -> Features {
        Features::from_raw(dim, (0..n * dim).map(|i| i as f32).collect())
    }

    fn ranges(k: usize, n: usize) -> Vec<Range<NodeId>> {
        let per = n / k;
        (0..k)
            .map(|i| (i * per) as u32..(((i + 1) * per).min(n)) as u32)
            .collect()
    }

    #[test]
    fn hot_nodes_land_on_their_owner() {
        let f = features(100, 4);
        let rs = ranges(2, 100);
        // Hot order: 99 (rank 1), 0 (rank 0), 50 (rank 1), 1 (rank 0).
        let cache = PartitionedCache::build(&f, &rs, &[99, 0, 50, 1], 2 * 16);
        assert_eq!(cache.cached_rows(0), 2);
        assert_eq!(cache.cached_rows(1), 2);
        assert_eq!(cache.lookup(1, 99).unwrap(), f.row(99));
        assert_eq!(cache.lookup(0, 0).unwrap(), f.row(0));
        // Node 2 was never in the hot order prefix that fit.
        assert!(cache.lookup(0, 2).is_none());
        // Wrong rank never answers.
        assert!(cache.lookup(0, 99).is_none());
    }

    #[test]
    fn cached_nodes_come_back_in_hot_order() {
        let f = features(100, 4);
        let rs = ranges(2, 100);
        let cache = PartitionedCache::build(&f, &rs, &[99, 0, 50, 1], 2 * 16);
        assert_eq!(cache.cached_nodes(0), vec![0, 1]);
        assert_eq!(cache.cached_nodes(1), vec![99, 50]);
    }

    #[test]
    fn budget_limits_rows_per_rank() {
        let f = features(100, 4);
        let rs = ranges(4, 100);
        let order: Vec<NodeId> = (0..100).collect();
        let cache = PartitionedCache::build(&f, &rs, &order, 3 * 16);
        for r in 0..4 {
            assert_eq!(cache.cached_rows(r), 3);
            assert_eq!(cache.bytes(r), 48);
        }
        assert_eq!(cache.total_cached(), 12);
    }

    #[test]
    fn aggregate_cache_exceeds_single_rank() {
        // The whole point of partitioning: with k ranks the aggregate
        // cache holds k× the rows of any one rank's budget.
        let f = features(1000, 8);
        let rs = ranges(8, 1000);
        let order: Vec<NodeId> = (0..1000).collect();
        let cache = PartitionedCache::build(&f, &rs, &order, 10 * 32);
        assert_eq!(cache.total_cached(), 80);
    }

    #[test]
    fn zero_budget_caches_nothing() {
        let f = features(10, 2);
        let rs = ranges(2, 10);
        let cache = PartitionedCache::build(&f, &rs, &[0, 1, 2], 0);
        assert_eq!(cache.total_cached(), 0);
        assert!(!cache.is_cached(0));
    }

    #[test]
    fn duplicate_hot_entries_are_ignored() {
        let f = features(10, 2);
        let rs = ranges(1, 10);
        let cache = PartitionedCache::build(&f, &rs, &[3, 3, 3, 4], 8 * 10);
        assert_eq!(cache.cached_rows(0), 2);
    }
}
