//! Graph random walks as a special case of CSP (§4.2).
//!
//! A walk is node-wise sampling with fan-out 1 where the task *moves
//! with the data*: after each step the walk item is shuffled to the GPU
//! owning its new head node, the reshuffle stage is dropped, and a
//! termination condition (fixed length, early-stop probability, dead
//! ends) is evaluated in the shuffle stage. Finished walks are routed
//! back to their origin rank.

use crate::dist_graph::DistGraph;
use crate::local::request_rng;
use ds_comm::Communicator;
use ds_graph::NodeId;
use ds_simgpu::{Clock, Cluster};
use std::sync::Arc;

/// Random-walk configuration.
#[derive(Clone, Copy, Debug)]
pub struct RandomWalkConfig {
    /// Maximum number of steps per walk.
    pub length: usize,
    /// Probability of stopping early after each step (0 = never).
    pub stop_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomWalkConfig {
    fn default() -> Self {
        RandomWalkConfig {
            length: 8,
            stop_prob: 0.0,
            seed: 0x77a1,
        }
    }
}

/// A walk in flight (or finished), owned by whichever rank currently
/// holds its head node.
#[derive(Clone, Debug)]
struct WalkItem {
    origin: u32,
    id: u32,
    path: Vec<NodeId>,
    done: bool,
}

/// Multi-GPU random walker over a partitioned graph.
pub struct RandomWalker {
    graph: Arc<DistGraph>,
    cluster: Arc<Cluster>,
    comm: Arc<Communicator>,
    rank: usize,
    cfg: RandomWalkConfig,
    batch_index: u64,
}

impl RandomWalker {
    /// Creates the walker for `rank`; all ranks share `graph` and `comm`.
    pub fn new(
        graph: Arc<DistGraph>,
        cluster: Arc<Cluster>,
        comm: Arc<Communicator>,
        rank: usize,
        cfg: RandomWalkConfig,
    ) -> Self {
        RandomWalker {
            graph,
            cluster,
            comm,
            rank,
            cfg,
            batch_index: 0,
        }
    }

    /// Runs one batch of walks from `starts` (this rank's start nodes).
    /// Returns one path per start, in start order; each path begins with
    /// its start node and has at most `length + 1` nodes.
    pub fn walk_batch(&mut self, clock: &mut Clock, starts: &[NodeId]) -> Vec<Vec<NodeId>> {
        let n = self.graph.num_ranks();
        let model = *self.cluster.model();
        let batch = self.batch_index;
        self.batch_index += 1;
        // Initial shuffle: route each walk to its start node's owner.
        let mut sends: Vec<Vec<WalkItem>> = vec![Vec::new(); n];
        for (i, &v) in starts.iter().enumerate() {
            sends[self.graph.owner(v)].push(WalkItem {
                origin: self.rank as u32,
                id: i as u32,
                path: vec![v],
                done: false,
            });
        }
        let mut finished: Vec<WalkItem> = Vec::new();
        let mut active: Vec<WalkItem> = Vec::new();
        for step in 0..=self.cfg.length {
            let item_bytes = 12 + 4 * (step as u64 + 1);
            let received = self.comm.all_to_all_v(self.rank, clock, sends, item_bytes);
            active.clear();
            for item in received.into_iter().flatten() {
                if item.done {
                    finished.push(item);
                } else {
                    active.push(item);
                }
            }
            if step == self.cfg.length {
                // The final exchange only returns stragglers to origin;
                // every in-flight walk has completed by now.
                debug_assert!(active.is_empty(), "walks still active after max length");
                break;
            }
            // One fused step kernel for all local walks.
            clock.work(
                model
                    .gpu
                    .time_full(active.len() as u64, model.sample_cycles_per_item),
            );
            sends = vec![Vec::new(); n];
            for mut item in active.drain(..) {
                let head = *item.path.last().unwrap();
                let mut rng = request_rng(
                    self.cfg.seed ^ item.origin as u64,
                    batch.wrapping_mul(1 << 20) + item.id as u64,
                    step,
                    head,
                );
                let nb = self.graph.neighbors(head);
                let stop = nb.is_empty()
                    || (self.cfg.stop_prob > 0.0 && rng.gen::<f64>() < self.cfg.stop_prob);
                if !stop {
                    let next = nb[rng.gen_range(0..nb.len())];
                    item.path.push(next);
                }
                // A walk completes when it stops or reaches full length;
                // completed walks go home, others to their new owner.
                if stop || item.path.len() == self.cfg.length + 1 {
                    item.done = true;
                    let origin = item.origin as usize;
                    sends[origin].push(item);
                } else {
                    let owner = self.graph.owner(*item.path.last().unwrap());
                    sends[owner].push(item);
                }
            }
        }
        // Assemble this rank's walks by id.
        let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); starts.len()];
        for item in finished {
            assert_eq!(
                item.origin as usize, self.rank,
                "walk returned to wrong origin"
            );
            out[item.id as usize] = item.path;
        }
        for (i, path) in out.iter().enumerate() {
            assert!(!path.is_empty(), "walk {i} never returned");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::gen;
    use ds_partition::{simple::range_partition, Renumbering};
    use ds_simgpu::ClusterSpec;

    fn run_walks(
        n_ranks: usize,
        cfg: RandomWalkConfig,
        starts_of: impl Fn(usize) -> Vec<NodeId> + Send + Sync + 'static,
    ) -> (ds_graph::Csr, Vec<Vec<Vec<NodeId>>>) {
        let g = gen::erdos_renyi(120, 2400, true, 21);
        let p = range_partition(&g, n_ranks);
        let renum = Renumbering::from_partition(&p);
        let dg = Arc::new(DistGraph::from_renumbered(&g, &renum));
        let cluster = Arc::new(ClusterSpec::v100(n_ranks).build());
        let comm = Arc::new(Communicator::new(11, Arc::clone(&cluster)));
        let starts_of = Arc::new(starts_of);
        let handles: Vec<_> = (0..n_ranks)
            .map(|rank| {
                let dg = Arc::clone(&dg);
                let cluster = Arc::clone(&cluster);
                let comm = Arc::clone(&comm);
                let starts_of = Arc::clone(&starts_of);
                std::thread::spawn(move || {
                    let mut w = RandomWalker::new(dg, cluster, comm, rank, cfg);
                    let mut clock = Clock::new();
                    w.walk_batch(&mut clock, &starts_of(rank))
                })
            })
            .collect();
        (g, handles.into_iter().map(|h| h.join().unwrap()).collect())
    }

    #[test]
    fn walks_follow_graph_edges() {
        let (g, results) = run_walks(
            2,
            RandomWalkConfig {
                length: 6,
                stop_prob: 0.0,
                seed: 1,
            },
            |rank| {
                if rank == 0 {
                    vec![0, 10, 20]
                } else {
                    vec![100, 110]
                }
            },
        );
        for paths in &results {
            for path in paths {
                assert!(path.len() >= 1 && path.len() <= 7);
                for w in path.windows(2) {
                    assert!(
                        g.neighbors(w[0]).contains(&w[1]),
                        "edge {}->{} missing",
                        w[0],
                        w[1]
                    );
                }
            }
        }
        assert_eq!(results[0].len(), 3);
        assert_eq!(results[1].len(), 2);
        assert_eq!(results[0][0][0], 0);
        assert_eq!(results[1][1][0], 110);
    }

    #[test]
    fn stop_probability_shortens_walks() {
        let (_, eager) = run_walks(
            2,
            RandomWalkConfig {
                length: 12,
                stop_prob: 0.7,
                seed: 2,
            },
            |rank| {
                if rank == 0 {
                    (0..30).collect()
                } else {
                    (70..100).collect()
                }
            },
        );
        let (_, patient) = run_walks(
            2,
            RandomWalkConfig {
                length: 12,
                stop_prob: 0.0,
                seed: 2,
            },
            |rank| {
                if rank == 0 {
                    (0..30).collect()
                } else {
                    (70..100).collect()
                }
            },
        );
        let avg = |rs: &Vec<Vec<Vec<NodeId>>>| {
            let total: usize = rs.iter().flatten().map(|p| p.len()).sum();
            let count: usize = rs.iter().map(|r| r.len()).sum();
            total as f64 / count as f64
        };
        assert!(
            avg(&eager) < avg(&patient) * 0.6,
            "{} vs {}",
            avg(&eager),
            avg(&patient)
        );
    }

    #[test]
    fn walks_are_deterministic() {
        let cfg = RandomWalkConfig {
            length: 5,
            stop_prob: 0.3,
            seed: 3,
        };
        let (_, a) = run_walks(2, cfg, |r| vec![r as u32 * 60 + 5]);
        let (_, b) = run_walks(2, cfg, |r| vec![r as u32 * 60 + 5]);
        assert_eq!(a, b);
    }
}
