//! Baseline samplers the paper compares CSP against.
//!
//! Every baseline draws through the same placement-independent
//! [`request_rng`], so all systems construct *identical* graph samples
//! for identical seeds — only their communication pattern, memory
//! traffic and modelled time differ. That isolates exactly what the
//! paper's Tables 4/6 and Figures 1/11 measure.

use crate::local::{self, request_rng, DrawParams};
use crate::sample::{next_dst, GraphSample, SampleLayer};
use crate::{BatchSampler, DistGraph};
use ds_comm::Communicator;
use ds_graph::{Csr, NodeId};
use ds_simgpu::{Clock, Cluster};
use std::sync::Arc;

/// One layer's draws on a locally-accessible full topology, in
/// `frontier` order. Returns (offsets, neighbors).
fn sample_layer(
    g: &Csr,
    draw: DrawParams,
    fan: usize,
    batch: u64,
    layer: usize,
    frontier: &[NodeId],
) -> (Vec<u32>, Vec<NodeId>) {
    let requests = frontier.iter().map(|&v| (v, fan as u32));
    local::sample_frontier(g, draw, batch, layer, requests)
}

/// Which UVA-based system is being modelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UvaVariant {
    /// DGL-UVA: PyTorch caching allocator (cheap allocations).
    DglUva,
    /// Quiver: cudaMalloc/cudaFree per batch — the §7.2 overhead that
    /// makes it slower than DGL-UVA despite feature caching.
    Quiver,
}

/// GPU sampler reading the topology from host memory through UVA —
/// the Quiver / DGL-UVA design. Each GPU samples independently; every
/// adjacency access crosses PCIe and pays TLP read amplification.
pub struct UvaSampler {
    graph: Arc<Csr>,
    cluster: Arc<Cluster>,
    rank: usize,
    fanout: Vec<usize>,
    draw: DrawParams,
    variant: UvaVariant,
    batch_index: u64,
}

impl UvaSampler {
    /// Creates a UVA sampler for `rank` over the full host-resident graph.
    pub fn new(
        graph: Arc<Csr>,
        cluster: Arc<Cluster>,
        rank: usize,
        fanout: Vec<usize>,
        biased: bool,
        variant: UvaVariant,
        seed: u64,
    ) -> Self {
        UvaSampler {
            graph,
            cluster,
            rank,
            fanout,
            draw: DrawParams {
                biased,
                ..DrawParams::uniform(seed)
            },
            variant,
            batch_index: 0,
        }
    }
}

impl BatchSampler for UvaSampler {
    fn sample_batch(&mut self, clock: &mut Clock, seeds: &[NodeId]) -> GraphSample {
        let model = *self.cluster.model();
        // Allocator overhead per mini-batch (calibrated at the paper's
        // batch 1024; scales with the actual batch size). cudaMalloc and
        // cudaFree serialize on a driver-level lock, so with more GPUs
        // (= more training processes calling them) each call slows down
        // proportionally — which is why Quiver's handicap grows with the
        // GPU count in Tables 4/6 while its cache advantage does not.
        let contention = self.cluster.num_gpus() as f64;
        let alloc = match self.variant {
            UvaVariant::Quiver => model.cuda_malloc_s * contention,
            UvaVariant::DglUva => model.alloc_cached_s,
        };
        let scale = ds_simgpu::model::batch_overhead_factor(seeds.len().max(1));
        clock.work(alloc * model.mallocs_per_batch as f64 * scale);

        let batch = self.batch_index;
        self.batch_index += 1;
        let mut layers = Vec::with_capacity(self.fanout.len());
        for (l, &fan) in self.fanout.iter().enumerate() {
            let frontier = next_dst(seeds, &layers);
            // indptr lookups: one 16 B UVA read per frontier node.
            clock.work_on(
                self.cluster.uva_read(self.rank, frontier.len() as u64, 16),
                ds_simgpu::clock::ResKind::Pcie,
            );
            let (offsets, neighbors) =
                sample_layer(&self.graph, self.draw, fan, batch, l, &frontier);
            if self.draw.biased {
                // Biased sampling must read each node's whole adjacency
                // and weight lists (§4.2): one large UVA read per node.
                for &v in &frontier {
                    let deg = self.graph.degree(v) as u64;
                    if deg > 0 {
                        clock.work_on(
                            self.cluster.uva_read(self.rank, 1, deg * 8),
                            ds_simgpu::clock::ResKind::Pcie,
                        );
                    }
                }
            } else {
                // Unbiased: k random 4 B neighbor reads per node — the
                // 12.5× read amplification of Fig. 1.
                clock.work_on(
                    self.cluster.uva_read(self.rank, neighbors.len() as u64, 4),
                    ds_simgpu::clock::ResKind::Pcie,
                );
            }
            clock.work(
                model
                    .gpu
                    .time_full(neighbors.len() as u64, model.sample_cycles_per_item),
            );
            let layer = SampleLayer::new(frontier, offsets, neighbors);
            clock.work(
                model
                    .gpu
                    .time_full(layer.src.len() as u64, 4.0 * model.scan_cycles_per_item),
            );
            layers.push(layer);
        }
        GraphSample::new(seeds.to_vec(), layers)
    }
}

/// Which CPU-sampling system is being modelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuVariant {
    /// PyG: Python-assisted sampling path.
    PyG,
    /// DGL-CPU: native C++ sampling path.
    DglCpu,
}

/// CPU sampler (PyG / DGL-CPU): samples on the host with the GPUs
/// contending for CPU cores, then ships the sample structure to the GPU
/// over PCIe.
pub struct CpuSampler {
    graph: Arc<Csr>,
    cluster: Arc<Cluster>,
    rank: usize,
    /// Number of concurrent training processes (= GPUs) sharing the CPU.
    workers: usize,
    fanout: Vec<usize>,
    draw: DrawParams,
    variant: CpuVariant,
    batch_index: u64,
}

impl CpuSampler {
    /// Creates a CPU sampler for `rank` of `workers` total.
    pub fn new(
        graph: Arc<Csr>,
        cluster: Arc<Cluster>,
        rank: usize,
        workers: usize,
        fanout: Vec<usize>,
        variant: CpuVariant,
        seed: u64,
    ) -> Self {
        CpuSampler {
            graph,
            cluster,
            rank,
            workers,
            fanout,
            draw: DrawParams::uniform(seed),
            variant,
            batch_index: 0,
        }
    }
}

impl BatchSampler for CpuSampler {
    fn sample_batch(&mut self, clock: &mut Clock, seeds: &[NodeId]) -> GraphSample {
        let model = *self.cluster.model();
        let batch = self.batch_index;
        self.batch_index += 1;
        let mut layers = Vec::with_capacity(self.fanout.len());
        let mut total_sampled = 0u64;
        let mut touched_bytes = 0u64;
        for (l, &fan) in self.fanout.iter().enumerate() {
            let frontier = next_dst(seeds, &layers);
            let (offsets, neighbors) =
                sample_layer(&self.graph, self.draw, fan, batch, l, &frontier);
            total_sampled += neighbors.len() as u64;
            // CPU touches the adjacency metadata of each frontier node
            // plus one cache line per sampled neighbor.
            touched_bytes += frontier.len() as u64 * 16 + neighbors.len() as u64 * 64;
            layers.push(SampleLayer::new(frontier, offsets, neighbors));
        }
        // Host-side sampling time: fixed batch overhead + per-item cost
        // on this worker's share of the cores.
        let (ns_per_item, overhead) = match self.variant {
            CpuVariant::PyG => (model.cpu.sample_ns_python, model.cpu.batch_overhead_python),
            CpuVariant::DglCpu => (model.cpu.sample_ns_native, model.cpu.batch_overhead_native),
        };
        let cores = model.cpu.cores_per_worker(self.workers);
        let scale = ds_simgpu::model::batch_overhead_factor(seeds.len().max(1));
        clock.work(overhead * scale + total_sampled as f64 * ns_per_item * 1e-9 / cores);
        self.cluster
            .device(self.rank)
            .meter
            .record(ds_simgpu::Link::HostDram, touched_bytes);
        // Ship the sample structure (node ids + CSR offsets per layer)
        // to the GPU as one bulk PCIe copy.
        let sample = GraphSample::new(seeds.to_vec(), layers);
        let struct_bytes = sample.num_nodes() as u64 * 4 + sample.num_edges() as u64 * 8;
        clock.work_on(
            self.cluster.pcie_copy(self.rank, struct_bytes),
            ds_simgpu::clock::ResKind::Pcie,
        );
        sample
    }
}

/// The *Pull Data* strategy of Fig. 11: sampling on a partitioned graph
/// by pulling each remote frontier node's **entire adjacency (and
/// weight) list** to the requesting GPU, then sampling locally. Same
/// samples as CSP; vastly more NVLink traffic on high-degree graphs.
pub struct PullDataSampler {
    graph: Arc<DistGraph>,
    cluster: Arc<Cluster>,
    comm: Arc<Communicator>,
    rank: usize,
    fanout: Vec<usize>,
    biased: bool,
    seed: u64,
    batch_index: u64,
}

impl PullDataSampler {
    /// Creates the sampler for `rank`; all ranks share `graph` and `comm`.
    pub fn new(
        graph: Arc<DistGraph>,
        cluster: Arc<Cluster>,
        comm: Arc<Communicator>,
        rank: usize,
        fanout: Vec<usize>,
        biased: bool,
        seed: u64,
    ) -> Self {
        PullDataSampler {
            graph,
            cluster,
            comm,
            rank,
            fanout,
            biased,
            seed,
            batch_index: 0,
        }
    }
}

impl BatchSampler for PullDataSampler {
    fn sample_batch(&mut self, clock: &mut Clock, seeds: &[NodeId]) -> GraphSample {
        let n = self.graph.num_ranks();
        let model = *self.cluster.model();
        let batch = self.batch_index;
        self.batch_index += 1;
        let mut layers = Vec::with_capacity(self.fanout.len());
        for (l, &fan) in self.fanout.iter().enumerate() {
            let frontier = next_dst(seeds, &layers);
            clock.work(
                model
                    .gpu
                    .time_full(frontier.len() as u64, model.scan_cycles_per_item),
            );
            // Request each frontier node's adjacency list from its owner.
            let mut sends: Vec<Vec<NodeId>> = vec![Vec::new(); n];
            let mut placement = Vec::with_capacity(frontier.len());
            for &v in &frontier {
                let owner = self.graph.owner(v);
                placement.push((owner, sends[owner].len() as u32));
                sends[owner].push(v);
            }
            let queries = self.comm.all_to_all_v(self.rank, clock, sends, 4);
            // Owners reply with full lists: neighbor ids (4 B) and, if
            // biased, weights (4 B) — the pull that CSP avoids.
            let item_bytes = if self.biased { 8 } else { 4 };
            let counts: Vec<Vec<u32>> = queries
                .iter()
                .map(|qs| qs.iter().map(|&v| self.graph.degree(v) as u32).collect())
                .collect();
            let lists: Vec<Vec<(NodeId, f32)>> = queries
                .iter()
                .map(|qs| {
                    qs.iter()
                        .flat_map(|&v| {
                            let nb = self.graph.neighbors(v);
                            match self.graph.neighbor_weights(v) {
                                Some(ws) => {
                                    nb.iter().zip(ws).map(|(&u, &w)| (u, w)).collect::<Vec<_>>()
                                }
                                None => nb.iter().map(|&u| (u, 1.0)).collect(),
                            }
                        })
                        .collect()
                })
                .collect();
            let recv_counts = self.comm.all_to_all_v(self.rank, clock, counts, 4);
            let recv_lists = self.comm.all_to_all_v(self.rank, clock, lists, item_bytes);
            // Local sampling on the pulled lists, same RNG as CSP.
            let offsets_of: Vec<Vec<u32>> = recv_counts
                .iter()
                .map(|cs| {
                    let mut off = vec![0u32];
                    let mut acc = 0;
                    for &c in cs {
                        acc += c;
                        off.push(acc);
                    }
                    off
                })
                .collect();
            let mut offsets = Vec::with_capacity(frontier.len() + 1);
            offsets.push(0u32);
            let mut neighbors = Vec::with_capacity(frontier.len() * fan);
            for (i, &v) in frontier.iter().enumerate() {
                let (owner, idx) = placement[i];
                let lo = offsets_of[owner][idx as usize] as usize;
                let hi = offsets_of[owner][idx as usize + 1] as usize;
                // Draw straight from the pulled (id, weight) pairs.
                let pulled = &recv_lists[owner][lo..hi];
                let mut rng = request_rng(self.seed, batch, l, v);
                if self.biased {
                    local::sample_weighted_into(
                        pulled.iter().copied(),
                        fan,
                        &mut rng,
                        &mut neighbors,
                    );
                } else {
                    local::sample_positions(pulled.len(), fan, &mut rng, |p| {
                        neighbors.push(pulled[p].0)
                    });
                }
                offsets.push(neighbors.len() as u32);
            }
            clock.work(
                model
                    .gpu
                    .time_full(neighbors.len() as u64, model.sample_cycles_per_item),
            );
            let layer = SampleLayer::new(frontier, offsets, neighbors);
            clock.work(
                model
                    .gpu
                    .time_full(layer.src.len() as u64, 4.0 * model.scan_cycles_per_item),
            );
            layers.push(layer);
        }
        GraphSample::new(seeds.to_vec(), layers)
    }
}

/// The hypothetical *Ideal* design of Fig. 1: fetches exactly the data
/// it needs — 4 bytes per sampled neighbor id, all treated as remote —
/// with no amplification and no task/metadata overhead.
pub struct IdealSampler {
    graph: Arc<Csr>,
    cluster: Arc<Cluster>,
    rank: usize,
    fanout: Vec<usize>,
    draw: DrawParams,
    batch_index: u64,
}

impl IdealSampler {
    /// Creates the ideal sampler for `rank`.
    pub fn new(
        graph: Arc<Csr>,
        cluster: Arc<Cluster>,
        rank: usize,
        fanout: Vec<usize>,
        seed: u64,
    ) -> Self {
        IdealSampler {
            graph,
            cluster,
            rank,
            fanout,
            draw: DrawParams::uniform(seed),
            batch_index: 0,
        }
    }
}

impl BatchSampler for IdealSampler {
    fn sample_batch(&mut self, clock: &mut Clock, seeds: &[NodeId]) -> GraphSample {
        let batch = self.batch_index;
        self.batch_index += 1;
        let mut layers = Vec::with_capacity(self.fanout.len());
        for (l, &fan) in self.fanout.iter().enumerate() {
            let frontier = next_dst(seeds, &layers);
            let (offsets, neighbors) =
                sample_layer(&self.graph, self.draw, fan, batch, l, &frontier);
            // Exactly 4 bytes per sampled id, over NVLink, all remote.
            let bytes = neighbors.len() as u64 * 4;
            self.cluster
                .device(self.rank)
                .meter
                .record(ds_simgpu::Link::NvLink, bytes);
            let bw = self
                .cluster
                .topology()
                .nvlink_egress_bw(self.rank)
                .max(ds_simgpu::topology::NVLINK_LINK_BW);
            clock.work_on(bytes as f64 / bw, ds_simgpu::clock::ResKind::NvLink);
            layers.push(SampleLayer::new(frontier, offsets, neighbors));
        }
        GraphSample::new(seeds.to_vec(), layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::gen;
    use ds_partition::{simple::range_partition, Renumbering};
    use ds_simgpu::ClusterSpec;

    fn test_graph() -> Csr {
        gen::erdos_renyi(150, 3000, true, 17)
    }

    #[test]
    fn uva_and_cpu_build_identical_samples() {
        let g = Arc::new(test_graph());
        let cluster = Arc::new(ClusterSpec::v100(1).build());
        let fanout = vec![5, 3];
        let seeds = vec![3u32, 77, 140];
        let mut uva = UvaSampler::new(
            Arc::clone(&g),
            Arc::clone(&cluster),
            0,
            fanout.clone(),
            false,
            UvaVariant::DglUva,
            9,
        );
        let mut cpu = CpuSampler::new(
            Arc::clone(&g),
            Arc::clone(&cluster),
            0,
            1,
            fanout.clone(),
            CpuVariant::PyG,
            9,
        );
        let mut ideal = IdealSampler::new(Arc::clone(&g), Arc::clone(&cluster), 0, fanout, 9);
        let mut c1 = Clock::new();
        let mut c2 = Clock::new();
        let mut c3 = Clock::new();
        let a = uva.sample_batch(&mut c1, &seeds);
        let b = cpu.sample_batch(&mut c2, &seeds);
        let c = ideal.sample_batch(&mut c3, &seeds);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn uva_pays_read_amplification() {
        let g = Arc::new(test_graph());
        let cluster = Arc::new(ClusterSpec::v100(1).build());
        let mut uva = UvaSampler::new(
            Arc::clone(&g),
            Arc::clone(&cluster),
            0,
            vec![5],
            false,
            UvaVariant::DglUva,
            9,
        );
        let mut clock = Clock::new();
        let s = uva.sample_batch(&mut clock, &[1, 2, 3, 4, 5]);
        let pcie = cluster.device(0).meter.pcie_bytes();
        // Useful bytes: 4 per sampled neighbor; wire: ≥ 50 per neighbor
        // plus 50 per frontier indptr read.
        let useful = s.num_edges() as u64 * 4;
        assert!(pcie >= 12 * useful, "pcie {pcie} vs useful {useful}");
    }

    #[test]
    fn quiver_is_slower_than_dgl_uva_per_batch() {
        let g = Arc::new(test_graph());
        let cluster = Arc::new(ClusterSpec::v100(1).build());
        let seeds: Vec<NodeId> = (0..50).collect();
        let mut q = UvaSampler::new(
            Arc::clone(&g),
            Arc::clone(&cluster),
            0,
            vec![5, 3],
            false,
            UvaVariant::Quiver,
            9,
        );
        let mut d = UvaSampler::new(
            Arc::clone(&g),
            Arc::clone(&cluster),
            0,
            vec![5, 3],
            false,
            UvaVariant::DglUva,
            9,
        );
        let mut cq = Clock::new();
        let mut cd = Clock::new();
        q.sample_batch(&mut cq, &seeds);
        d.sample_batch(&mut cd, &seeds);
        assert!(
            cq.now() > cd.now(),
            "quiver {} vs dgl-uva {}",
            cq.now(),
            cd.now()
        );
    }

    #[test]
    fn cpu_contention_slows_sampling_with_more_workers() {
        let g = Arc::new(test_graph());
        let cluster = Arc::new(ClusterSpec::v100(8).build());
        let seeds: Vec<NodeId> = (0..100).collect();
        let mut one = CpuSampler::new(
            Arc::clone(&g),
            Arc::clone(&cluster),
            0,
            1,
            vec![10, 10],
            CpuVariant::DglCpu,
            9,
        );
        let mut eight = CpuSampler::new(
            Arc::clone(&g),
            Arc::clone(&cluster),
            0,
            8,
            vec![10, 10],
            CpuVariant::DglCpu,
            9,
        );
        let mut c1 = Clock::new();
        let mut c8 = Clock::new();
        one.sample_batch(&mut c1, &seeds);
        eight.sample_batch(&mut c8, &seeds);
        assert!(
            c8.now() > c1.now(),
            "8-worker share should be slower per worker"
        );
    }

    #[test]
    fn pull_data_matches_csp_samples_and_costs_more_traffic() {
        let g = test_graph();
        let p = range_partition(&g, 2);
        let renum = Renumbering::from_partition(&p);
        let dg = Arc::new(DistGraph::from_renumbered(&g, &renum));
        let cluster_pull = Arc::new(ClusterSpec::v100(2).build());
        let cluster_csp = Arc::new(ClusterSpec::v100(2).build());
        let comm_pull = Arc::new(Communicator::new(21, Arc::clone(&cluster_pull)));
        let comm_csp = Arc::new(Communicator::new(22, Arc::clone(&cluster_csp)));
        let seeds_of = |rank: usize| -> Vec<NodeId> {
            if rank == 0 {
                vec![0, 10, 20, 30]
            } else {
                vec![90, 100, 110]
            }
        };
        let mut handles = Vec::new();
        for rank in 0..2 {
            let dg = Arc::clone(&dg);
            let cp = Arc::clone(&cluster_pull);
            let cc = Arc::clone(&cluster_csp);
            let comm_p = Arc::clone(&comm_pull);
            let comm_c = Arc::clone(&comm_csp);
            let seeds = seeds_of(rank);
            handles.push(std::thread::spawn(move || {
                let mut pull =
                    PullDataSampler::new(Arc::clone(&dg), cp, comm_p, rank, vec![4, 4], false, 9);
                let mut csp = crate::csp::CspSampler::new(
                    dg,
                    cc,
                    comm_c,
                    rank,
                    crate::csp::CspConfig {
                        fanout: vec![4, 4],
                        scheme: crate::csp::Scheme::NodeWise,
                        biased: false,
                        fused: true,
                        temporal_cutoff: None,
                        seed: 9,
                    },
                );
                let mut c1 = Clock::new();
                let mut c2 = Clock::new();
                let a = pull.sample_batch(&mut c1, &seeds);
                let b = csp.sample_batch(&mut c2, &seeds);
                (a, b)
            }));
        }
        for h in handles {
            let (a, b) = h.join().unwrap();
            assert_eq!(a, b, "pull-data and CSP must construct the same sample");
        }
        let (pull_nvlink, _, _) = cluster_pull.traffic_totals();
        let (csp_nvlink, _, _) = cluster_csp.traffic_totals();
        assert!(
            pull_nvlink > 2 * csp_nvlink,
            "pull {pull_nvlink} should dwarf CSP {csp_nvlink} on a degree-20 graph"
        );
    }
}
