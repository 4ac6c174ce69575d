//! The benchmark's own stage driver (pass B of the traced run): one
//! thread per rank, each built from the public constructors exactly as
//! `DspSystem::new` wires a non-pipelined system, running
//! sample → load → [exchange] → train per batch and recording a
//! wall-clock span plus the virtual `Clock` delta around every call
//! into a layer. Wall spans inside the pipelined executor cannot be
//! taken from outside; that is ROADMAP item 5a.

use dsp::cache::{DspLoader, FeatureLoader};
use dsp::comm::{CommConfig, Communicator};
use dsp::core::config::{TrainConfig, TrainMode};
use dsp::core::layout::DspLayout;
use dsp::core::split::SplitExchange;
use dsp::gnn::{GnnKind, Trainer};
use dsp::graph::{Labels, NodeId};
use dsp::sampling::csp::{CspConfig, CspSampler};
use dsp::sampling::BatchSampler;
use dsp::simgpu::Clock;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One wall-clock span. Spans of one rank-batch share
/// `(epoch, rank, batch)`; `parent` is the id of the span that caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub rank: u32,
    pub epoch: u64,
    /// Batch index within the epoch; -1 for the rank's epoch span.
    pub batch: i64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Virtual seconds the rank's `Clock` advanced inside the span.
    pub virt_s: f64,
}

impl Span {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span: its duration minus its children's. A
/// rank's spans are sequential, so children never overlap.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::wall_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.wall_ns());
        }
    }
    own
}

/// Appends `more` to `all`, keeping `parent` an index into the result.
pub fn append(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Wall seconds of all spans called `name`.
pub fn wall_s(spans: &[Span], name: &str) -> f64 {
    let ns: u64 = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::wall_ns)
        .sum();
    ns as f64 * 1e-9
}

/// In-memory span recorder of one rank thread.
struct Tracer {
    origin: Instant,
    rank: u32,
    epoch: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn begin(&mut self, name: &'static str, batch: i64, virt_now: f64) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            rank: self.rank,
            epoch: self.epoch,
            batch,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            // Holds the clock reading at entry until `end` turns it
            // into a delta.
            virt_s: virt_now,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn end(&mut self, virt_now: f64) {
        let span = &mut self.spans[self.open.pop().expect("end without begin")];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        span.virt_s = virt_now - span.virt_s;
    }

    fn stage<T>(
        &mut self,
        name: &'static str,
        batch: i64,
        clock: &mut Clock,
        f: impl FnOnce(&mut Clock) -> T,
    ) -> T {
        self.begin(name, batch, clock.now());
        let out = f(clock);
        self.end(clock.now());
        out
    }
}

struct RankState {
    sampler: CspSampler,
    loader: DspLoader,
    trainer: Trainer,
    exchange: Option<SplitExchange>,
}

/// What one rank did in one epoch.
struct RankEpoch {
    spans: Vec<Span>,
    makespan_virt_s: f64,
    sampled_edges: u64,
    input_nodes: u64,
    rows_requested: u64,
}

/// One driver epoch, all ranks.
pub struct DriverEpoch {
    /// Spans of all ranks; `parent` indexes into this vector.
    pub spans: Vec<Span>,
    pub wall_s: f64,
    pub makespan_virt_s: f64,
    pub nvlink_bytes: u64,
    pub pcie_bytes: u64,
    pub sampled_edges: u64,
    pub input_nodes: u64,
    pub rows_requested: u64,
}

pub struct StageDriver<'a> {
    layout: &'a DspLayout,
    exec_compute: bool,
    ranks: Vec<RankState>,
}

impl<'a> StageDriver<'a> {
    pub fn new(layout: &'a DspLayout, cfg: &TrainConfig) -> Self {
        let cluster = &layout.cluster;
        let gpus = cluster.num_gpus();
        let comm_cfg = CommConfig {
            deadline: Duration::from_secs_f64(cfg.comm_deadline_secs),
        };
        // Worker-group ids as in `dsp_core::dsp`: sampler, loader,
        // trainer, exchange.
        let group =
            |id: u32| Arc::new(Communicator::new(id, Arc::clone(cluster)).with_config(comm_cfg));
        let (sampler_comm, loader_comm, trainer_comm) = (group(1), group(2), group(3));
        let exchange_comm = (cfg.train_mode == TrainMode::Split).then(|| group(4));
        let csp_cfg = CspConfig {
            fanout: cfg.fanout.clone(),
            scheme: cfg.scheme,
            biased: cfg.biased,
            fused: true,
            temporal_cutoff: None,
            seed: cfg.seed,
        };
        let ranks = (0..gpus)
            .map(|rank| RankState {
                sampler: CspSampler::new(
                    Arc::clone(&layout.dist_graph),
                    Arc::clone(cluster),
                    Arc::clone(&sampler_comm),
                    rank,
                    csp_cfg.clone(),
                ),
                loader: DspLoader::new(
                    Arc::clone(&layout.cache),
                    Arc::clone(&layout.features),
                    Arc::clone(cluster),
                    Arc::clone(&loader_comm),
                    rank,
                ),
                trainer: Trainer::new(
                    cfg.model,
                    layout.in_dim,
                    cfg.hidden,
                    layout.classes,
                    cfg.num_layers,
                    cfg.lr,
                    Arc::clone(&trainer_comm),
                    Arc::clone(cluster),
                    rank,
                    cfg.seed,
                ),
                exchange: exchange_comm.as_ref().map(|comm| {
                    SplitExchange::new(
                        Arc::clone(comm),
                        Arc::clone(&layout.cache),
                        Arc::clone(&layout.features),
                        Arc::clone(cluster),
                        Arc::clone(&layout.dist_graph),
                        rank,
                        cfg.model == GnnKind::Gcn,
                    )
                }),
            })
            .collect();
        StageDriver {
            layout,
            exec_compute: cfg.exec_compute,
            ranks,
        }
    }

    /// Rank 0's trainer (replicas are equal under BSP).
    pub fn trainer(&self) -> &Trainer {
        &self.ranks[0].trainer
    }

    /// Runs one epoch; span times count from `origin`.
    pub fn run_epoch(&mut self, epoch: u64, origin: Instant) -> DriverEpoch {
        let cluster = &self.layout.cluster;
        cluster.reset_traffic();
        let labels = &self.layout.labels;
        let exec = self.exec_compute;
        let started = Instant::now();
        let per_rank: Vec<RankEpoch> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .ranks
                .iter_mut()
                .zip(&self.layout.schedules)
                .enumerate()
                .map(|(rank, (state, schedule))| {
                    let batches = schedule.epoch_batches(epoch);
                    let tracer = Tracer {
                        origin,
                        rank: rank as u32,
                        epoch,
                        spans: Vec::new(),
                        open: Vec::new(),
                    };
                    scope.spawn(move || run_rank(state, &batches, labels, exec, tracer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        });
        let wall_s = started.elapsed().as_secs_f64();
        let (nvlink_bytes, pcie_bytes, _) = cluster.traffic_totals();
        let mut e = DriverEpoch {
            spans: Vec::new(),
            wall_s,
            makespan_virt_s: 0.0,
            nvlink_bytes,
            pcie_bytes,
            sampled_edges: 0,
            input_nodes: 0,
            rows_requested: 0,
        };
        for r in per_rank {
            append(&mut e.spans, r.spans);
            e.makespan_virt_s = e.makespan_virt_s.max(r.makespan_virt_s);
            e.sampled_edges += r.sampled_edges;
            e.input_nodes += r.input_nodes;
            e.rows_requested += r.rows_requested;
        }
        e
    }
}

fn run_rank(
    state: &mut RankState,
    batches: &[Vec<NodeId>],
    labels: &Labels,
    exec: bool,
    mut tracer: Tracer,
) -> RankEpoch {
    let mut clock = Clock::new();
    let mut out = RankEpoch {
        spans: Vec::new(),
        makespan_virt_s: 0.0,
        sampled_edges: 0,
        input_nodes: 0,
        rows_requested: 0,
    };
    tracer.begin("epoch", -1, clock.now());
    for (b, seeds) in batches.iter().enumerate() {
        let b = b as i64;
        tracer.begin("batch", b, clock.now());
        let sample = tracer.stage("sample", b, &mut clock, |c| {
            state.sampler.sample_batch(c, seeds)
        });
        out.sampled_edges += sample.num_edges() as u64;
        out.input_nodes += sample.input_nodes().len() as u64;
        // Split mode loads only the innermost block's dst rows and gets
        // the neighbour aggregate from the owners.
        let (feats, agg) = match &state.exchange {
            Some(exchange) => {
                let block = sample.layers.last().expect("sample has layers");
                out.rows_requested += block.dst.len() as u64;
                let feats =
                    tracer.stage("load", b, &mut clock, |c| state.loader.load(c, &block.dst));
                let agg = tracer.stage("exchange", b, &mut clock, |c| {
                    exchange
                        .try_exchange(c, block, &feats)
                        .unwrap_or_else(|e| panic!("exchange failed: {e}"))
                });
                (feats, Some(agg))
            }
            None => {
                out.rows_requested += sample.input_nodes().len() as u64;
                let feats = tracer.stage("load", b, &mut clock, |c| {
                    state.loader.load(c, sample.input_nodes())
                });
                (feats, None)
            }
        };
        tracer.stage("train", b, &mut clock, |c| {
            let trainer = &mut state.trainer;
            let lab: Vec<u32> = if exec {
                sample.seeds.iter().map(|&v| labels.get(v)).collect()
            } else {
                Vec::new()
            };
            match (exec, &agg) {
                (true, Some(agg)) => trainer.try_train_batch_split(c, &sample, &feats, agg, &lab),
                (true, None) => trainer.try_train_batch(c, &sample, &feats, &lab),
                (false, Some(_)) => trainer.try_train_batch_timing_only_split(c, &sample),
                (false, None) => trainer.try_train_batch_timing_only(c, &sample),
            }
            .unwrap_or_else(|e| panic!("training step failed: {e}"))
        });
        tracer.end(clock.now());
    }
    tracer.end(clock.now());
    out.makespan_virt_s = clock.now();
    out.spans = tracer.spans;
    out
}

/// The span file: every span with its id, parent, both clocks and self
/// time.
pub fn spans_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let own = self_ns(spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(&own)
        .enumerate()
        .map(|(id, (s, own))| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"id\": {id}, \"name\": \"{}\", \"rank\": {}, \"epoch\": {}, \"batch\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}, \"parent\": {parent}, \"virt_s\": {}}}",
                s.name, s.rank, s.epoch, s.batch, s.start_ns, s.end_ns, s.virt_s
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"wall ns since the first driver epoch; virt_s is the rank Clock delta\", \"spans\": [\n{}\n]}}\n",
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            rank: 0,
            epoch: 0,
            batch: 0,
            start_ns: start,
            end_ns: end,
            parent,
            virt_s: 0.0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("epoch", 0, 100, None),
            span("batch", 5, 95, Some(0)),
            span("sample", 10, 30, Some(1)),
            span("load", 30, 70, Some(1)),
            span("train", 70, 90, Some(1)),
        ];
        // epoch: 100 - 90; batch: 90 - (20 + 40 + 20); leaves keep all.
        assert_eq!(self_ns(&spans), vec![10, 10, 20, 40, 20]);
        let total: u64 = self_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root span");
        assert_eq!(wall_s(&spans, "load"), 40e-9);
    }

    #[test]
    fn tracer_nests_spans_and_turns_clock_readings_into_deltas() {
        let mut t = Tracer {
            origin: Instant::now(),
            rank: 3,
            epoch: 7,
            spans: Vec::new(),
            open: Vec::new(),
        };
        let mut clock = Clock::new();
        t.begin("epoch", -1, clock.now());
        t.stage("sample", 0, &mut clock, |c| c.work(0.5));
        t.stage("load", 0, &mut clock, |c| c.work(0.25));
        t.end(clock.now());
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[0].virt_s, 0.75);
        assert_eq!(t.spans[1].virt_s, 0.5);
        assert!(t.spans[0].end_ns >= t.spans[2].end_ns);
        assert!(t.open.is_empty());
        let text = spans_json("w", 1, &t.spans);
        let doc = dsp::trace::json::parse(&text).expect("span file is valid JSON");
        assert_eq!(doc.get("spans").unwrap().as_array().unwrap().len(), 3);
    }
}
