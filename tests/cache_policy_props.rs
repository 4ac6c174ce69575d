//! Property suite over every [`dsp::cache::dynamic::DynamicPolicy`]:
//! whatever the trace, capacity and warm start, a policy cache must
//! keep its resident set within capacity, account for every access
//! exactly once, never evict a non-resident row (the harness panics on
//! that), and produce a byte-identical decision stream when replayed —
//! including across `DS_PAR_THREADS`, via the re-exec driver at the
//! bottom, because the decision stream is part of the simulation's
//! determinism contract.

use ds_testkit::prelude::*;
use dsp::cache::dynamic::{replay, BeladyOracle, DynamicPolicy, DynamicPolicyKind, Lru};
use dsp::core::{DspSystem, TrainConfig};
use dsp::graph::{DatasetSpec, NodeId};
use std::collections::{BTreeSet, HashMap};

fn counts(trace: &[NodeId]) -> HashMap<NodeId, u64> {
    let mut m = HashMap::new();
    for &v in trace {
        *m.entry(v).or_insert(0) += 1;
    }
    m
}

/// A trace over a small id universe plus a warm-start prefix (distinct
/// ids, "hottest" first) and a capacity. Small universes force heavy
/// reuse and eviction churn; larger ones exercise the bypass paths.
fn arb_workload() -> impl Strategy<Value = (Vec<NodeId>, Vec<NodeId>, usize)> {
    (2u32..40, 1usize..12, any::<u64>(), 20usize..300).prop_map(
        |(universe, capacity, seed, len)| {
            // Cheap LCG over the seed: the strategy itself must be a
            // pure function of the proptest-chosen inputs.
            let mut x = seed | 1;
            let mut next = || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u32
            };
            let trace: Vec<NodeId> = (0..len).map(|_| next() % universe).collect();
            let mut warm: Vec<NodeId> = (0..universe.min(capacity as u32)).collect();
            // Shuffle the warm prefix so "hottest first" is arbitrary.
            for i in (1..warm.len()).rev() {
                warm.swap(i, next() as usize % (i + 1));
            }
            (trace, warm, capacity)
        },
    )
}

/// The stamp-ordered LRU the O(1) list replaced, kept as the
/// differential oracle: every bump takes a fresh monotone stamp and the
/// victim is the smallest stamp. Obviously right, O(log n) per access.
#[derive(Default)]
struct StampLru {
    stamp: u64,
    key: HashMap<NodeId, u64>,
    order: BTreeSet<(u64, NodeId)>,
}

impl StampLru {
    fn bump(&mut self, v: NodeId) {
        if let Some(old) = self.key.insert(v, self.stamp) {
            self.order.remove(&(old, v));
        }
        self.order.insert((self.stamp, v));
        self.stamp += 1;
    }
}

impl DynamicPolicy for StampLru {
    fn name(&self) -> &'static str {
        "lru-stamp"
    }
    fn seed(&mut self, v: NodeId) {
        self.bump(v);
    }
    fn touch(&mut self, v: NodeId, _pos: u64) {
        self.bump(v);
    }
    fn admit(&mut self, _v: NodeId, _pos: u64, _full: bool) -> bool {
        true
    }
    fn evict(&mut self) -> NodeId {
        let (_, v) = self.order.pop_first().expect("evict on empty LRU");
        self.key.remove(&v);
        v
    }
    fn insert(&mut self, v: NodeId, _pos: u64) {
        self.bump(v);
    }
}

/// A trace with repeated ids over a universe up to 4× the capacity, a
/// warm start of up to `capacity` distinct ids (some outside the
/// trace's universe), and a capacity of 1–64.
fn arb_lru_workload() -> impl Strategy<Value = (Vec<NodeId>, Vec<NodeId>, usize)> {
    (1usize..65, 1u32..5, 0usize..65, any::<u64>(), 1usize..600).prop_map(
        |(capacity, spread, warm_len, seed, len)| {
            let universe = capacity as u32 * spread + 1;
            let mut x = seed | 1;
            let mut next = || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u32
            };
            let trace: Vec<NodeId> = (0..len).map(|_| next() % universe).collect();
            let mut warm: Vec<NodeId> = (0..universe + 8).collect();
            for i in (1..warm.len()).rev() {
                warm.swap(i, next() as usize % (i + 1));
            }
            warm.truncate(warm_len.min(capacity));
            (trace, warm, capacity)
        },
    )
}

props! {
    #![cases(48)]

    #[test]
    fn lru_matches_the_stamp_ordered_oracle(
        (trace, warm, capacity) in arb_lru_workload(),
    ) {
        let fast = replay(Box::<Lru>::default(), capacity, &warm, None, &trace);
        let oracle = replay(Box::<StampLru>::default(), capacity, &warm, None, &trace);
        prop_assert_eq!(fast.decisions(), oracle.decisions(), "LRU decision stream diverged");
        prop_assert_eq!(fast.decision_hash(), oracle.decision_hash());
        prop_assert_eq!(fast.stats(), oracle.stats());
    }

    #[test]
    fn every_policy_obeys_the_cache_invariants(
        (trace, warm, capacity) in arb_workload(),
    ) {
        for kind in DynamicPolicyKind::all() {
            let c = replay(kind.build(), capacity, &warm, Some(&counts(&trace)), &trace);
            let s = c.stats();
            prop_assert!(
                c.resident_len() <= capacity,
                "{}: resident {} > capacity {}", kind.name(), c.resident_len(), capacity
            );
            prop_assert_eq!(s.accesses, trace.len() as u64);
            prop_assert_eq!(s.hits + s.misses, s.accesses, "{} accounting", kind.name());
            prop_assert_eq!(c.decisions().len(), trace.len(), "one decision per access");
            prop_assert!(s.insertions <= s.misses, "{}: inserted without a miss", kind.name());
            prop_assert!(s.evictions <= s.insertions + warm.len().min(capacity) as u64);
        }
        // The oracle plays by the same rules.
        let c = replay(Box::new(BeladyOracle::new(&trace)), capacity, &warm, None, &trace);
        prop_assert!(c.resident_len() <= capacity);
        prop_assert_eq!(c.stats().hits + c.stats().misses, trace.len() as u64);
    }

    #[test]
    fn decision_streams_replay_byte_identically(
        (trace, warm, capacity) in arb_workload(),
    ) {
        let scores = counts(&trace);
        for kind in DynamicPolicyKind::all() {
            let a = replay(kind.build(), capacity, &warm, Some(&scores), &trace);
            let b = replay(kind.build(), capacity, &warm, Some(&scores), &trace);
            prop_assert_eq!(a.decisions(), b.decisions(), "{} replay drifted", kind.name());
            prop_assert_eq!(a.decision_hash(), b.decision_hash());
        }
    }

    #[test]
    fn the_oracle_dominates_every_real_policy(
        (trace, warm, capacity) in arb_workload(),
    ) {
        // Belady's MIN with the same warm start is an upper bound on
        // the hit count of ANY demand policy — the inequality the
        // ablation table leans on, checked here on arbitrary traces.
        let oracle = replay(
            Box::new(BeladyOracle::new(&trace)), capacity, &warm, None, &trace,
        );
        for kind in DynamicPolicyKind::all() {
            let real = replay(kind.build(), capacity, &warm, Some(&counts(&trace)), &trace);
            prop_assert!(
                oracle.stats().hits >= real.stats().hits,
                "oracle {} hits < {} policy {} hits (cap {}, trace {:?})",
                oracle.stats().hits, kind.name(), real.stats().hits, capacity, trace
            );
        }
    }
}

// ---------------------------------------------------------------------
// Decision-stream determinism across DS_PAR_THREADS, whole-system.
// ---------------------------------------------------------------------

/// Child mode: run two pipelined DSP epochs with the LRU shard policy
/// and print the per-rank decision hashes. No-op in a normal run.
#[test]
fn child_emit_cache_hashes() {
    if std::env::var("DS_CACHE_DET_CHILD").is_err() {
        return;
    }
    let d = DatasetSpec::tiny(1200).build();
    let mut cfg = TrainConfig::test_default();
    cfg.batch_size = 16;
    cfg.dynamic_policy = DynamicPolicyKind::Lru;
    let mut sys = DspSystem::new(&d, 2, &cfg, true);
    for e in 0..2 {
        sys.try_run_epoch(e).expect("clean epochs");
    }
    let hashes: Vec<String> = sys
        .cache_decision_hashes()
        .into_iter()
        .map(|h| format!("{:016x}", h.expect("dynamic policy installed")))
        .collect();
    println!("CACHE_HASH {}", hashes.join(" "));
}

#[test]
fn lru_decision_stream_is_identical_across_thread_counts() {
    // The dynamic shard is mutated only by its owner's loader thread in
    // query order, so the decision stream may not depend on how the
    // executor schedules work. Thread counts latch once per process —
    // re-exec the child per count (same pattern as exec_determinism).
    let exe = std::env::current_exe().expect("current_exe");
    let mut lines: Vec<(String, String)> = Vec::new();
    for threads in ["1", "2", "8"] {
        let out = std::process::Command::new(&exe)
            .args(["--exact", "child_emit_cache_hashes", "--nocapture"])
            .env("DS_CACHE_DET_CHILD", "1")
            .env("DS_PAR_THREADS", threads)
            .env("DS_PAR_SERIAL_CUTOFF", "0")
            .output()
            .expect("re-exec test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "child with DS_PAR_THREADS={threads} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = stdout
            .lines()
            .find_map(|l| l.find("CACHE_HASH").map(|i| l[i..].trim().to_string()))
            .unwrap_or_else(|| panic!("no CACHE_HASH line in:\n{stdout}"));
        lines.push((threads.to_string(), line));
    }
    let (_, reference) = &lines[0];
    for (threads, line) in &lines[1..] {
        assert_eq!(
            line, reference,
            "cache decisions differ between DS_PAR_THREADS=1 and {threads}"
        );
    }
}
