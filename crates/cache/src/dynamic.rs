//! Runtime (dynamic) cache policies over a fixed row capacity.
//!
//! The static build-time ranking ([`crate::policy::CachePolicy`]) picks
//! the *initial* contents of each rank's cache slice; the
//! [`DynamicPolicy`] trait decides what happens at runtime on every
//! access to that slice: keep serving the seeded set untouched
//! ([`StaticDegree`], DSP's §3.1 behavior and the default), recency
//! ([`Lru`]), frequency ([`FrequencyLfu`]), a presampled hotness rank
//! recomputed per epoch from the deterministic sampling schedule
//! ([`PresamplingHotness`], the RapidGNN-style shadow pass), or the
//! clairvoyant ceiling ([`BeladyOracle`], Belady's MIN over the exact
//! future access sequence — only meaningful in replay/ablation, where
//! the deterministic sampler makes "the future" computable).
//!
//! [`PolicyCache`] enforces the mechanics every policy shares — the
//! capacity bound, hit/miss accounting and the recorded decision
//! stream — so a policy only answers *touch / admit / evict*. All
//! decisions are strictly sequential and keyed on the access order, so
//! a decision stream is bit-reproducible for a given trace regardless
//! of thread pool width.

use ds_graph::NodeId;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Runtime policy hooks. `pos` is the 0-based ordinal of the access in
/// the shard's access sequence (unique and monotone), usable both as a
/// recency stamp and — for the oracle — as the position in the trace.
pub trait DynamicPolicy: Send {
    /// Short table/env name ("static", "lru", ...).
    fn name(&self) -> &'static str;

    /// Registers an initial resident (warm start, hottest passed last).
    fn seed(&mut self, v: NodeId);

    /// A hit on resident `v`.
    fn touch(&mut self, v: NodeId, pos: u64);

    /// A miss on `v`: admit it into the cache? When `full`, a `true`
    /// answer triggers one [`Self::evict`] call first.
    fn admit(&mut self, v: NodeId, pos: u64, full: bool) -> bool;

    /// Picks a victim among the residents and forgets it. Only called
    /// when the cache is full and [`Self::admit`] said yes.
    fn evict(&mut self) -> NodeId;

    /// `v` became resident (after seeding-time; `pos` is the admitting
    /// access).
    fn insert(&mut self, v: NodeId, pos: u64);

    /// Epoch-boundary hook: presampling policies receive the shadow
    /// pass's predicted access counts for the coming epoch.
    fn set_scores(&mut self, _scores: &HashMap<NodeId, u64>) {}
}

/// DSP's §3.1 behavior: the seeded (degree-ranked) contents are final.
/// Never admits, never evicts — byte-identical to the pre-dynamic
/// static cache.
#[derive(Debug, Default)]
pub struct StaticDegree;

impl DynamicPolicy for StaticDegree {
    fn name(&self) -> &'static str {
        "static"
    }
    fn seed(&mut self, _v: NodeId) {}
    fn touch(&mut self, _v: NodeId, _pos: u64) {}
    fn admit(&mut self, _v: NodeId, _pos: u64, _full: bool) -> bool {
        false
    }
    fn evict(&mut self) -> NodeId {
        unreachable!("the static policy never admits, so it never evicts")
    }
    fn insert(&mut self, _v: NodeId, _pos: u64) {}
}

/// Multiply-shift hashing for `NodeId` keys: one multiply by a 64-bit
/// odd constant, the high half folded onto the low half so the low
/// bits `HashMap` indexes with depend on every bit of the id. Node ids
/// are not adversarial input, so SipHash's flood resistance buys
/// nothing here and costs most of an LRU access.
#[derive(Clone, Copy, Debug, Default)]
struct NodeHasher(u64);

impl Hasher for NodeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        let h = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type NodeBuild = BuildHasherDefault<NodeHasher>;

/// Sentinel slot: end of the recency list.
const NIL: u32 = u32::MAX;

/// Least-recently-used: always admit, evict the oldest touch. Residents
/// sit on an intrusive doubly linked list over slots, oldest at `head`,
/// so a touch, an insert and an eviction are each O(1); seeding order
/// (coldest first) composes with access order.
#[derive(Debug)]
pub struct Lru {
    slot_of: HashMap<NodeId, u32, NodeBuild>,
    node: Vec<NodeId>,
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Slots freed by evictions, reused before the arrays grow.
    free: Vec<u32>,
    head: u32,
    tail: u32,
}

impl Default for Lru {
    fn default() -> Self {
        Lru {
            slot_of: HashMap::default(),
            node: Vec::new(),
            prev: Vec::new(),
            next: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl Lru {
    fn unlink(&mut self, s: u32) {
        let (p, n) = (self.prev[s as usize], self.next[s as usize]);
        match p {
            NIL => self.head = n,
            p => self.next[p as usize] = n,
        }
        match n {
            NIL => self.tail = p,
            n => self.prev[n as usize] = p,
        }
    }

    fn push_newest(&mut self, s: u32) {
        self.prev[s as usize] = self.tail;
        self.next[s as usize] = NIL;
        match self.tail {
            NIL => self.head = s,
            t => self.next[t as usize] = s,
        }
        self.tail = s;
    }

    /// Makes `v` the most recently used, registering it if new.
    fn bump(&mut self, v: NodeId) {
        let s = match self.slot_of.entry(v) {
            Entry::Occupied(e) => {
                let s = *e.get();
                self.unlink(s);
                s
            }
            Entry::Vacant(e) => match self.free.pop() {
                Some(s) => {
                    self.node[s as usize] = v;
                    *e.insert(s)
                }
                None => {
                    self.node.push(v);
                    self.prev.push(NIL);
                    self.next.push(NIL);
                    *e.insert((self.node.len() - 1) as u32)
                }
            },
        };
        self.push_newest(s);
    }
}

impl DynamicPolicy for Lru {
    fn name(&self) -> &'static str {
        "lru"
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
        let s = self.head;
        assert!(s != NIL, "evict on empty LRU");
        self.unlink(s);
        let v = self.node[s as usize];
        self.slot_of.remove(&v);
        self.free.push(s);
        v
    }
    fn insert(&mut self, v: NodeId, _pos: u64) {
        self.bump(v);
    }
}

/// Least-frequently-used with an LRU tie-break. Frequencies persist for
/// evicted nodes (no aging), so a node that keeps coming back
/// accumulates standing.
#[derive(Debug, Default)]
pub struct FrequencyLfu {
    freq: HashMap<NodeId, u64>,
    stamp: u64,
    /// Residents ordered by (frequency, last-touch stamp, id).
    order: BTreeSet<(u64, u64, NodeId)>,
    key: HashMap<NodeId, (u64, u64)>,
}

impl FrequencyLfu {
    fn rekey(&mut self, v: NodeId) {
        let f = *self.freq.get(&v).unwrap_or(&0);
        if let Some((of, os)) = self.key.insert(v, (f, self.stamp)) {
            self.order.remove(&(of, os, v));
        }
        self.order.insert((f, self.stamp, v));
        self.stamp += 1;
    }
}

impl DynamicPolicy for FrequencyLfu {
    fn name(&self) -> &'static str {
        "lfu"
    }
    fn seed(&mut self, v: NodeId) {
        self.rekey(v);
    }
    fn touch(&mut self, v: NodeId, _pos: u64) {
        *self.freq.entry(v).or_insert(0) += 1;
        self.rekey(v);
    }
    fn admit(&mut self, v: NodeId, _pos: u64, _full: bool) -> bool {
        // The missing access still counts toward the node's standing.
        *self.freq.entry(v).or_insert(0) += 1;
        true
    }
    fn evict(&mut self) -> NodeId {
        let &(f, s, v) = self.order.iter().next().expect("evict on empty LFU");
        self.order.remove(&(f, s, v));
        self.key.remove(&v);
        v
    }
    fn insert(&mut self, v: NodeId, _pos: u64) {
        self.rekey(v);
    }
}

/// Presampled hotness: nodes are scored by how often the *coming*
/// epoch's deterministic sampling schedule will request them (a cheap
/// seed-replayed shadow pass — no data is moved, only the RNG draws are
/// replayed). A miss is admitted only when the missing node outscores
/// the coldest resident, so the contents converge toward the epoch's
/// true top set instead of the static degree guess.
#[derive(Debug, Default)]
pub struct PresamplingHotness {
    scores: HashMap<NodeId, u64>,
    /// Residents ordered by (score, id).
    order: BTreeSet<(u64, NodeId)>,
}

impl PresamplingHotness {
    fn score(&self, v: NodeId) -> u64 {
        *self.scores.get(&v).unwrap_or(&0)
    }
}

impl DynamicPolicy for PresamplingHotness {
    fn name(&self) -> &'static str {
        "hotness"
    }
    fn seed(&mut self, v: NodeId) {
        self.order.insert((self.score(v), v));
    }
    fn touch(&mut self, _v: NodeId, _pos: u64) {}
    fn admit(&mut self, v: NodeId, _pos: u64, full: bool) -> bool {
        if !full {
            return true;
        }
        // Strictly outscore the coldest resident — no churn on ties.
        match self.order.iter().next() {
            Some(&(min, _)) => self.score(v) > min,
            None => true,
        }
    }
    fn evict(&mut self) -> NodeId {
        let &(s, v) = self.order.iter().next().expect("evict on empty hotness");
        self.order.remove(&(s, v));
        v
    }
    fn insert(&mut self, v: NodeId, _pos: u64) {
        self.order.insert((self.score(v), v));
    }
    fn set_scores(&mut self, scores: &HashMap<NodeId, u64>) {
        let members: Vec<NodeId> = self.order.iter().map(|&(_, v)| v).collect();
        self.scores = scores.clone();
        self.order = members
            .into_iter()
            .map(|v| (*scores.get(&v).unwrap_or(&0), v))
            .collect();
    }
}

/// Belady's MIN over the exact future access sequence: on a miss, keep
/// resident whatever is used soonest; evict (or bypass with) whatever
/// is used farthest in the future. Requires that access `pos` really is
/// `trace[pos]` — i.e. the replay feeds the same trace the oracle was
/// built from — which the deterministic sampler makes possible. This is
/// the provable hit-rate ceiling every real policy is tested against.
#[derive(Debug)]
pub struct BeladyOracle {
    trace: Vec<NodeId>,
    /// For each trace position, the next position of the same node
    /// (`u64::MAX` when it never recurs).
    next_of: Vec<u64>,
    /// First occurrence per node (for seeding-time keys).
    first_of: HashMap<NodeId, u64>,
    /// Residents ordered by (next use, id).
    order: BTreeSet<(u64, NodeId)>,
    key: HashMap<NodeId, u64>,
}

impl BeladyOracle {
    /// Builds the oracle for `trace` (one backward scan).
    pub fn new(trace: &[NodeId]) -> Self {
        let mut next_of = vec![u64::MAX; trace.len()];
        let mut first_of: HashMap<NodeId, u64> = HashMap::new();
        for i in (0..trace.len()).rev() {
            let v = trace[i];
            if let Some(&n) = first_of.get(&v) {
                next_of[i] = n;
            }
            first_of.insert(v, i as u64);
        }
        BeladyOracle {
            trace: trace.to_vec(),
            next_of,
            first_of,
            order: BTreeSet::new(),
            key: HashMap::new(),
        }
    }

    fn rekey(&mut self, v: NodeId, next: u64) {
        if let Some(old) = self.key.insert(v, next) {
            self.order.remove(&(old, v));
        }
        self.order.insert((next, v));
    }

    fn check_pos(&self, v: NodeId, pos: u64) {
        debug_assert_eq!(
            self.trace.get(pos as usize).copied(),
            Some(v),
            "BeladyOracle replayed off its trace at position {pos}"
        );
    }
}

impl DynamicPolicy for BeladyOracle {
    fn name(&self) -> &'static str {
        "oracle"
    }
    fn seed(&mut self, v: NodeId) {
        let next = self.first_of.get(&v).copied().unwrap_or(u64::MAX);
        self.rekey(v, next);
    }
    fn touch(&mut self, v: NodeId, pos: u64) {
        self.check_pos(v, pos);
        let next = self.next_of[pos as usize];
        self.rekey(v, next);
    }
    fn admit(&mut self, v: NodeId, pos: u64, full: bool) -> bool {
        self.check_pos(v, pos);
        if !full {
            return true;
        }
        let next = self.next_of[pos as usize];
        if next == u64::MAX {
            return false; // never used again: bypass
        }
        match self.order.iter().next_back() {
            // Bypass when the incoming node is itself the
            // farthest-future-use candidate (MIN evicts it).
            Some(&(farthest, _)) => next < farthest,
            None => true,
        }
    }
    fn evict(&mut self) -> NodeId {
        let &(next, v) = self
            .order
            .iter()
            .next_back()
            .expect("evict on empty oracle");
        self.order.remove(&(next, v));
        self.key.remove(&v);
        v
    }
    fn insert(&mut self, v: NodeId, pos: u64) {
        self.check_pos(v, pos);
        let next = self.next_of[pos as usize];
        self.rekey(v, next);
    }
}

/// Which dynamic policy a system runs. The oracle
/// is deliberately absent: it needs the future access trace and exists
/// for replay harnesses, not live systems.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DynamicPolicyKind {
    /// Frozen degree-ranked contents (DSP's default; zero overhead).
    StaticDegree,
    /// Least-recently-used.
    Lru,
    /// Least-frequently-used.
    Lfu,
    /// Shadow-pass presampled hotness, rescored each epoch.
    PresamplingHotness,
}

impl DynamicPolicyKind {
    /// Table spelling.
    pub fn name(self) -> &'static str {
        match self {
            DynamicPolicyKind::StaticDegree => "static",
            DynamicPolicyKind::Lru => "lru",
            DynamicPolicyKind::Lfu => "lfu",
            DynamicPolicyKind::PresamplingHotness => "hotness",
        }
    }

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn DynamicPolicy> {
        match self {
            DynamicPolicyKind::StaticDegree => Box::new(StaticDegree),
            DynamicPolicyKind::Lru => Box::<Lru>::default(),
            DynamicPolicyKind::Lfu => Box::<FrequencyLfu>::default(),
            DynamicPolicyKind::PresamplingHotness => Box::<PresamplingHotness>::default(),
        }
    }

    /// All live (non-oracle) kinds, table order.
    pub fn all() -> [DynamicPolicyKind; 4] {
        [
            DynamicPolicyKind::StaticDegree,
            DynamicPolicyKind::Lru,
            DynamicPolicyKind::Lfu,
            DynamicPolicyKind::PresamplingHotness,
        ]
    }
}

/// One recorded policy decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// The access hit a resident row.
    Hit(NodeId),
    /// Missed and was not admitted.
    MissBypass(NodeId),
    /// Missed and was admitted without evicting (cache not full).
    MissInsert(NodeId),
    /// Missed, admitted, and evicted a victim.
    MissReplace(NodeId, NodeId),
}

/// Accounting shared by every policy run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses served from the resident set.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Admissions after seeding.
    pub insertions: u64,
    /// Evictions.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of accesses served from the resident set.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Result of one access, for callers that move data alongside the
/// decision (the live loader shard).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// Resident: serve it.
    Hit,
    /// Not resident. When `admitted`, the caller must materialize the
    /// row (and drop `evicted`'s row first when present).
    Miss {
        /// The policy admitted the node.
        admitted: bool,
        /// Victim removed to make room.
        evicted: Option<NodeId>,
    },
}

/// The capacity-enforcing wrapper around a [`DynamicPolicy`]: owns the
/// resident membership set, the hit/miss accounting and the decision
/// stream; panics if a policy ever evicts a non-resident node (the
/// double-eviction guard the property suite leans on).
pub struct PolicyCache {
    capacity: usize,
    resident: HashSet<NodeId, NodeBuild>,
    policy: Box<dyn DynamicPolicy>,
    pos: u64,
    stats: CacheStats,
    decisions: Vec<Decision>,
}

impl PolicyCache {
    /// An empty cache of `capacity` rows driven by `policy`.
    pub fn new(capacity: usize, policy: Box<dyn DynamicPolicy>) -> Self {
        PolicyCache {
            capacity,
            resident: HashSet::default(),
            policy,
            pos: 0,
            stats: CacheStats::default(),
            decisions: Vec::new(),
        }
    }

    /// Warm-starts the resident set from `hottest_first` (truncated at
    /// capacity). Seeded entries are not accesses: stats and the
    /// decision stream stay empty. Policies that track recency see the
    /// hottest node as most recently used.
    pub fn seed(&mut self, hottest_first: &[NodeId]) {
        let take = hottest_first.len().min(self.capacity);
        for &v in hottest_first[..take].iter().rev() {
            if self.resident.insert(v) {
                self.policy.seed(v);
            }
        }
    }

    /// The policy's short name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Row capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current resident count.
    pub fn resident_len(&self) -> usize {
        self.resident.len()
    }

    /// Whether `v` is currently resident.
    pub fn contains(&self, v: NodeId) -> bool {
        self.resident.contains(&v)
    }

    /// Accounting so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The recorded decision stream, in access order.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// FNV-1a hash of the decision stream (cheap cross-run identity).
    pub fn decision_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for d in &self.decisions {
            match *d {
                Decision::Hit(v) => eat(1 << 32 | v as u64),
                Decision::MissBypass(v) => eat(2 << 32 | v as u64),
                Decision::MissInsert(v) => eat(3 << 32 | v as u64),
                Decision::MissReplace(v, w) => {
                    eat(4 << 32 | v as u64);
                    eat(w as u64);
                }
            }
        }
        h
    }

    /// Forwards epoch-boundary scores to the policy.
    pub fn set_scores(&mut self, scores: &HashMap<NodeId, u64>) {
        self.policy.set_scores(scores);
    }

    /// One access to node `v`: updates the policy, the membership set,
    /// the stats and the decision stream.
    pub fn access(&mut self, v: NodeId) -> Access {
        let pos = self.pos;
        self.pos += 1;
        self.stats.accesses += 1;
        if self.resident.contains(&v) {
            self.stats.hits += 1;
            self.policy.touch(v, pos);
            self.decisions.push(Decision::Hit(v));
            return Access::Hit;
        }
        self.stats.misses += 1;
        if self.capacity == 0 {
            self.decisions.push(Decision::MissBypass(v));
            return Access::Miss {
                admitted: false,
                evicted: None,
            };
        }
        let full = self.resident.len() >= self.capacity;
        if !self.policy.admit(v, pos, full) {
            self.decisions.push(Decision::MissBypass(v));
            return Access::Miss {
                admitted: false,
                evicted: None,
            };
        }
        let evicted = if full {
            let w = self.policy.evict();
            assert!(
                self.resident.remove(&w),
                "policy `{}` evicted non-resident node {w} (double eviction)",
                self.policy.name()
            );
            self.stats.evictions += 1;
            Some(w)
        } else {
            None
        };
        self.resident.insert(v);
        self.policy.insert(v, pos);
        self.stats.insertions += 1;
        self.decisions.push(match evicted {
            Some(w) => Decision::MissReplace(v, w),
            None => Decision::MissInsert(v),
        });
        Access::Miss {
            admitted: true,
            evicted,
        }
    }
}

/// Replays `trace` through a fresh cache: `capacity` rows, warm-started
/// from `seed_contents` (hottest first). The one-call harness the
/// golden tests and the `ablation_cache` bin share.
pub fn replay(
    policy: Box<dyn DynamicPolicy>,
    capacity: usize,
    seed_contents: &[NodeId],
    scores: Option<&HashMap<NodeId, u64>>,
    trace: &[NodeId],
) -> PolicyCache {
    let mut cache = PolicyCache::new(capacity, policy);
    if let Some(s) = scores {
        cache.set_scores(s);
    }
    cache.seed(seed_contents);
    for &v in trace {
        cache.access(v);
    }
    cache
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(trace: &[NodeId]) -> HashMap<NodeId, u64> {
        let mut m = HashMap::new();
        for &v in trace {
            *m.entry(v).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn static_policy_freezes_the_seeded_set() {
        let trace = vec![0, 1, 2, 3, 0, 1, 9, 9, 9];
        let c = replay(Box::new(StaticDegree), 2, &[0, 1], None, &trace);
        // Hits exactly on the seeded {0, 1}; 9 is never admitted.
        assert_eq!(c.stats().hits, 4);
        assert_eq!(c.stats().insertions, 0);
        assert_eq!(c.stats().evictions, 0);
        assert!(c.contains(0) && c.contains(1) && !c.contains(9));
    }

    #[test]
    fn lru_evicts_the_oldest_touch() {
        let mut c = PolicyCache::new(2, Box::<Lru>::default());
        c.access(1);
        c.access(2);
        c.access(1); // 2 is now the LRU
        assert_eq!(
            c.access(3),
            Access::Miss {
                admitted: true,
                evicted: Some(2)
            }
        );
        assert!(c.contains(1) && c.contains(3));
    }

    #[test]
    fn lfu_keeps_the_frequent_node() {
        let mut c = PolicyCache::new(2, Box::<FrequencyLfu>::default());
        for _ in 0..5 {
            c.access(7);
        }
        c.access(8);
        // 9 replaces 8 (freq 1 vs 1, 8 older? no — admit bumps 9 to 1;
        // victim is min (freq, stamp): 8 has freq 1 and the older stamp).
        assert_eq!(
            c.access(9),
            Access::Miss {
                admitted: true,
                evicted: Some(8)
            }
        );
        assert!(c.contains(7), "the frequent node survives");
    }

    #[test]
    fn hotness_admits_only_upgrades() {
        let trace = vec![5, 5, 5, 6, 6, 1];
        let mut c = PolicyCache::new(2, DynamicPolicyKind::PresamplingHotness.build());
        c.set_scores(&counts(&trace));
        c.seed(&[1, 2]); // cold seeds: score(1)=1, score(2)=0
        for &v in &trace {
            c.access(v);
        }
        // 5 and 6 outscore the seeds and replace them; the final access
        // to 1 (score 1) cannot displace 5 or 6 (scores 3 and 2).
        assert!(c.contains(5) && c.contains(6));
        assert_eq!(c.stats().hits, 3);
    }

    #[test]
    fn oracle_beats_lru_on_a_looping_trace() {
        // Classic MIN-vs-LRU separator: a cyclic scan one larger than
        // the cache thrashes LRU but not the oracle.
        let trace: Vec<NodeId> = (0..3).cycle().take(30).collect();
        let lru = replay(Box::<Lru>::default(), 2, &[], None, &trace);
        let oracle = replay(Box::new(BeladyOracle::new(&trace)), 2, &[], None, &trace);
        assert_eq!(lru.stats().hits, 0, "LRU thrashes on the cycle");
        assert!(oracle.stats().hits > trace.len() as u64 / 3);
    }

    #[test]
    fn oracle_bypasses_never_reused_nodes() {
        let trace = vec![1, 2, 9, 1, 2, 1, 2];
        let mut c = PolicyCache::new(2, Box::new(BeladyOracle::new(&trace)));
        c.access(1);
        c.access(2);
        // 9 never recurs: MIN bypasses instead of evicting 1 or 2.
        assert_eq!(
            c.access(9),
            Access::Miss {
                admitted: false,
                evicted: None
            }
        );
        for &v in &trace[3..] {
            assert_eq!(c.access(v), Access::Hit);
        }
    }

    #[test]
    fn decision_streams_hash_reproducibly() {
        let trace: Vec<NodeId> = (0..200).map(|i| (i * 7) % 23).collect();
        let a = replay(Box::<Lru>::default(), 8, &[0, 1, 2], None, &trace);
        let b = replay(Box::<Lru>::default(), 8, &[0, 1, 2], None, &trace);
        assert_eq!(a.decisions(), b.decisions());
        assert_eq!(a.decision_hash(), b.decision_hash());
        // A trace that separates recency from frequency: node 0 builds
        // standing, goes untouched through a long scan, then returns.
        // LFU keeps it (high frequency); LRU has evicted it.
        let sep: Vec<NodeId> = [0; 10].into_iter().chain(1..20).chain([0]).collect();
        let lru = replay(Box::<Lru>::default(), 4, &[], None, &sep);
        let lfu = replay(Box::<FrequencyLfu>::default(), 4, &[], None, &sep);
        assert_ne!(
            lru.decision_hash(),
            lfu.decision_hash(),
            "recency and frequency must diverge on the separator trace"
        );
        assert_eq!(lfu.decisions().last(), Some(&Decision::Hit(0)));
        assert!(matches!(
            lru.decisions().last(),
            Some(&Decision::MissReplace(0, _))
        ));
    }

    #[test]
    fn kind_names_are_the_table_spellings() {
        let names = DynamicPolicyKind::all().map(DynamicPolicyKind::name);
        assert_eq!(names, ["static", "lru", "lfu", "hotness"]);
    }
}
