//! The Section 4.1 initialization: the edge-weighted bipartite coverage
//! graph shared by every algorithm and every problem variant.
//!
//! Two construction implementations produce identical graphs:
//!
//! * **Indexed** (the default, [`GraphImpl::Indexed`]) — pass 1 buckets
//!   candidate pairs per member concept (only the item's own concepts get
//!   a bucket), each sorted by sentiment; pass 2 walks each target pair's
//!   ancestor row ([`osa_ontology::AncestorIndex::ancestors`] or the
//!   memoized [`osa_ontology::SegmentIndex::ancestors`]), finds each
//!   ancestor's bucket through an `O(1)` slot table, and resolves the
//!   ε-window `[s − ε, s + ε]` with two binary searches, deduplicating
//!   candidates through a dense epoch-stamped scratch
//!   ([`GraphBuildScratch`]).
//!   Pass 2 is embarrassingly parallel over pair ranges: see
//!   [`GraphBuildPlan::shard`] and [`CoverageGraph::assemble`], which
//!   `osa-runtime` drives from a worker pool with an in-order merge so
//!   the result is byte-identical for any worker count.
//! * **Naive** ([`GraphImpl::Naive`]) — the original per-pair upward BFS
//!   plus full-bucket scan, kept as the cross-checking oracle
//!   (`--graph-impl naive`, property tests, benchmarks).
//!
//! The ε-window binary searches reproduce the naive predicate *exactly*:
//! `|s − s_q| ≤ ε ⟺ fl(s − s_q) ≤ ε ∧ fl(s_q − s) ≤ ε` (IEEE negation is
//! exact), and each one-sided rounded difference is weakly monotone along
//! the sentiment-sorted bucket, so the two partition points bound
//! precisely the candidates the naive `(s - s_q).abs() <= eps` test
//! accepts — floating-point boundaries included.

use std::collections::HashMap;
use std::ops::Range;

use osa_ontology::{AncestorImpl, AncestorIndex, Hierarchy, NodeId, SegmentIndex};

use crate::Pair;

/// Which problem variant a [`CoverageGraph`] was built for (informational;
/// the algorithms are granularity-agnostic, exactly as in Section 4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// k-Pairs Coverage: each candidate is a single pair.
    Pairs,
    /// k-Sentences Coverage: each candidate is a sentence's pair set.
    Sentences,
    /// k-Reviews Coverage: each candidate is a review's pair set.
    Reviews,
}

/// The bipartite graph `G = (U, W, E)` of Section 4.1: `U` are the
/// selection candidates (pairs, sentences, or reviews), `W` the
/// concept-sentiment pairs to cover, and an edge `(u, q)` with weight `d`
/// means candidate `u` covers pair `q` at distance `d` (the minimum over
/// the candidate's member pairs, per Section 4.5).
///
/// The virtual root is *not* a candidate; its coverage of every pair is
/// recorded in [`root_dist`](CoverageGraph::root_dist), so the cost of any
/// selection is always finite (Definition 2 takes the min over `F ∪ {r}`).
///
/// Both adjacency directions are stored as flat CSR arrays: an offsets
/// vector plus one contiguous row array, so a graph is six allocations
/// however many candidates and pairs it has.
///
/// Equality compares the full structure (granularity, both adjacency
/// sides, root distances, weights) — the naive and indexed builders are
/// property-tested `==`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageGraph {
    granularity: Granularity,
    /// CSR offsets: candidate `u` owns `cand_rows[cand_off[u]..cand_off[u + 1]]`.
    cand_off: Vec<u32>,
    /// `(pair, dist)` covered per candidate, pairs ascending.
    cand_rows: Vec<(u32, u32)>,
    /// CSR offsets: pair `q` owns `pair_rows[pair_off[q]..pair_off[q + 1]]`.
    pair_off: Vec<u32>,
    /// Reverse adjacency: `(candidate, dist)` per pair, candidates
    /// ascending.
    pair_rows: Vec<(u32, u32)>,
    /// Distance from the virtual root to each pair (= concept depth).
    root_dist: Vec<u32>,
    /// Multiplicity of each pair (1 unless built from compressed pairs).
    pair_weight: Vec<u64>,
}

/// Selects which [`CoverageGraph`] construction implementation runs: the
/// index-backed windowed builder (default) or the original scan builder,
/// kept as a cross-checking oracle (`--graph-impl naive`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GraphImpl {
    /// Ancestor-closure walk + sentiment-sorted buckets with binary-search
    /// ε-windows + dense epoch-stamped dedup scratch.
    #[default]
    Indexed,
    /// Per-pair upward BFS + full-bucket scan + per-pair `HashMap`
    /// (the pre-index builder; slower, trivially auditable).
    Naive,
}

impl GraphImpl {
    /// Parse the CLI spelling (`indexed|naive`).
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "indexed" => GraphImpl::Indexed,
            "naive" => GraphImpl::Naive,
            _ => return None,
        })
    }

    /// The CLI spelling of this implementation.
    pub fn name(self) -> &'static str {
        match self {
            GraphImpl::Indexed => "indexed",
            GraphImpl::Naive => "naive",
        }
    }
}

/// Reusable dense scratch of the indexed builder: per-candidate best
/// distance for the pair currently being resolved, deduplicated by an
/// epoch stamp instead of clearing (or hashing) between pairs, plus the
/// node → bucket slot table of the plan being sharded. One scratch
/// amortizes across any number of builds of any size; workers in
/// `osa-runtime` keep one per thread.
#[derive(Debug, Clone, Default)]
pub struct GraphBuildScratch {
    /// Best distance of candidate `u` — valid only when
    /// `stamp[u] == epoch`.
    dist: Vec<u32>,
    stamp: Vec<u32>,
    /// Candidates stamped in the current epoch.
    touched: Vec<u32>,
    epoch: u32,
    /// Node → bucket of the bound plan, one `u32` per hierarchy node. An
    /// entry is valid only when the plan's concept list agrees
    /// (`concepts[slot[n]] == n`), so stale entries from earlier plans
    /// never need clearing.
    slot: Vec<u32>,
}

impl GraphBuildScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    fn reserve(&mut self, n_cands: usize) {
        if self.dist.len() < n_cands {
            self.dist.resize(n_cands, 0);
            self.stamp.resize(n_cands, 0);
        }
        self.touched.clear();
    }

    /// Point the slot table at `plan`'s buckets: `O(buckets)`, after a
    /// one-time `O(n_nodes)` allocation per scratch and hierarchy size.
    fn bind(&mut self, plan: &GraphBuildPlan, n_nodes: usize) {
        if self.slot.len() < n_nodes {
            self.slot.resize(n_nodes, 0);
        }
        for (b, c) in plan.concepts.iter().enumerate() {
            self.slot[c.index()] = b as u32;
        }
    }

    /// Start resolving a new target pair; invalidates all stamps.
    fn next_epoch(&mut self) -> u32 {
        self.touched.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 wrap: ancient stamps could alias the restarted counter,
            // so wipe them and skip epoch 0 (the initial stamp value).
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }

    /// Record that some member of candidate `u` covers the current pair
    /// at `dist`, keeping the minimum over the candidate's members.
    #[inline]
    fn offer(&mut self, u: u32, dist: u32, epoch: u32) {
        let i = u as usize;
        if self.stamp[i] != epoch {
            self.stamp[i] = epoch;
            self.dist[i] = dist;
            self.touched.push(u);
        } else if dist < self.dist[i] {
            self.dist[i] = dist;
        }
    }
}

/// Pass 1 of the indexed builder, reusable across shards: candidate
/// member pairs bucketed per concept, each bucket sorted by sentiment so
/// pass 2 can window it with two binary searches. Only the item's own
/// member concepts get a bucket, so a plan's size and build cost grow with
/// the item, not with the hierarchy.
#[derive(Debug, Clone)]
pub struct GraphBuildPlan {
    eps: f64,
    root: NodeId,
    n_cands: usize,
    /// The distinct member concepts, ascending; bucket `b` holds the
    /// members on `concepts[b]`.
    concepts: Vec<NodeId>,
    /// CSR offsets per bucket into `bucket_entries`.
    bucket_off: Vec<u32>,
    /// `(sentiment, candidate)` per bucket, sorted ascending (ties by
    /// candidate id; the order within equal sentiments is irrelevant to
    /// the output but fixed for determinism of the scan).
    bucket_entries: Vec<(f64, u32)>,
    /// Root distance (= concept depth) per target pair.
    root_dist: Vec<u32>,
    /// Entry weight of the ancestor index pass 2 walks (dense closure
    /// entries, or segment-index array elements — the
    /// `graph.closure.entries` metric).
    closure_entries: u64,
    /// Which ancestor index pass 2 walks per target pair.
    ancestor_impl: AncestorImpl,
}

/// The ancestor index a shard walks, resolved once per shard from the
/// plan's [`AncestorImpl`]. Both answer with the same sorted row.
#[derive(Clone, Copy)]
enum AncestorSource<'h> {
    Dense(&'h AncestorIndex),
    Segmented(&'h SegmentIndex),
}

impl<'h> AncestorSource<'h> {
    #[inline]
    fn ancestors(self, n: NodeId) -> &'h [(NodeId, u32)] {
        match self {
            AncestorSource::Dense(index) => index.ancestors(n),
            AncestorSource::Segmented(index) => index.ancestors(n),
        }
    }
}

/// A member entry before bucketing, packed so that plain integer order is
/// the bucket order: concept, then sentiment (in [`f64::total_cmp`]
/// order), then candidate. Pass 1 then sorts integers (a three-key
/// comparator sort took twice as long on doctors-corpus items), and
/// merging two sorted runs reproduces a full sort exactly (ties are
/// identical keys).
type Member = u128;

fn pack(concept: NodeId, sentiment: f64, cand: u32) -> Member {
    // The radix-sort float key: flipping every bit of a negative and the
    // sign bit of a non-negative makes unsigned order `total_cmp` order.
    let bits = sentiment.to_bits();
    let key = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    (concept.index() as u128) << 96 | u128::from(key) << 32 | u128::from(cand)
}

fn unpack(m: Member) -> (NodeId, (f64, u32)) {
    let key = (m >> 32) as u64;
    let bits = if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    };
    (
        NodeId::from_index((m >> 96) as usize),
        (f64::from_bits(bits), m as u32),
    )
}

/// The members of every candidate from `first_cand` on, in bucket order:
/// one candidate per pair with `groups == None` (the k-Pairs identity
/// grouping, without materializing it).
fn members_from(pairs: &[Pair], groups: Option<&[Vec<usize>]>, first_cand: usize) -> Vec<Member> {
    let mut out = Vec::new();
    let mut push = |u: usize, p: Pair| {
        // Matches the target-side assert in `resolve_pair`: a literal
        // `Pair` with NaN (bypassing `Pair::new`) must fail loudly
        // rather than land unwindowable in a sorted bucket.
        assert!(
            !p.sentiment.is_nan(),
            "NaN sentiments must be sanitized by Pair::new before building"
        );
        out.push(pack(p.concept, p.sentiment, u as u32));
    };
    match groups {
        None => {
            for (u, p) in pairs.iter().enumerate().skip(first_cand) {
                push(u, *p);
            }
        }
        Some(gs) => {
            for (u, members) in gs.iter().enumerate().skip(first_cand) {
                for &pi in members {
                    push(u, pairs[pi]);
                }
            }
        }
    }
    out.sort_unstable();
    out
}

impl GraphBuildPlan {
    /// Bucket `groups` (or, with `None`, one candidate per pair — the
    /// k-Pairs identity grouping, without materializing it) by member
    /// concept and sort each bucket by sentiment. Uses the dense ancestor
    /// closure; see [`new_with`](Self::new_with) for the switch.
    pub fn new(h: &Hierarchy, pairs: &[Pair], groups: Option<&[Vec<usize>]>, eps: f64) -> Self {
        Self::new_with(h, pairs, groups, eps, AncestorImpl::Dense)
    }

    /// [`new`](Self::new) with an explicit ancestor-index implementation.
    /// `Segmented` plans never materialize the dense closure — the whole
    /// build stays `O(n)` in hierarchy memory — and produce byte-identical
    /// graphs (the `osars check` ancestor axis proves it).
    pub fn new_with(
        h: &Hierarchy,
        pairs: &[Pair],
        groups: Option<&[Vec<usize>]>,
        eps: f64,
        ancestor_impl: AncestorImpl,
    ) -> Self {
        assert!(eps >= 0.0, "sentiment threshold must be non-negative");
        let members = members_from(pairs, groups, 0);
        let mut concepts = Vec::new();
        let mut bucket_off = Vec::new();
        let mut bucket_entries = Vec::with_capacity(members.len());
        for &m in &members {
            let (c, entry) = unpack(m);
            if concepts.last() != Some(&c) {
                concepts.push(c);
                bucket_off.push(bucket_entries.len() as u32);
            }
            bucket_entries.push(entry);
        }
        bucket_off.push(u32::try_from(bucket_entries.len()).expect("bucket entries fit u32"));

        GraphBuildPlan {
            eps,
            root: h.root(),
            n_cands: groups.map_or(pairs.len(), <[Vec<usize>]>::len),
            concepts,
            bucket_off,
            bucket_entries,
            root_dist: pairs.iter().map(|p| h.depth(p.concept)).collect(),
            closure_entries: match ancestor_impl {
                AncestorImpl::Dense => h.ancestor_index().entry_count() as u64,
                AncestorImpl::Segmented => h.segment_index().entry_weight() as u64,
            },
            ancestor_impl,
        }
    }

    /// Resolve the plan's ancestor index against `h` (building and
    /// caching it on first use).
    fn ancestor_source<'h>(&self, h: &'h Hierarchy) -> AncestorSource<'h> {
        match self.ancestor_impl {
            AncestorImpl::Dense => AncestorSource::Dense(h.ancestor_index()),
            AncestorImpl::Segmented => AncestorSource::Segmented(h.segment_index()),
        }
    }

    /// Number of coverage targets the plan was built over.
    pub fn num_pairs(&self) -> usize {
        self.root_dist.len()
    }

    /// Number of concept buckets: the distinct member concepts, however
    /// large the hierarchy.
    pub fn bucket_count(&self) -> usize {
        self.concepts.len()
    }

    /// The bucket of concept `n` under a scratch bound to this plan.
    #[inline]
    fn bucket_of(&self, scratch: &GraphBuildScratch, n: NodeId) -> Option<usize> {
        let b = scratch.slot[n.index()] as usize;
        (self.concepts.get(b) == Some(&n)).then_some(b)
    }

    /// Bucket `b`'s entries, as a range into `bucket_entries`.
    #[inline]
    fn bucket(&self, b: usize) -> Range<usize> {
        self.bucket_off[b] as usize..self.bucket_off[b + 1] as usize
    }

    /// The ε-window of bucket `b` around target sentiment `s_q`, as a
    /// range into `bucket_entries`. Exactly the candidates the naive
    /// `(s - s_q).abs() <= eps` test accepts: each one-sided rounded
    /// difference is weakly monotone along the sorted bucket, and
    /// `fl(s_q − s) = −fl(s − s_q)` exactly, so the two partition points
    /// split the bucket on the very same predicate.
    #[inline]
    fn window(&self, b: usize, s_q: f64) -> Range<usize> {
        let Range { start, end } = self.bucket(b);
        let entries = &self.bucket_entries[start..end];
        let lo = entries.partition_point(|&(s, _)| s_q - s > self.eps);
        let hi = lo + entries[lo..].partition_point(|&(s, _)| s - s_q <= self.eps);
        start + lo..start + hi
    }

    /// Pass 2 over the contiguous target range `range`: resolve each
    /// pair's covering candidates (minimum distance over members) by
    /// walking the concept's ancestor closure and windowing each bucket.
    /// Pure with respect to `self`; shards of disjoint ranges can run on
    /// any threads in any order and [`CoverageGraph::assemble`] back into
    /// the exact sequential result.
    ///
    /// `h` and `pairs` must be the values the plan was built from.
    pub fn shard(
        &self,
        h: &Hierarchy,
        pairs: &[Pair],
        range: Range<usize>,
        scratch: &mut GraphBuildScratch,
    ) -> GraphShard {
        let src = self.ancestor_source(h);
        scratch.reserve(self.n_cands);
        scratch.bind(self, h.node_count());
        let mut pair_off = Vec::with_capacity(range.len() + 1);
        pair_off.push(0u32);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut window_hits = 0u64;
        let start = range.start;
        for qi in range {
            self.resolve_pair(src, pairs[qi], scratch, &mut edges, &mut window_hits);
            pair_off.push(u32::try_from(edges.len()).expect("shard edge count exceeds u32"));
        }
        GraphShard {
            start,
            pair_off,
            edges,
            window_hits,
        }
    }

    /// Resolve one target pair's covering candidates into `edges` —
    /// the shared body of [`shard`](Self::shard) and
    /// [`shard_append`](Self::shard_append). `scratch` must be bound to
    /// this plan.
    fn resolve_pair(
        &self,
        src: AncestorSource<'_>,
        q: Pair,
        scratch: &mut GraphBuildScratch,
        edges: &mut Vec<(u32, u32)>,
        window_hits: &mut u64,
    ) {
        // Real assert, not debug: `Pair.sentiment` is a pub field, so
        // a literal-constructed NaN can bypass `Pair::new`'s
        // sanitization, and a NaN here would silently corrupt the
        // sorted-bucket windows in release builds.
        assert!(
            !q.sentiment.is_nan(),
            "NaN sentiments must be sanitized by Pair::new before building"
        );
        let epoch = scratch.next_epoch();
        for &(anc, dist) in src.ancestors(q.concept) {
            let Some(b) = self.bucket_of(scratch, anc) else {
                continue;
            };
            // A candidate on the root covers every pair with no
            // sentiment condition (Definition 1), so the root bucket
            // is taken whole.
            let range = if anc == self.root {
                self.bucket(b)
            } else {
                self.window(b, q.sentiment)
            };
            *window_hits += range.len() as u64;
            for &(_, u) in &self.bucket_entries[range] {
                scratch.offer(u, dist, epoch);
            }
        }
        // Ascending candidate order makes the shard (and therefore
        // the assembled graph) independent of closure walk order.
        scratch.touched.sort_unstable();
        edges.extend(
            scratch
                .touched
                .iter()
                .map(|&u| (u, scratch.dist[u as usize])),
        );
    }

    /// Build the successor plan after an **append**: `self` was built
    /// over a prefix of `pairs` (and of `groups`, when grouped), and the
    /// result is byte-identical to `GraphBuildPlan::new(h, pairs, groups,
    /// eps)` — but only the *new* members are bucketed and each touched
    /// bucket is merged (old sorted run + new sorted run) instead of
    /// re-sorting every bucket from scratch.
    ///
    /// Contract: `h` and `eps` are unchanged, the old pairs/groups are an
    /// unmodified prefix, and new groups only extend the candidate list.
    /// The returned [`PlanDelta`] records which concept buckets grew, so
    /// [`shard_append`](Self::shard_append) can reuse unaffected rows.
    pub fn append(
        &self,
        h: &Hierarchy,
        pairs: &[Pair],
        groups: Option<&[Vec<usize>]>,
    ) -> (GraphBuildPlan, PlanDelta) {
        let prev_pairs = self.root_dist.len();
        let prev_cands = self.n_cands;
        let n_cands = groups.map_or(pairs.len(), <[Vec<usize>]>::len);
        assert!(pairs.len() >= prev_pairs, "append must extend the pairs");
        assert!(n_cands >= prev_cands, "append must extend the candidates");

        // Bucket only the new members (new candidates' member pairs).
        let fresh = members_from(pairs, groups, prev_cands);

        // Merge the old buckets with the fresh runs; both ascend by
        // concept.
        let mut concepts = Vec::with_capacity(self.concepts.len());
        let mut bucket_off = Vec::with_capacity(self.bucket_off.len());
        let mut bucket_entries = Vec::with_capacity(self.bucket_entries.len() + fresh.len());
        let mut changed_buckets = Vec::new();
        let (mut old_b, mut at) = (0, 0);
        while old_b < self.concepts.len() || at < fresh.len() {
            let next_old = self.concepts.get(old_b).copied();
            let next_new = fresh.get(at).map(|&m| unpack(m).0);
            let c = next_old
                .into_iter()
                .chain(next_new)
                .min()
                .expect("one side left");
            let old = if next_old == Some(c) {
                old_b += 1;
                &self.bucket_entries[self.bucket(old_b - 1)]
            } else {
                &[][..]
            };
            let run = fresh[at..]
                .iter()
                .take_while(|&&m| unpack(m).0 == c)
                .count();
            let new = &fresh[at..at + run];
            at += run;
            if !new.is_empty() {
                changed_buckets.push(concepts.len() as u32);
            }
            concepts.push(c);
            bucket_off.push(bucket_entries.len() as u32);
            // Two-run merge under the bucket comparator.
            let (mut i, mut j) = (0, 0);
            while i < old.len() && j < new.len() {
                let (s, u) = old[i];
                if pack(c, s, u) <= new[j] {
                    bucket_entries.push(old[i]);
                    i += 1;
                } else {
                    bucket_entries.push(unpack(new[j]).1);
                    j += 1;
                }
            }
            bucket_entries.extend_from_slice(&old[i..]);
            bucket_entries.extend(new[j..].iter().map(|&m| unpack(m).1));
        }
        bucket_off.push(u32::try_from(bucket_entries.len()).expect("bucket entries fit u32"));

        let mut root_dist = self.root_dist.clone();
        root_dist.extend(pairs[prev_pairs..].iter().map(|p| h.depth(p.concept)));
        let root_changed = fresh.iter().any(|&m| unpack(m).0 == self.root);
        let next = GraphBuildPlan {
            eps: self.eps,
            root: self.root,
            n_cands,
            concepts,
            bucket_off,
            bucket_entries,
            root_dist,
            closure_entries: self.closure_entries,
            ancestor_impl: self.ancestor_impl,
        };
        (
            next,
            PlanDelta {
                prev_pairs,
                prev_cands,
                changed_buckets,
                root_changed,
            },
        )
    }

    /// Incremental pass 2 after [`append`](Self::append): produce the
    /// full-range shard of the successor plan (`self`), copying the edge
    /// row of every old pair whose ancestor closure touches **no** grown
    /// bucket (its ε-windows are unchanged, so its row is unchanged by
    /// construction) and resolving only affected old pairs plus all new
    /// pairs. Byte-identical to `self.shard(h, pairs, 0..pairs.len())`.
    ///
    /// `prev` must be the predecessor plan's full-range shard. Returns
    /// the shard plus the indices of old pairs that were re-resolved —
    /// the exact rows whose edges may differ, which
    /// [`warm_keys`](Self::warm_keys) uses to update gain keys.
    pub fn shard_append(
        &self,
        h: &Hierarchy,
        pairs: &[Pair],
        prev: &GraphShard,
        delta: &PlanDelta,
        scratch: &mut GraphBuildScratch,
    ) -> (GraphShard, Vec<u32>) {
        assert_eq!(prev.start, 0, "prev must be a full-range shard");
        assert_eq!(prev.len(), delta.prev_pairs, "prev covers the old pairs");
        let src = self.ancestor_source(h);
        scratch.reserve(self.n_cands);
        scratch.bind(self, h.node_count());
        let mut changed = vec![false; self.concepts.len()];
        for &b in &delta.changed_buckets {
            changed[b as usize] = true;
        }
        let mut pair_off = Vec::with_capacity(pairs.len() + 1);
        pair_off.push(0u32);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut window_hits = 0u64;
        let mut recomputed = Vec::new();
        for (qi, &q) in pairs.iter().enumerate() {
            let reusable = qi < delta.prev_pairs
                && !delta.root_changed
                && src
                    .ancestors(q.concept)
                    .iter()
                    .all(|&(anc, _)| self.bucket_of(scratch, anc).is_none_or(|b| !changed[b]));
            if reusable {
                edges.extend_from_slice(prev.row(qi));
            } else {
                if qi < delta.prev_pairs {
                    recomputed.push(qi as u32);
                }
                self.resolve_pair(src, q, scratch, &mut edges, &mut window_hits);
            }
            pair_off.push(u32::try_from(edges.len()).expect("shard edge count exceeds u32"));
        }
        (
            GraphShard {
                start: 0,
                pair_off,
                edges,
                window_hits,
            },
            recomputed,
        )
    }

    /// The exact greedy initial-gain vector (one `u64` per candidate,
    /// what [`GreedySummarizer::initial_keys`](crate::GreedySummarizer::initial_keys)
    /// computes from the assembled graph), scattered straight from the
    /// full-range `shard`'s pair rows, so no graph is assembled for it.
    /// Candidates without coverage edges keep key 0.
    ///
    /// `weights` must match what the graph is assembled with (`None` =
    /// unit weights).
    pub fn initial_keys(&self, shard: &GraphShard, weights: Option<&[u64]>) -> Vec<u64> {
        assert_eq!(shard.start, 0, "shard must be full-range");
        assert_eq!(
            shard.len(),
            self.root_dist.len(),
            "shard must be full-range"
        );
        let mut keys = vec![0; self.n_cands];
        for q in 0..shard.len() {
            self.row_gains(shard, q, weights, |u, g| keys[u] += g);
        }
        keys
    }

    /// Update a cached exact initial-gain vector across an append:
    /// subtract the contributions of every re-resolved old row, add the
    /// contributions of its replacement, and add the rows of the new
    /// pairs. Old pairs' root distances and weights are unchanged by an
    /// append, so the result is byte-identical to
    /// [`initial_keys`](Self::initial_keys) of the successor shard.
    ///
    /// `weights` must match what the graph is assembled with (`None` =
    /// unit weights).
    pub fn warm_keys(
        &self,
        prev_keys: &[u64],
        prev: &GraphShard,
        next: &GraphShard,
        recomputed: &[u32],
        delta: &PlanDelta,
        weights: Option<&[u64]>,
    ) -> Vec<u64> {
        assert_eq!(
            prev_keys.len(),
            delta.prev_cands,
            "one key per old candidate"
        );
        assert_eq!(next.len(), self.root_dist.len(), "next must be full-range");
        let mut keys = prev_keys.to_vec();
        keys.resize(self.n_cands, 0);
        for &qi in recomputed {
            let q = qi as usize;
            self.row_gains(prev, q, weights, |u, g| keys[u] -= g);
            self.row_gains(next, q, weights, |u, g| keys[u] += g);
        }
        for q in delta.prev_pairs..self.root_dist.len() {
            self.row_gains(next, q, weights, |u, g| keys[u] += g);
        }
        keys
    }

    /// Hand `f` each `(candidate, gain)` contribution of pair `q`'s row in
    /// the full-range `shard`: `(root_dist(q) − d) · w(q)` per edge. The
    /// one gain rule both [`initial_keys`](Self::initial_keys) and
    /// [`warm_keys`](Self::warm_keys) scatter.
    fn row_gains(
        &self,
        shard: &GraphShard,
        q: usize,
        weights: Option<&[u64]>,
        mut f: impl FnMut(usize, u64),
    ) {
        let rd = self.root_dist[q];
        let w = weights.map_or(1, |w| w[q]);
        for &(u, d) in shard.row(q) {
            f(u as usize, u64::from(rd.saturating_sub(d)) * w);
        }
    }
}

/// What changed between a plan and its [`append`](GraphBuildPlan::append)
/// successor: the prefix sizes plus which concept buckets grew. Drives
/// row reuse in [`GraphBuildPlan::shard_append`] and key reuse in
/// [`GraphBuildPlan::warm_keys`].
#[derive(Debug, Clone)]
pub struct PlanDelta {
    /// Coverage targets of the predecessor plan.
    prev_pairs: usize,
    /// Candidates of the predecessor plan.
    prev_cands: usize,
    /// Successor-plan buckets that gained entries, ascending.
    changed_buckets: Vec<u32>,
    /// Did the root bucket grow? Root candidates cover *every* pair, so
    /// this forces every row to re-resolve.
    root_changed: bool,
}

impl PlanDelta {
    /// Coverage targets of the predecessor plan.
    pub fn prev_pairs(&self) -> usize {
        self.prev_pairs
    }

    /// Candidates of the predecessor plan.
    pub fn prev_cands(&self) -> usize {
        self.prev_cands
    }

    /// Number of concept buckets that gained entries.
    pub fn changed_buckets(&self) -> usize {
        self.changed_buckets.len()
    }
}

/// Pass-2 output for one contiguous range of target pairs (see
/// [`GraphBuildPlan::shard`]): per pair, the covering candidates with
/// their minimum distances, candidates ascending.
#[derive(Debug, Clone)]
pub struct GraphShard {
    start: usize,
    /// CSR offsets: pair `start + i` owns `edges[pair_off[i]..pair_off[i + 1]]`.
    pair_off: Vec<u32>,
    /// `(candidate, dist)` runs.
    edges: Vec<(u32, u32)>,
    /// Candidates examined through ε-windows and root buckets — a
    /// deterministic per-pair sum, so totals are sharding-invariant.
    window_hits: u64,
}

impl GraphShard {
    /// First target pair index this shard covers.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of target pairs this shard covers.
    pub fn len(&self) -> usize {
        self.pair_off.len() - 1
    }

    /// Does this shard cover no pairs?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(candidate, dist)` edge row of local pair `i` (for a
    /// full-range shard, `i` is the pair index itself).
    pub fn row(&self, i: usize) -> &[(u32, u32)] {
        &self.edges[self.pair_off[i] as usize..self.pair_off[i + 1] as usize]
    }
}

impl CoverageGraph {
    /// Build the graph for **k-Pairs Coverage**: every pair is both a
    /// candidate and a coverage target.
    pub fn for_pairs(h: &Hierarchy, pairs: &[Pair], eps: f64) -> Self {
        Self::for_pairs_with(
            h,
            pairs,
            eps,
            GraphImpl::default(),
            &mut GraphBuildScratch::new(),
        )
    }

    /// Build the k-Pairs graph over *compressed* pairs: `weights[q]` is
    /// the multiplicity of `pairs[q]` (see [`compress_pairs`]). Costs are
    /// identical to the uncompressed instance, but the graph is as small
    /// as the number of distinct pairs.
    pub fn for_weighted_pairs(h: &Hierarchy, pairs: &[Pair], weights: &[u64], eps: f64) -> Self {
        Self::for_weighted_pairs_with(
            h,
            pairs,
            weights,
            eps,
            GraphImpl::default(),
            &mut GraphBuildScratch::new(),
        )
    }

    /// Build the graph for **k-Reviews/Sentences Coverage**: candidate `u`
    /// is the set of pairs `groups[u]` (indices into `pairs`).
    pub fn for_groups(
        h: &Hierarchy,
        pairs: &[Pair],
        groups: &[Vec<usize>],
        eps: f64,
        granularity: Granularity,
    ) -> Self {
        Self::for_groups_with(
            h,
            pairs,
            groups,
            eps,
            granularity,
            GraphImpl::default(),
            &mut GraphBuildScratch::new(),
        )
    }

    /// [`for_pairs`](Self::for_pairs) with an explicit implementation and
    /// a caller-owned scratch (ignored by the naive builder).
    pub fn for_pairs_with(
        h: &Hierarchy,
        pairs: &[Pair],
        eps: f64,
        imp: GraphImpl,
        scratch: &mut GraphBuildScratch,
    ) -> Self {
        Self::for_pairs_with_ancestor(h, pairs, eps, imp, AncestorImpl::Dense, scratch)
    }

    /// [`for_pairs_with`](Self::for_pairs_with) plus the ancestor-index
    /// switch (ignored by the naive builder, whose upward BFS needs no
    /// index at all).
    pub fn for_pairs_with_ancestor(
        h: &Hierarchy,
        pairs: &[Pair],
        eps: f64,
        imp: GraphImpl,
        ancestor: AncestorImpl,
        scratch: &mut GraphBuildScratch,
    ) -> Self {
        match imp {
            GraphImpl::Indexed => Self::build_indexed(
                h,
                pairs,
                None,
                eps,
                Granularity::Pairs,
                None,
                ancestor,
                scratch,
            ),
            GraphImpl::Naive => Self::for_pairs_naive(h, pairs, eps),
        }
    }

    /// [`for_weighted_pairs`](Self::for_weighted_pairs) with an explicit
    /// implementation and a caller-owned scratch.
    pub fn for_weighted_pairs_with(
        h: &Hierarchy,
        pairs: &[Pair],
        weights: &[u64],
        eps: f64,
        imp: GraphImpl,
        scratch: &mut GraphBuildScratch,
    ) -> Self {
        Self::for_weighted_pairs_with_ancestor(
            h,
            pairs,
            weights,
            eps,
            imp,
            AncestorImpl::Dense,
            scratch,
        )
    }

    /// [`for_weighted_pairs_with`](Self::for_weighted_pairs_with) plus the
    /// ancestor-index switch.
    pub fn for_weighted_pairs_with_ancestor(
        h: &Hierarchy,
        pairs: &[Pair],
        weights: &[u64],
        eps: f64,
        imp: GraphImpl,
        ancestor: AncestorImpl,
        scratch: &mut GraphBuildScratch,
    ) -> Self {
        assert_eq!(pairs.len(), weights.len(), "one weight per pair");
        match imp {
            GraphImpl::Indexed => Self::build_indexed(
                h,
                pairs,
                None,
                eps,
                Granularity::Pairs,
                Some(weights),
                ancestor,
                scratch,
            ),
            GraphImpl::Naive => Self::for_weighted_pairs_naive(h, pairs, weights, eps),
        }
    }

    /// [`for_groups`](Self::for_groups) with an explicit implementation
    /// and a caller-owned scratch.
    pub fn for_groups_with(
        h: &Hierarchy,
        pairs: &[Pair],
        groups: &[Vec<usize>],
        eps: f64,
        granularity: Granularity,
        imp: GraphImpl,
        scratch: &mut GraphBuildScratch,
    ) -> Self {
        Self::for_groups_with_ancestor(
            h,
            pairs,
            groups,
            eps,
            granularity,
            imp,
            AncestorImpl::Dense,
            scratch,
        )
    }

    /// [`for_groups_with`](Self::for_groups_with) plus the ancestor-index
    /// switch.
    #[allow(clippy::too_many_arguments)]
    pub fn for_groups_with_ancestor(
        h: &Hierarchy,
        pairs: &[Pair],
        groups: &[Vec<usize>],
        eps: f64,
        granularity: Granularity,
        imp: GraphImpl,
        ancestor: AncestorImpl,
        scratch: &mut GraphBuildScratch,
    ) -> Self {
        match imp {
            GraphImpl::Indexed => Self::build_indexed(
                h,
                pairs,
                Some(groups),
                eps,
                granularity,
                None,
                ancestor,
                scratch,
            ),
            GraphImpl::Naive => Self::for_groups_naive(h, pairs, groups, eps, granularity),
        }
    }

    /// Sequential indexed build: one plan, one full-range shard, one
    /// assembly.
    #[allow(clippy::too_many_arguments)]
    fn build_indexed(
        h: &Hierarchy,
        pairs: &[Pair],
        groups: Option<&[Vec<usize>]>,
        eps: f64,
        granularity: Granularity,
        weights: Option<&[u64]>,
        ancestor: AncestorImpl,
        scratch: &mut GraphBuildScratch,
    ) -> Self {
        let plan = GraphBuildPlan::new_with(h, pairs, groups, eps, ancestor);
        let shard = plan.shard(h, pairs, 0..pairs.len(), scratch);
        Self::assemble(&plan, granularity, weights, &[shard])
    }

    /// Merge pass-2 shards into the final graph. The shards must tile
    /// `0..plan.num_pairs()` contiguously in order. Their rows, already
    /// sorted by candidate, are concatenated into the pair side; the
    /// candidate side is one counting-sort transpose of it, which scatters
    /// pairs in ascending order — the exact layout the naive builder
    /// produces, regardless of how the range was sharded.
    pub fn assemble(
        plan: &GraphBuildPlan,
        granularity: Granularity,
        weights: Option<&[u64]>,
        shards: &[GraphShard],
    ) -> Self {
        let n_pairs = plan.num_pairs();
        let mut expect = 0usize;
        for s in shards {
            assert_eq!(s.start, expect, "shards must tile the pair range in order");
            expect += s.len();
        }
        assert_eq!(expect, n_pairs, "shards must cover every pair");

        let n_edges: usize = shards.iter().map(|s| s.edges.len()).sum();
        assert!(
            u32::try_from(n_edges).is_ok(),
            "graph edge count exceeds u32"
        );
        let mut pair_off = Vec::with_capacity(n_pairs + 1);
        pair_off.push(0u32);
        let mut pair_rows = Vec::with_capacity(n_edges);
        let mut window_hits = 0u64;
        for s in shards {
            window_hits += s.window_hits;
            let base = pair_rows.len() as u32;
            pair_off.extend(s.pair_off[1..].iter().map(|&o| base + o));
            pair_rows.extend_from_slice(&s.edges);
        }
        let (cand_off, cand_rows) = transpose(plan.n_cands, &pair_off, &pair_rows);

        let pair_weight = match weights {
            Some(w) => {
                assert_eq!(w.len(), n_pairs, "one weight per pair");
                w.to_vec()
            }
            None => vec![1; n_pairs],
        };
        let obs = osa_obs::global();
        obs.add("graph.builds", 1);
        obs.add("graph.edges", n_edges as u64);
        obs.add("graph.closure.entries", plan.closure_entries);
        obs.add("graph.window.hits", window_hits);
        obs.add("graph.sharded_items", n_pairs as u64);
        CoverageGraph {
            granularity,
            cand_off,
            cand_rows,
            pair_off,
            pair_rows,
            root_dist: plan.root_dist.clone(),
            pair_weight,
        }
    }

    /// [`for_pairs`](Self::for_pairs) through the naive oracle builder.
    pub fn for_pairs_naive(h: &Hierarchy, pairs: &[Pair], eps: f64) -> Self {
        let groups: Vec<Vec<usize>> = (0..pairs.len()).map(|i| vec![i]).collect();
        Self::build_naive(h, pairs, &groups, eps, Granularity::Pairs, None)
    }

    /// [`for_weighted_pairs`](Self::for_weighted_pairs) through the naive
    /// oracle builder.
    pub fn for_weighted_pairs_naive(
        h: &Hierarchy,
        pairs: &[Pair],
        weights: &[u64],
        eps: f64,
    ) -> Self {
        assert_eq!(pairs.len(), weights.len(), "one weight per pair");
        let groups: Vec<Vec<usize>> = (0..pairs.len()).map(|i| vec![i]).collect();
        Self::build_naive(h, pairs, &groups, eps, Granularity::Pairs, Some(weights))
    }

    /// [`for_groups`](Self::for_groups) through the naive oracle builder.
    pub fn for_groups_naive(
        h: &Hierarchy,
        pairs: &[Pair],
        groups: &[Vec<usize>],
        eps: f64,
        granularity: Granularity,
    ) -> Self {
        Self::build_naive(h, pairs, groups, eps, granularity, None)
    }

    /// The original two-pass construction of Section 4.1, kept verbatim
    /// as the oracle the indexed builder is tested against: bucket
    /// candidate pairs by concept, then for each target pair walk its
    /// concept's ancestors (upward BFS) and connect every bucketed
    /// candidate within the sentiment threshold (no threshold for
    /// candidates sitting on the root concept).
    fn build_naive(
        h: &Hierarchy,
        pairs: &[Pair],
        groups: &[Vec<usize>],
        eps: f64,
        granularity: Granularity,
        weights: Option<&[u64]>,
    ) -> Self {
        assert!(eps >= 0.0, "sentiment threshold must be non-negative");
        let n_pairs = pairs.len();
        let n_cands = groups.len();

        // Pass 1: bucket (candidate, sentiment) by member-pair concept.
        let mut buckets: Vec<Vec<(u32, f64)>> = vec![Vec::new(); h.node_count()];
        for (u, members) in groups.iter().enumerate() {
            for &pi in members {
                let p = pairs[pi];
                buckets[p.concept.index()].push((u as u32, p.sentiment));
            }
        }

        // Pass 2: for each target pair, BFS up the ancestors.
        let root = h.root();
        let mut cand_edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_cands];
        let mut root_dist = Vec::with_capacity(n_pairs);
        // Reused scratch: candidate -> best distance for the current pair.
        let mut best: HashMap<u32, u32> = HashMap::new();
        for (qi, q) in pairs.iter().enumerate() {
            root_dist.push(h.depth(q.concept));
            best.clear();
            for (anc, dist) in h.ancestors_with_dist(q.concept) {
                let is_root = anc == root;
                for &(u, s) in &buckets[anc.index()] {
                    if is_root || (s - q.sentiment).abs() <= eps {
                        best.entry(u)
                            .and_modify(|d| *d = (*d).min(dist))
                            .or_insert(dist);
                    }
                }
            }
            for (&u, &d) in &best {
                cand_edges[u as usize].push((qi as u32, d));
            }
        }
        let mut cand_off = Vec::with_capacity(n_cands + 1);
        cand_off.push(0u32);
        let mut cand_rows = Vec::new();
        for mut e in cand_edges {
            e.sort_unstable();
            cand_rows.extend_from_slice(&e);
            cand_off.push(u32::try_from(cand_rows.len()).expect("graph edge count exceeds u32"));
        }
        let (pair_off, pair_rows) = transpose(n_pairs, &cand_off, &cand_rows);

        let pair_weight = match weights {
            Some(w) => w.to_vec(),
            None => vec![1; n_pairs],
        };
        let obs = osa_obs::global();
        obs.add("graph.builds", 1);
        obs.add("graph.edges", cand_rows.len() as u64);
        CoverageGraph {
            granularity,
            cand_off,
            cand_rows,
            pair_off,
            pair_rows,
            root_dist,
            pair_weight,
        }
    }

    /// Problem variant this graph was built for.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Number of selection candidates `|U|`.
    pub fn num_candidates(&self) -> usize {
        self.cand_off.len() - 1
    }

    /// Number of coverage targets `|W|`.
    pub fn num_pairs(&self) -> usize {
        self.root_dist.len()
    }

    /// Number of coverage edges `|E|` (excluding the implicit root edges).
    pub fn num_edges(&self) -> usize {
        self.cand_rows.len()
    }

    /// Pairs covered by candidate `u`, with distances.
    #[inline]
    pub fn covered_by(&self, u: usize) -> &[(u32, u32)] {
        &self.cand_rows[self.cand_off[u] as usize..self.cand_off[u + 1] as usize]
    }

    /// Candidates covering pair `q`, with distances.
    #[inline]
    pub fn coverers_of(&self, q: usize) -> &[(u32, u32)] {
        &self.pair_rows[self.pair_off[q] as usize..self.pair_off[q + 1] as usize]
    }

    /// Distance from the virtual root to pair `q`.
    pub fn root_dist(&self, q: usize) -> u32 {
        self.root_dist[q]
    }

    /// Multiplicity of pair `q` (1 unless built from compressed pairs).
    pub fn pair_weight(&self, q: usize) -> u64 {
        self.pair_weight[q]
    }

    /// Cost of the empty summary: every pair served by the root.
    pub fn root_cost(&self) -> u64 {
        self.root_dist
            .iter()
            .zip(&self.pair_weight)
            .map(|(&d, &w)| u64::from(d) * w)
            .sum()
    }

    /// The Definition 2 cost `C(F, P)` of selecting candidates `selected`.
    pub fn cost_of(&self, selected: &[usize]) -> u64 {
        let mut best = self.root_dist.clone();
        for &u in selected {
            for &(q, d) in self.covered_by(u) {
                let b = &mut best[q as usize];
                if d < *b {
                    *b = d;
                }
            }
        }
        best.iter()
            .zip(&self.pair_weight)
            .map(|(&d, &w)| u64::from(d) * w)
            .sum()
    }

    /// Per-pair serving distances for a selection (used by metrics).
    pub fn serving_distances(&self, selected: &[usize]) -> Vec<u32> {
        let mut best = Vec::new();
        self.serving_distances_into(selected, &mut best);
        best
    }

    /// [`serving_distances`](Self::serving_distances) into a caller-owned
    /// buffer, so sweeps that probe many selections allocate nothing.
    pub fn serving_distances_into(&self, selected: &[usize], out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.root_dist);
        for &u in selected {
            for &(q, d) in self.covered_by(u) {
                let b = &mut out[q as usize];
                if d < *b {
                    *b = d;
                }
            }
        }
    }
}

/// Transpose a CSR adjacency by counting sort: count each column, prefix
/// sum the counts into offsets, then scatter the rows in order. Because
/// rows are scattered in ascending row order, every output row lists its
/// entries ascending — no sort needed. `n_cols` is the output row count.
fn transpose(n_cols: usize, off: &[u32], rows: &[(u32, u32)]) -> (Vec<u32>, Vec<(u32, u32)>) {
    let mut t_off = vec![0u32; n_cols + 1];
    for &(c, _) in rows {
        t_off[c as usize + 1] += 1;
    }
    for i in 0..n_cols {
        t_off[i + 1] += t_off[i];
    }
    let mut cursor = t_off[..n_cols].to_vec();
    let mut t_rows = vec![(0u32, 0u32); rows.len()];
    for (r, w) in off.windows(2).enumerate() {
        for &(c, d) in &rows[w[0] as usize..w[1] as usize] {
            let slot = &mut cursor[c as usize];
            t_rows[*slot as usize] = (r as u32, d);
            *slot += 1;
        }
    }
    (t_off, t_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_ontology::{Hierarchy, HierarchyBuilder, NodeId};

    /// r -> a -> c ; r -> b   (a tiny tree)
    fn tree() -> (Hierarchy, NodeId, NodeId, NodeId, NodeId) {
        let mut bl = HierarchyBuilder::new();
        let r = bl.add_node("r");
        let a = bl.add_node("a");
        let b = bl.add_node("b");
        let c = bl.add_node("c");
        bl.add_edge(r, a).unwrap();
        bl.add_edge(r, b).unwrap();
        bl.add_edge(a, c).unwrap();
        (bl.build().unwrap(), r, a, b, c)
    }

    #[test]
    fn pairs_graph_edges_match_definition() {
        let (h, _r, a, b, c) = tree();
        let pairs = vec![
            Pair::new(a, 0.5), // 0
            Pair::new(c, 0.4), // 1: covered by 0 (dist 1) and itself
            Pair::new(b, 0.9), // 2: only itself
        ];
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        assert_eq!(g.num_candidates(), 3);
        assert_eq!(g.num_pairs(), 3);
        assert_eq!(g.covered_by(0), &[(0, 0), (1, 1)]);
        assert_eq!(g.covered_by(1), &[(1, 0)]);
        assert_eq!(g.covered_by(2), &[(2, 0)]);
        assert_eq!(g.root_dist(1), 2);
        assert_eq!(g.coverers_of(1), &[(0, 1), (1, 0)]);
    }

    #[test]
    fn eps_controls_density() {
        let (h, _r, a, _b, c) = tree();
        let pairs = vec![Pair::new(a, 0.9), Pair::new(c, 0.0)];
        let tight = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let loose = CoverageGraph::for_pairs(&h, &pairs, 1.0);
        // Self-edges always exist; the cross edge only at eps >= 0.9.
        assert_eq!(tight.num_edges(), 2);
        assert_eq!(loose.num_edges(), 3);
    }

    #[test]
    fn root_concept_pair_covers_everything() {
        let (h, r, a, _b, c) = tree();
        let pairs = vec![Pair::new(r, 0.0), Pair::new(a, 1.0), Pair::new(c, -1.0)];
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.1);
        // Candidate 0 sits on the root: covers all three pairs despite the
        // sentiment gaps, at depth distances.
        assert_eq!(g.covered_by(0), &[(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn cost_of_empty_selection_is_root_cost() {
        let (h, _r, a, b, c) = tree();
        let pairs = vec![Pair::new(a, 0.0), Pair::new(b, 0.0), Pair::new(c, 0.0)];
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        assert_eq!(g.root_cost(), 1 + 1 + 2);
        assert_eq!(g.cost_of(&[]), g.root_cost());
    }

    #[test]
    fn cost_decreases_monotonically() {
        let (h, _r, a, b, c) = tree();
        let pairs = vec![Pair::new(a, 0.0), Pair::new(b, 0.0), Pair::new(c, 0.1)];
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let c0 = g.cost_of(&[]);
        let c1 = g.cost_of(&[0]);
        let c2 = g.cost_of(&[0, 1]);
        assert!(c1 <= c0 && c2 <= c1);
        // Selecting pair on `a` serves itself (0) and c (1); b stays at root (1).
        assert_eq!(c1, 1 + 1);
    }

    #[test]
    fn group_candidates_take_min_over_members() {
        let (h, _r, a, b, c) = tree();
        let pairs = vec![
            Pair::new(a, 0.0), // 0
            Pair::new(b, 0.0), // 1
            Pair::new(c, 0.0), // 2
        ];
        // One "sentence" containing pairs on a and b.
        let groups = vec![vec![0, 1], vec![2]];
        let g = CoverageGraph::for_groups(&h, &pairs, &groups, 0.5, Granularity::Sentences);
        assert_eq!(g.granularity(), Granularity::Sentences);
        assert_eq!(g.num_candidates(), 2);
        // Sentence 0 covers pair 0 (d 0), pair 1 (d 0), pair 2 (d 1 via a).
        assert_eq!(g.covered_by(0), &[(0, 0), (1, 0), (2, 1)]);
        // Selecting just that sentence zeroes everything except c at 1.
        assert_eq!(g.cost_of(&[0]), 1);
    }

    #[test]
    fn duplicate_member_concepts_keep_min_distance() {
        let (h, _r, a, _b, c) = tree();
        let pairs = vec![Pair::new(a, 0.0), Pair::new(c, 0.0), Pair::new(c, 0.05)];
        // A review mentioning a and c: covers pair 2 at distance 0 (via its
        // own c member), not 1 (via a).
        let groups = vec![vec![0, 1]];
        let g = CoverageGraph::for_groups(&h, &pairs, &groups, 0.5, Granularity::Reviews);
        let edge = g.covered_by(0).iter().find(|&&(q, _)| q == 2).copied();
        assert_eq!(edge, Some((2, 0)));
    }

    #[test]
    fn serving_distances_match_cost() {
        let (h, _r, a, b, c) = tree();
        let pairs = vec![Pair::new(a, 0.2), Pair::new(b, -0.3), Pair::new(c, 0.2)];
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        for sel in [vec![], vec![0], vec![1, 2], vec![0, 1, 2]] {
            let dists = g.serving_distances(&sel);
            let total: u64 = dists.iter().map(|&d| u64::from(d)).sum();
            assert_eq!(total, g.cost_of(&sel));
        }
    }

    /// A multi-parent DAG exercising the closure merge:
    /// r -> {a, b}, a -> m, b -> m, m -> l, b -> l.
    fn dag() -> (Hierarchy, Vec<NodeId>) {
        let mut bl = HierarchyBuilder::new();
        let r = bl.add_node("r");
        let a = bl.add_node("a");
        let b = bl.add_node("b");
        let m = bl.add_node("m");
        let l = bl.add_node("l");
        bl.add_edge(r, a).unwrap();
        bl.add_edge(r, b).unwrap();
        bl.add_edge(a, m).unwrap();
        bl.add_edge(b, m).unwrap();
        bl.add_edge(m, l).unwrap();
        bl.add_edge(b, l).unwrap();
        (bl.build().unwrap(), vec![r, a, b, m, l])
    }

    fn dag_pairs(ids: &[NodeId]) -> Vec<Pair> {
        // Boundary-heavy sentiments: exact ε hits, both zeros, extremes.
        let sentiments = [0.5, -0.5, 0.0, -0.0, 1.0, -1.0, 0.2, 0.7, -0.3, 0.5];
        sentiments
            .iter()
            .enumerate()
            .map(|(i, &s)| Pair::new(ids[i % ids.len()], s))
            .collect()
    }

    #[test]
    fn indexed_matches_naive_for_pairs_on_dag() {
        let (h, ids) = dag();
        let pairs = dag_pairs(&ids);
        for eps in [0.0, 0.2, 0.5, 1.0, 2.0] {
            let naive = CoverageGraph::for_pairs_naive(&h, &pairs, eps);
            let indexed = CoverageGraph::for_pairs(&h, &pairs, eps);
            assert_eq!(naive, indexed, "eps={eps}");
        }
    }

    #[test]
    fn indexed_matches_naive_for_weighted_pairs() {
        let (h, ids) = dag();
        let (unique, weights) = crate::compress_pairs(&dag_pairs(&ids));
        let naive = CoverageGraph::for_weighted_pairs_naive(&h, &unique, &weights, 0.5);
        let indexed = CoverageGraph::for_weighted_pairs(&h, &unique, &weights, 0.5);
        assert_eq!(naive, indexed);
    }

    #[test]
    fn indexed_matches_naive_for_groups() {
        let (h, ids) = dag();
        let pairs = dag_pairs(&ids);
        let groups = vec![vec![0, 1, 2], vec![3, 4], vec![5, 6, 7, 8, 9], vec![2, 2]];
        for gran in [Granularity::Sentences, Granularity::Reviews] {
            let naive = CoverageGraph::for_groups_naive(&h, &pairs, &groups, 0.3, gran);
            let indexed = CoverageGraph::for_groups(&h, &pairs, &groups, 0.3, gran);
            assert_eq!(naive, indexed, "{gran:?}");
        }
    }

    /// Assemble the full graph through the incremental append path and
    /// through a fresh build, plus the gain keys three ways (warm-started
    /// across the append, scattered from the shard, recomputed from the
    /// assembled graph), and demand byte-identity of each. `weights`
    /// covers `pairs`; the base instance weighs its prefix.
    #[allow(clippy::too_many_arguments)]
    fn assert_append_matches_fresh(
        h: &Hierarchy,
        base_pairs: &[Pair],
        pairs: &[Pair],
        base_groups: Option<&[Vec<usize>]>,
        groups: Option<&[Vec<usize>]>,
        eps: f64,
        granularity: Granularity,
        weights: Option<&[u64]>,
    ) {
        use crate::GreedySummarizer;
        let base_weights = weights.map(|w| &w[..base_pairs.len()]);
        let mut scratch = GraphBuildScratch::new();
        let plan0 = GraphBuildPlan::new(h, base_pairs, base_groups, eps);
        let shard0 = plan0.shard(h, base_pairs, 0..base_pairs.len(), &mut scratch);
        let g0 = CoverageGraph::assemble(
            &plan0,
            granularity,
            base_weights,
            std::slice::from_ref(&shard0),
        );
        let keys0 = GreedySummarizer::initial_keys(&g0);
        assert_eq!(
            plan0.initial_keys(&shard0, base_weights),
            keys0,
            "eps={eps}"
        );

        let (plan1, delta) = plan0.append(h, pairs, groups);
        let (shard1, recomputed) = plan1.shard_append(h, pairs, &shard0, &delta, &mut scratch);
        let incremental =
            CoverageGraph::assemble(&plan1, granularity, weights, std::slice::from_ref(&shard1));

        let fresh_plan = GraphBuildPlan::new(h, pairs, groups, eps);
        assert_eq!(plan1.bucket_count(), fresh_plan.bucket_count());
        let fresh_shard = fresh_plan.shard(h, pairs, 0..pairs.len(), &mut scratch);
        let fresh = CoverageGraph::assemble(
            &fresh_plan,
            granularity,
            weights,
            std::slice::from_ref(&fresh_shard),
        );
        assert_eq!(incremental, fresh, "eps={eps} {granularity:?}");

        let cold = GreedySummarizer::initial_keys(&fresh);
        let keys1 = plan1.warm_keys(&keys0, &shard0, &shard1, &recomputed, &delta, weights);
        assert_eq!(
            keys1, cold,
            "warm keys must match a cold recompute (eps={eps})"
        );
        assert_eq!(
            fresh_plan.initial_keys(&fresh_shard, weights),
            cold,
            "shard keys must match a cold recompute (eps={eps})"
        );
        assert_eq!(plan1.initial_keys(&shard1, weights), cold, "eps={eps}");
    }

    #[test]
    fn append_matches_fresh_build_for_pairs() {
        let (h, ids) = dag();
        let base = dag_pairs(&ids);
        let mut ext = base.clone();
        // New pairs hit existing buckets, a fresh bucket, and exact-ε
        // boundaries.
        ext.push(Pair::new(ids[3], 0.5));
        ext.push(Pair::new(ids[4], -0.2));
        ext.push(Pair::new(ids[1], 1.0));
        let weights: Vec<u64> = (0..ext.len() as u64).map(|q| q % 3 + 1).collect();
        for eps in [0.0, 0.2, 0.5, 1.0] {
            for w in [None, Some(weights.as_slice())] {
                assert_append_matches_fresh(
                    &h,
                    &base,
                    &ext,
                    None,
                    None,
                    eps,
                    Granularity::Pairs,
                    w,
                );
            }
        }
    }

    #[test]
    fn append_touching_the_root_bucket_recomputes_everything() {
        let (h, ids) = dag();
        let base = dag_pairs(&ids);
        let mut ext = base.clone();
        ext.push(Pair::new(ids[0], 0.1)); // ids[0] is the root
        assert_append_matches_fresh(&h, &base, &ext, None, None, 0.5, Granularity::Pairs, None);
    }

    #[test]
    fn append_matches_fresh_build_for_groups() {
        let (h, ids) = dag();
        let base_pairs = dag_pairs(&ids);
        // Candidate 1 has no members: its key stays 0 on every path.
        let base_groups = vec![vec![0, 1, 2], vec![], vec![3, 4], vec![5, 6, 7, 8, 9]];
        let mut pairs = base_pairs.clone();
        pairs.push(Pair::new(ids[2], 0.3));
        pairs.push(Pair::new(ids[4], -0.5));
        pairs.push(Pair::new(ids[3], 0.8));
        let mut groups = base_groups.clone();
        groups.push(vec![10, 11]);
        groups.push(vec![]);
        groups.push(vec![12]);
        for gran in [Granularity::Sentences, Granularity::Reviews] {
            assert_append_matches_fresh(
                &h,
                &base_pairs,
                &pairs,
                Some(&base_groups),
                Some(&groups),
                0.3,
                gran,
                None,
            );
        }
    }

    #[test]
    fn chained_appends_match_fresh_builds() {
        // Grow pair-by-pair through the incremental path, checking the
        // invariant at every step — the serve ingest access pattern.
        let (h, ids) = dag();
        let mut pairs = dag_pairs(&ids);
        let mut scratch = GraphBuildScratch::new();
        let mut plan = GraphBuildPlan::new(&h, &pairs, None, 0.5);
        let mut shard = plan.shard(&h, &pairs, 0..pairs.len(), &mut scratch);
        let mut keys = crate::GreedySummarizer::initial_keys(&CoverageGraph::assemble(
            &plan,
            Granularity::Pairs,
            None,
            &[shard.clone()],
        ));
        let additions = [
            Pair::new(ids[4], 0.5),
            Pair::new(ids[2], -0.9),
            Pair::new(ids[0], 0.0),
            Pair::new(ids[1], 0.5),
        ];
        for (step, &p) in additions.iter().enumerate() {
            pairs.push(p);
            let (next_plan, delta) = plan.append(&h, &pairs, None);
            let (next_shard, recomputed) =
                next_plan.shard_append(&h, &pairs, &shard, &delta, &mut scratch);
            let g = CoverageGraph::assemble(
                &next_plan,
                Granularity::Pairs,
                None,
                std::slice::from_ref(&next_shard),
            );
            let fresh = CoverageGraph::for_pairs(&h, &pairs, 0.5);
            assert_eq!(g, fresh, "step {step}");
            keys = next_plan.warm_keys(&keys, &shard, &next_shard, &recomputed, &delta, None);
            assert_eq!(
                keys,
                crate::GreedySummarizer::initial_keys(&fresh),
                "step {step}"
            );
            assert_eq!(
                next_plan.initial_keys(&next_shard, None),
                keys,
                "step {step}"
            );
            plan = next_plan;
            shard = next_shard;
        }
    }

    #[test]
    fn shard_rows_expose_the_edge_runs() {
        let (h, ids) = dag();
        let pairs = dag_pairs(&ids);
        let plan = GraphBuildPlan::new(&h, &pairs, None, 0.5);
        let shard = plan.shard(&h, &pairs, 0..pairs.len(), &mut GraphBuildScratch::new());
        let g = CoverageGraph::assemble(
            &plan,
            Granularity::Pairs,
            None,
            std::slice::from_ref(&shard),
        );
        for q in 0..pairs.len() {
            assert_eq!(shard.row(q), g.coverers_of(q), "pair {q}");
        }
    }

    #[test]
    fn sharded_assembly_matches_single_shard() {
        let (h, ids) = dag();
        let pairs = dag_pairs(&ids);
        let plan = GraphBuildPlan::new(&h, &pairs, None, 0.5);
        let mut scratch = GraphBuildScratch::new();
        let whole = plan.shard(&h, &pairs, 0..pairs.len(), &mut scratch);
        let whole = CoverageGraph::assemble(&plan, Granularity::Pairs, None, &[whole]);
        // Every contiguous 2-way split, including empty edge shards.
        for cut in 0..=pairs.len() {
            let s1 = plan.shard(&h, &pairs, 0..cut, &mut scratch);
            let s2 = plan.shard(&h, &pairs, cut..pairs.len(), &mut scratch);
            let merged = CoverageGraph::assemble(&plan, Granularity::Pairs, None, &[s1, s2]);
            assert_eq!(whole, merged, "cut={cut}");
        }
    }

    #[test]
    fn csr_assembly_matches_naive_with_empty_rows() {
        let (h, ids) = dag();
        let pairs = dag_pairs(&ids);
        // Candidate 1 has no members, so it covers no pair; pair 9 is in
        // no group, no group has a root member, and no member's ε-window
        // reaches pair 9 at ε = 0, so no candidate covers it.
        let groups = vec![vec![4], vec![], vec![2, 3], vec![6, 7], vec![8, 1]];
        let eps = 0.0;
        let naive = CoverageGraph::for_groups_naive(&h, &pairs, &groups, eps, Granularity::Reviews);
        assert!(naive.covered_by(1).is_empty());
        assert!(naive.coverers_of(9).is_empty());

        let plan = GraphBuildPlan::new(&h, &pairs, Some(&groups), eps);
        let mut scratch = GraphBuildScratch::new();
        let whole = plan.shard(&h, &pairs, 0..pairs.len(), &mut scratch);
        let single = CoverageGraph::assemble(&plan, Granularity::Reviews, None, &[whole]);
        let shards: Vec<GraphShard> = [0..3, 3..3, 3..7, 7..pairs.len()]
            .into_iter()
            .map(|r| plan.shard(&h, &pairs, r, &mut scratch))
            .collect();
        let multi = CoverageGraph::assemble(&plan, Granularity::Reviews, None, &shards);
        assert_eq!(single, naive);
        assert_eq!(multi, naive);
        assert_eq!(
            multi.num_edges(),
            (0..5).map(|u| multi.covered_by(u).len()).sum()
        );
        assert_eq!(
            multi.num_edges(),
            (0..pairs.len()).map(|q| multi.coverers_of(q).len()).sum()
        );
    }

    #[test]
    #[should_panic(expected = "sanitized by Pair::new")]
    fn literal_nan_pair_is_rejected_in_release_too() {
        // `Pair.sentiment` is pub, so literal construction can bypass the
        // constructor's NaN sanitization; the build must fail loudly
        // (real assert, not debug_assert) instead of producing a graph
        // with corrupt sorted buckets.
        let (h, _r, a, _b, _c) = tree();
        let pairs = vec![
            Pair::new(a, 0.5),
            Pair {
                concept: a,
                sentiment: f64::NAN,
            },
        ];
        let _ = CoverageGraph::for_pairs(&h, &pairs, 0.5);
    }

    #[test]
    #[should_panic(expected = "tile the pair range in order")]
    fn assemble_rejects_out_of_order_shards() {
        let (h, ids) = dag();
        let pairs = dag_pairs(&ids);
        let plan = GraphBuildPlan::new(&h, &pairs, None, 0.5);
        let mut scratch = GraphBuildScratch::new();
        let s1 = plan.shard(&h, &pairs, 0..4, &mut scratch);
        let s2 = plan.shard(&h, &pairs, 4..pairs.len(), &mut scratch);
        let _ = CoverageGraph::assemble(&plan, Granularity::Pairs, None, &[s2, s1]);
    }

    #[test]
    fn scratch_survives_reuse_across_instances_and_epoch_wrap() {
        let (h, ids) = dag();
        let pairs = dag_pairs(&ids);
        let (h2, _r, a, b, c) = {
            let t = tree();
            (t.0, t.1, t.2, t.3, t.4)
        };
        let small = vec![Pair::new(a, 0.1), Pair::new(b, 0.2), Pair::new(c, 0.3)];
        let mut scratch = GraphBuildScratch::new();
        // Force the epoch counter through its wrap-around reset path.
        scratch.epoch = u32::MAX - 2;
        for _ in 0..8 {
            let big =
                CoverageGraph::for_pairs_with(&h, &pairs, 0.5, GraphImpl::Indexed, &mut scratch);
            assert_eq!(big, CoverageGraph::for_pairs_naive(&h, &pairs, 0.5));
            let tiny =
                CoverageGraph::for_pairs_with(&h2, &small, 0.1, GraphImpl::Indexed, &mut scratch);
            assert_eq!(tiny, CoverageGraph::for_pairs_naive(&h2, &small, 0.1));
        }
    }

    #[test]
    fn graph_impl_names_round_trip() {
        for imp in [GraphImpl::Indexed, GraphImpl::Naive] {
            assert_eq!(GraphImpl::from_name(imp.name()), Some(imp));
        }
        assert_eq!(GraphImpl::from_name("fast"), None);
        assert_eq!(GraphImpl::default(), GraphImpl::Indexed);
    }

    #[test]
    fn packed_members_order_like_total_cmp_and_round_trip() {
        let vals = [
            f64::NEG_INFINITY,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            0.5,
            f64::INFINITY,
        ];
        let c = NodeId::from_index(7);
        for &a in &vals {
            let (n, (s, u)) = unpack(pack(c, a, 3));
            assert_eq!((n, s.to_bits(), u), (c, a.to_bits(), 3), "{a}");
            for &b in &vals {
                assert_eq!(
                    pack(c, a, 1).cmp(&pack(c, b, 1)),
                    a.total_cmp(&b),
                    "{a} {b}"
                );
            }
        }
        // Concept first, candidate last.
        let lo = NodeId::from_index(1);
        let hi = NodeId::from_index(2);
        assert!(pack(lo, f64::INFINITY, u32::MAX) < pack(hi, f64::NEG_INFINITY, 0));
        assert!(pack(lo, 0.5, 1) < pack(lo, 0.5, 2));
    }

    #[test]
    fn window_is_inclusive_at_exact_eps_boundary() {
        // a-candidate at 0.5, c-target at 0.0, eps exactly 0.5: the naive
        // abs-test accepts; the windowed builder must too.
        let (h, _r, a, _b, c) = tree();
        let pairs = vec![Pair::new(a, 0.5), Pair::new(c, 0.0)];
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        assert_eq!(g.covered_by(0), &[(0, 0), (1, 1)]);
        assert_eq!(g, CoverageGraph::for_pairs_naive(&h, &pairs, 0.5));
    }
}
