//! Compressed reachability: contiguous topological runs as segments.
//!
//! The dense [`AncestorIndex`](crate::AncestorIndex) materializes the full
//! ancestor closure — `O(n · ancestors)` entries, a quadratic cliff on
//! SNOMED-scale hierarchies. This module stores the DAG as *segments*:
//! maximal runs of consecutive positions in one topological order where
//! each node's only parent is its immediate predecessor (the segmented-DAG
//! design from git-branchless). Only segment heads store parent links, and
//! locating a node's segment is one `O(log n)` binary search.
//!
//! The topological order is Kahn's level-order queue, which places a node
//! right after its sole parent only when the queue held nothing else (in
//! practice, the root's first child). So on the synthetic DAGs almost every
//! node heads its own segment: 299,999 segments for 300k nodes, 2,999 for
//! the 3k-node Figs. 4–5 DAG. The memory saving over the dense closure
//! comes from not storing the closure at all, not from chain compression.
//!
//! [`SegmentIndex::ancestors_with_dist_into`] walks the ancestor cone and
//! returns exactly the same `(ancestor, shortest distance)` set as the
//! dense closure (proved per node by the `osars check` differential layer
//! and the seeded tests below), in decreasing topological position.
//! [`SegmentIndex::ancestors`] memoizes that walk per node: the first
//! query of a node fills its row, sorted by ancestor id exactly like the
//! dense closure's row, and every later query from any thread is a
//! lock-free slice borrow. Memory grows with the nodes actually queried.

use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::OnceLock;

use crate::{Hierarchy, NodeId};

/// Which ancestor-query implementation the pipeline should use.
///
/// `Dense` materializes the transitive closure once per hierarchy
/// ([`AncestorIndex`](crate::AncestorIndex)) — fastest per query, memory
/// proportional to the closure, kept as the byte-identical oracle.
/// `Segmented` walks the compressed [`SegmentIndex`] — `O(n)` memory plus
/// one memoized row per queried node, the only viable choice at 300k+
/// concepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AncestorImpl {
    /// Precomputed CSR ancestor closure (the oracle).
    #[default]
    Dense,
    /// Compressed segment index; no closure is ever materialized.
    Segmented,
}

impl AncestorImpl {
    /// Parse a CLI/query-string name (`"dense"` / `"segmented"`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "dense" => Some(AncestorImpl::Dense),
            "segmented" => Some(AncestorImpl::Segmented),
            _ => None,
        }
    }

    /// The canonical name accepted by [`from_name`](Self::from_name).
    pub fn name(self) -> &'static str {
        match self {
            AncestorImpl::Dense => "dense",
            AncestorImpl::Segmented => "segmented",
        }
    }
}

/// A compressed reachability index over one [`Hierarchy`].
///
/// Nodes are laid out in a topological order; a *segment* is a maximal run
/// of consecutive positions where every non-head node has exactly one
/// parent, the node at the previous position. Within a segment the parent
/// relation is implicit (`position - 1`), so only segment *heads* store
/// explicit parent links. Total memory is `O(n + edges-at-heads)` —
/// sublinear in the closure size and independent of DAG depth — plus the
/// memoized rows of the nodes queried through [`ancestors`](Self::ancestors).
///
/// The memo is a cache, not state: it takes no part in equality or
/// serialization, and a clone starts with it empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentIndex {
    /// Topological position → node (parents before children).
    order: Vec<NodeId>,
    /// Node → its topological position (inverse of `order`).
    pos: Vec<u32>,
    /// First position of each segment, ascending, with a trailing
    /// `node_count` sentinel; segment `s` spans `starts[s]..starts[s+1]`.
    starts: Vec<u32>,
    /// CSR offsets per segment into `par_entries`.
    par_off: Vec<u32>,
    /// Parent links of each segment's head node.
    par_entries: Vec<NodeId>,
    /// Lazily filled ancestor rows (see [`ancestors`](Self::ancestors)).
    memo: RowMemo,
}

/// One node's memoized ancestor row, sorted by ancestor id.
type Row = Box<[(NodeId, u32)]>;

/// The row slots of [`MEMO_CHUNK`] consecutive nodes.
type Chunk = Box<[OnceLock<Row>; MEMO_CHUNK]>;

/// Nodes per memo chunk. A fresh index pays one empty `OnceLock` (16 B)
/// per chunk; a chunk's 256 row slots (24 B each, 6 KiB) are allocated on
/// its first touch, so memory grows with the nodes queried.
const MEMO_CHUNK: usize = 256;

/// Per-node write-once rows behind a write-once chunk table. A hit is two
/// atomic loads; a miss runs the walk under the slot's `OnceLock`, so
/// concurrent first touches of one node fill it once.
struct RowMemo {
    chunks: Box<[OnceLock<Chunk>]>,
}

impl RowMemo {
    fn new(nodes: usize) -> Self {
        RowMemo {
            chunks: (0..nodes.div_ceil(MEMO_CHUNK))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    #[inline]
    fn slot(&self, i: usize) -> &OnceLock<Row> {
        let chunk = self.chunks[i / MEMO_CHUNK]
            .get_or_init(|| Box::new(std::array::from_fn(|_| OnceLock::new())));
        &chunk[i % MEMO_CHUNK]
    }

    /// Filled rows and their total entries.
    fn footprint(&self) -> (usize, usize) {
        self.chunks
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|chunk| chunk.iter().filter_map(OnceLock::get))
            .fold((0, 0), |(rows, entries), row| {
                (rows + 1, entries + row.len())
            })
    }
}

/// A clone starts empty: rows are recomputable, and sharing them would
/// tie the clone's memory to the original's.
impl Clone for RowMemo {
    fn clone(&self) -> Self {
        RowMemo::new(self.chunks.len() * MEMO_CHUNK)
    }
}

/// Every memo is equal: rows are a pure function of the index arrays.
impl PartialEq for RowMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for RowMemo {}

impl fmt::Debug for RowMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (rows, entries) = self.footprint();
        write!(f, "RowMemo {{ rows: {rows}, entries: {entries} }}")
    }
}

thread_local! {
    /// Walk buffers for memo fills: one per thread, sized by the largest
    /// hierarchy the thread has filled rows for.
    static FILL: RefCell<(SegmentScratch, Vec<(NodeId, u32)>)> = RefCell::default();
}

/// Reusable buffers for [`SegmentIndex::ancestors_with_dist_into`]: a
/// dense distance table reset via a touched list plus the traversal heap,
/// so steady-state queries allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct SegmentScratch {
    dist: Vec<u32>,
    touched: Vec<u32>,
    heap: BinaryHeap<(u32, u32)>,
}

impl SegmentScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SegmentIndex {
    /// Build the index from a hierarchy in `O(n + e)`.
    pub fn build(h: &Hierarchy) -> Self {
        let order = h.topological_order();
        let n = order.len();
        let mut pos = vec![0u32; n];
        for (i, &nd) in order.iter().enumerate() {
            pos[nd.index()] = i as u32;
        }
        let mut starts = Vec::new();
        let mut par_off = vec![0u32];
        let mut par_entries = Vec::new();
        for (p, &nd) in order.iter().enumerate() {
            let parents = h.parents(nd);
            // A node continues the current segment only when its sole
            // parent is the previous position. A duplicated parent
            // listing (len > 1 even if all entries are equal) breaks the
            // chain, so malformed multi-listings land on the explicit
            // head path rather than being silently collapsed.
            let chained = p > 0 && parents.len() == 1 && parents[0] == order[p - 1];
            if !chained {
                starts.push(p as u32);
                par_entries.extend_from_slice(parents);
                par_off.push(u32::try_from(par_entries.len()).expect("parent links fit u32"));
            }
        }
        starts.push(n as u32);
        SegmentIndex {
            order,
            pos,
            starts,
            par_off,
            par_entries,
            memo: RowMemo::new(n),
        }
    }

    /// Number of nodes covered by the index.
    pub fn node_count(&self) -> usize {
        self.order.len()
    }

    /// Number of segments (`<= node_count`; see the module docs for why it
    /// is close to `node_count` on level-ordered DAGs).
    pub fn segment_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total stored array elements — the index's memory weight, the
    /// segmented counterpart of the dense closure's entry count. Memoized
    /// rows are not counted; see [`memo_footprint`](Self::memo_footprint).
    pub fn entry_weight(&self) -> usize {
        self.order.len()
            + self.pos.len()
            + self.starts.len()
            + self.par_off.len()
            + self.par_entries.len()
    }

    /// `(rows, entries)` memoized so far by [`ancestors`](Self::ancestors):
    /// one row per distinct node queried. `O(n)` to count.
    pub fn memo_footprint(&self) -> (usize, usize) {
        self.memo.footprint()
    }

    /// The raw arrays `(order, starts, par_off, par_entries)` for
    /// serialization (`pos` is derivable from `order`).
    pub fn parts(&self) -> (&[NodeId], &[u32], &[u32], &[NodeId]) {
        (&self.order, &self.starts, &self.par_off, &self.par_entries)
    }

    /// Reassemble an index from serialized [`parts`](Self::parts),
    /// validating every structural invariant against `h` (position
    /// permutation, segment bounds, and per-node parent agreement), so a
    /// stale or mismatched artifact is rejected rather than silently
    /// answering queries for a different DAG. `O(n + e)`.
    pub fn from_parts(
        h: &Hierarchy,
        order: Vec<NodeId>,
        starts: Vec<u32>,
        par_off: Vec<u32>,
        par_entries: Vec<NodeId>,
    ) -> Result<Self, &'static str> {
        let n = h.node_count();
        if order.len() != n {
            return Err("segment index order length mismatch");
        }
        let mut pos = vec![u32::MAX; n];
        for (i, &nd) in order.iter().enumerate() {
            if nd.index() >= n || pos[nd.index()] != u32::MAX {
                return Err("segment index order is not a permutation");
            }
            pos[nd.index()] = i as u32;
        }
        let segs = starts.len().saturating_sub(1);
        if starts.first() != Some(&0)
            || starts.last() != Some(&(n as u32))
            || starts.windows(2).any(|w| w[0] >= w[1])
        {
            return Err("segment starts must ascend from 0 to node count");
        }
        if par_off.len() != segs + 1
            || par_off[0] != 0
            || par_off.windows(2).any(|w| w[0] > w[1])
            || *par_off.last().expect("nonempty") as usize != par_entries.len()
        {
            return Err("segment parent offsets are inconsistent");
        }
        if par_entries.iter().any(|p| p.index() >= n) {
            return Err("segment parent link out of range");
        }
        let idx = SegmentIndex {
            order,
            pos,
            starts,
            par_off,
            par_entries,
            memo: RowMemo::new(n),
        };
        // Per-node agreement with the hierarchy: heads carry exactly the
        // node's parent list, chained nodes have exactly the predecessor.
        for s in 0..segs {
            let head = idx.starts[s] as usize;
            let end = idx.starts[s + 1] as usize;
            let row = &idx.par_entries[idx.par_off[s] as usize..idx.par_off[s + 1] as usize];
            if row != h.parents(idx.order[head]) {
                return Err("segment head parents disagree with hierarchy");
            }
            if row.iter().any(|&u| idx.pos[u.index()] >= head as u32) {
                return Err("segment head parent violates topological order");
            }
            for p in head + 1..end {
                if h.parents(idx.order[p]) != [idx.order[p - 1]] {
                    return Err("chained node parents disagree with hierarchy");
                }
            }
        }
        Ok(idx)
    }

    /// The segment containing position `p`, by binary search — the
    /// `O(log n)` locate step of every query.
    #[inline]
    fn seg_of(&self, p: u32) -> usize {
        self.starts.partition_point(|&s| s <= p) - 1
    }

    /// All ancestors of `n` (including `n` at distance 0) with exact
    /// shortest upward distances, written into `out` using caller-owned
    /// scratch. Same `(node, dist)` *set* as
    /// [`Hierarchy::ancestors_with_dist`], enumerated in decreasing
    /// topological position.
    ///
    /// Nodes pop off the max-heap in strictly decreasing position order;
    /// every path from `n` up to an ancestor `v` runs through positions
    /// greater than `v`'s, so all of `v`'s in-cone contributors are
    /// settled before `v` pops and its distance is final at pop time —
    /// Dijkstra without a decrease-key, `O(cone · log cone)`.
    pub fn ancestors_with_dist_into(
        &self,
        n: NodeId,
        scratch: &mut SegmentScratch,
        out: &mut Vec<(NodeId, u32)>,
    ) {
        out.clear();
        let nodes = self.order.len();
        if scratch.dist.len() < nodes {
            scratch.dist.resize(nodes, u32::MAX);
        }
        let SegmentScratch {
            dist,
            touched,
            heap,
        } = scratch;
        touched.clear();
        debug_assert!(heap.is_empty(), "scratch heap drains every query");
        dist[n.index()] = 0;
        touched.push(n.0);
        heap.push((self.pos[n.index()], n.0));
        let mut prev_pos = u32::MAX;
        while let Some((p, v)) = heap.pop() {
            if p == prev_pos {
                // Re-pushed on a distance improvement; already settled.
                continue;
            }
            prev_pos = p;
            let d = dist[v as usize];
            out.push((NodeId(v), d));
            let seg = self.seg_of(p);
            let head = self.starts[seg];
            if p > head {
                // Implicit chain edge to the previous position.
                Self::offer(
                    &self.pos,
                    dist,
                    touched,
                    heap,
                    self.order[p as usize - 1],
                    d + 1,
                );
            } else {
                let row =
                    &self.par_entries[self.par_off[seg] as usize..self.par_off[seg + 1] as usize];
                for &u in row {
                    Self::offer(&self.pos, dist, touched, heap, u, d + 1);
                }
            }
        }
        // Dense table reset via the touched list keeps the query
        // O(ancestor cone), independent of the hierarchy size.
        for &t in touched.iter() {
            dist[t as usize] = u32::MAX;
        }
    }

    #[inline]
    fn offer(
        pos: &[u32],
        dist: &mut [u32],
        touched: &mut Vec<u32>,
        heap: &mut BinaryHeap<(u32, u32)>,
        u: NodeId,
        nd: u32,
    ) {
        let du = &mut dist[u.index()];
        if *du == u32::MAX {
            *du = nd;
            touched.push(u.0);
            heap.push((pos[u.index()], u.0));
        } else if nd < *du {
            *du = nd;
            heap.push((pos[u.index()], u.0));
        }
    }

    /// All ancestors of `n` (including `n` at distance 0) with exact
    /// shortest distances, sorted by ancestor id — the same slice
    /// [`AncestorIndex::ancestors`](crate::AncestorIndex::ancestors)
    /// returns. The first query of `n` fills its row with
    /// [`ancestors_with_dist_into`](Self::ancestors_with_dist_into) on a
    /// per-thread scratch; later queries from any thread borrow it
    /// without locking.
    #[inline]
    pub fn ancestors(&self, n: NodeId) -> &[(NodeId, u32)] {
        self.memo.slot(n.index()).get_or_init(|| self.fill_row(n))
    }

    #[cold]
    fn fill_row(&self, n: NodeId) -> Row {
        FILL.with(|cell| {
            let (scratch, buf) = &mut *cell.borrow_mut();
            self.ancestors_with_dist_into(n, scratch, buf);
            buf.sort_unstable_by_key(|&(a, _)| a);
            buf.as_slice().into()
        })
    }

    /// Allocating convenience wrapper over
    /// [`ancestors_with_dist_into`](Self::ancestors_with_dist_into).
    pub fn ancestors_with_dist(&self, n: NodeId) -> Vec<(NodeId, u32)> {
        let mut scratch = SegmentScratch::new();
        let mut out = Vec::new();
        self.ancestors_with_dist_into(n, &mut scratch, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HierarchyBuilder;

    fn sorted(mut v: Vec<(NodeId, u32)>) -> Vec<(NodeId, u32)> {
        v.sort_unstable();
        v
    }

    /// Segmented output must equal both the BFS reference and the dense
    /// closure for every node.
    fn assert_matches_oracles(h: &Hierarchy) {
        let idx = h.segment_index();
        let dense = h.ancestor_index();
        let mut scratch = SegmentScratch::new();
        let mut out = Vec::new();
        for n in h.nodes() {
            idx.ancestors_with_dist_into(n, &mut scratch, &mut out);
            let got = sorted(out.clone());
            assert_eq!(
                got,
                sorted(h.ancestors_with_dist(n)),
                "bfs mismatch at {n:?}"
            );
            assert_eq!(
                got,
                sorted(dense.ancestors(n).to_vec()),
                "closure mismatch at {n:?}"
            );
        }
    }

    #[test]
    fn single_node_ontology() {
        let mut b = HierarchyBuilder::new();
        let r = b.add_node("r");
        let h = b.build().unwrap();
        let idx = h.segment_index();
        assert_eq!(idx.segment_count(), 1);
        assert_eq!(idx.ancestors_with_dist(r), vec![(r, 0)]);
        assert_matches_oracles(&h);
    }

    #[test]
    fn linear_chain_is_one_segment() {
        let mut b = HierarchyBuilder::new();
        let mut prev = b.add_node("n0");
        for i in 1..40 {
            let cur = b.add_node(&format!("n{i}"));
            b.add_edge(prev, cur).unwrap();
            prev = cur;
        }
        let h = b.build().unwrap();
        assert_eq!(h.segment_index().segment_count(), 1);
        let anc = h.segment_index().ancestors_with_dist(prev);
        assert_eq!(anc.len(), 40);
        assert_matches_oracles(&h);
    }

    #[test]
    fn star_dag_fans_into_singleton_segments() {
        let mut b = HierarchyBuilder::new();
        let r = b.add_node("r");
        let kids: Vec<_> = (0..50)
            .map(|i| {
                let c = b.add_node(&format!("c{i}"));
                b.add_edge(r, c).unwrap();
                c
            })
            .collect();
        let h = b.build().unwrap();
        // The first child chains onto the root's segment; every other
        // child heads its own singleton segment.
        assert_eq!(h.segment_index().segment_count(), 50);
        for &c in &kids {
            assert_eq!(
                sorted(h.segment_index().ancestors_with_dist(c)),
                sorted(vec![(c, 0), (r, 1)])
            );
        }
        assert_matches_oracles(&h);
    }

    #[test]
    fn duplicate_child_listings_break_the_chain_safely() {
        // The PR 3 `subgraph` regression class: a malformed hierarchy
        // listing the same edge twice. The doubled parent entry must force
        // a segment head (never an implicit chain) and still yield exact
        // distances.
        let mut b = HierarchyBuilder::new();
        let r = b.add_node("r");
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.add_edge(r, a).unwrap();
        b.add_edge(a, c).unwrap();
        let mut h = b.build().unwrap();
        h.inject_duplicate_edge(r, a);
        let idx = SegmentIndex::build(&h);
        let mut scratch = SegmentScratch::new();
        let mut out = Vec::new();
        for n in h.nodes() {
            idx.ancestors_with_dist_into(n, &mut scratch, &mut out);
            assert_eq!(sorted(out.clone()), sorted(h.ancestors_with_dist(n)));
        }
        assert_eq!(
            sorted(idx.ancestors_with_dist(a)),
            sorted(vec![(a, 0), (r, 1)])
        );
    }

    #[test]
    fn diamond_takes_shortest_path() {
        // r -> a -> b -> c and r -> c: dist(r, c) must be 1, not 3.
        let mut b = HierarchyBuilder::new();
        let r = b.add_node("r");
        let a = b.add_node("a");
        let bb = b.add_node("b");
        let c = b.add_node("c");
        b.add_edge(r, a).unwrap();
        b.add_edge(a, bb).unwrap();
        b.add_edge(bb, c).unwrap();
        b.add_edge(r, c).unwrap();
        let h = b.build().unwrap();
        let anc = h.segment_index().ancestors_with_dist(c);
        assert!(anc.contains(&(r, 1)));
        assert_matches_oracles(&h);
    }

    /// Seeded `n`-node DAG, ~30% of nodes with a second parent.
    fn seeded_dag(n: u32) -> Hierarchy {
        let mut b = HierarchyBuilder::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut ids = vec![b.add_node("n0")];
        for i in 1..n {
            let id = b.add_node(&format!("n{i}"));
            let p1 = ids[next(u64::from(i)) as usize];
            b.add_edge(p1, id).unwrap();
            if next(100) < 30 {
                let p2 = ids[next(u64::from(i)) as usize];
                if p2 != p1 {
                    b.add_edge(p2, id).unwrap();
                }
            }
            ids.push(id);
        }
        b.build().unwrap()
    }

    #[test]
    fn seeded_multi_parent_dag_matches_dense_closure_everywhere() {
        // 10k-node DAG checked against both oracles for every single node.
        let h = seeded_dag(10_000);
        let idx = h.segment_index();
        assert!(idx.segment_count() < h.node_count(), "chains must compress");
        let dense = h.ancestor_index();
        let mut scratch = SegmentScratch::new();
        let mut out = Vec::new();
        for node in h.nodes() {
            idx.ancestors_with_dist_into(node, &mut scratch, &mut out);
            let got = sorted(out.clone());
            assert_eq!(
                got,
                sorted(dense.ancestors(node).to_vec()),
                "divergence at {node:?}"
            );
        }
    }

    #[test]
    fn memoized_rows_equal_dense_rows_exactly() {
        // Same order, same distances: the memo row is the dense row.
        let h = seeded_dag(10_000);
        let idx = h.segment_index();
        let dense = h.ancestor_index();
        assert_eq!(idx.memo_footprint(), (0, 0), "the memo starts empty");
        for node in h.nodes() {
            assert_eq!(idx.ancestors(node), dense.ancestors(node), "{node:?}");
        }
        // A second pass hits the memo and must not refill it.
        let filled = idx.memo_footprint();
        assert_eq!(filled, (h.node_count(), dense.entry_count()));
        for node in h.nodes() {
            assert_eq!(idx.ancestors(node), dense.ancestors(node), "{node:?}");
        }
        assert_eq!(idx.memo_footprint(), filled);
    }

    #[test]
    fn concurrent_fills_in_shuffled_orders_agree_with_dense() {
        let h = seeded_dag(10_000);
        let idx = SegmentIndex::build(&h);
        let dense = h.ancestor_index();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (idx, h) = (&idx, &h);
                s.spawn(move || {
                    // Per-thread Fisher–Yates order, so threads race on
                    // different first touches of the same rows.
                    let mut order: Vec<NodeId> = h.nodes().collect();
                    let mut state = 0x2545_f491_4f6c_dd1du64 ^ t;
                    for i in (1..order.len()).rev() {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        order.swap(i, (state % (i as u64 + 1)) as usize);
                    }
                    for n in order {
                        assert_eq!(idx.ancestors(n), dense.ancestors(n), "{n:?}");
                    }
                });
            }
        });
        assert_eq!(
            idx.memo_footprint(),
            (h.node_count(), dense.entry_count()),
            "each row is filled exactly once"
        );
    }

    #[test]
    fn clones_and_primed_indexes_start_with_an_empty_memo() {
        let h = seeded_dag(10_000);
        let dense = h.ancestor_index();
        let probe: Vec<NodeId> = h.nodes().step_by(7).collect();
        for &n in &probe {
            h.segment_index().ancestors(n);
        }
        assert_eq!(h.segment_index().memo_footprint().0, probe.len());

        // A cloned hierarchy clones the index but not its memo.
        let cloned = h.clone();
        assert_eq!(cloned.segment_index(), h.segment_index());
        assert_eq!(cloned.segment_index().memo_footprint(), (0, 0));

        // An artifact boot: the hierarchy replayed from its edge list and
        // the index primed from its serialized parts.
        let mut b = HierarchyBuilder::new();
        for n in h.nodes() {
            b.add_node(h.name(n));
        }
        for &(p, c) in h.edge_list() {
            b.add_edge(p, c).unwrap();
        }
        let booted = b.build().unwrap();
        let (order, starts, par_off, par_entries) = h.segment_index().parts();
        let primed = SegmentIndex::from_parts(
            &booted,
            order.to_vec(),
            starts.to_vec(),
            par_off.to_vec(),
            par_entries.to_vec(),
        )
        .unwrap();
        booted.prime_segment_index(primed);
        assert_eq!(booted.segment_index().memo_footprint(), (0, 0));

        for n in h.nodes() {
            let want = dense.ancestors(n);
            assert_eq!(h.segment_index().ancestors(n), want, "{n:?}");
            assert_eq!(cloned.segment_index().ancestors(n), want, "{n:?}");
            assert_eq!(booted.segment_index().ancestors(n), want, "{n:?}");
        }
    }

    #[test]
    fn parts_round_trip_and_reject_tampering() {
        let mut b = HierarchyBuilder::new();
        b.add_edge_by_name("r", "a").unwrap();
        b.add_edge_by_name("r", "b").unwrap();
        b.add_edge_by_name("a", "c").unwrap();
        b.add_edge_by_name("b", "c").unwrap();
        let h = b.build().unwrap();
        let idx = SegmentIndex::build(&h);
        let (order, starts, par_off, par_entries) = idx.parts();
        let rebuilt = SegmentIndex::from_parts(
            &h,
            order.to_vec(),
            starts.to_vec(),
            par_off.to_vec(),
            par_entries.to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, idx);

        let mut bad_order = order.to_vec();
        bad_order.swap(0, 1);
        assert!(SegmentIndex::from_parts(
            &h,
            bad_order,
            starts.to_vec(),
            par_off.to_vec(),
            par_entries.to_vec()
        )
        .is_err());

        let mut bad_starts = starts.to_vec();
        if bad_starts.len() > 2 {
            bad_starts.remove(1);
        }
        assert!(SegmentIndex::from_parts(
            &h,
            order.to_vec(),
            bad_starts,
            par_off.to_vec(),
            par_entries.to_vec()
        )
        .is_err());
    }

    #[test]
    fn ancestor_impl_names_round_trip() {
        for imp in [AncestorImpl::Dense, AncestorImpl::Segmented] {
            assert_eq!(AncestorImpl::from_name(imp.name()), Some(imp));
        }
        assert_eq!(AncestorImpl::from_name("csr"), None);
        assert_eq!(AncestorImpl::default(), AncestorImpl::Dense);
    }
}
