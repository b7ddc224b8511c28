//! Memoized ancestor rows: the `segmented` ancestor implementation.
//!
//! The dense [`AncestorIndex`](crate::AncestorIndex) materializes the full
//! ancestor closure — `O(n · ancestors)` entries, a quadratic cliff on
//! SNOMED-scale hierarchies. [`SegmentIndex`] stores nothing up front. The
//! first query of a node runs an upward BFS over the hierarchy's own
//! parent CSR ([`Hierarchy::ancestors_with_dist_into`]) and sorts the
//! result by ancestor id, which is exactly the dense closure's row; every
//! later query of that node, from any thread, is a lock-free slice borrow.
//! Memory grows with the nodes actually queried. Standing the memo up on a
//! fresh hierarchy costs one empty chunk slot per 256 nodes, so the first
//! answer after loading an ontology pays for its own rows and nothing else.
//!
//! No segment structure remains: the names `segmented`,
//! [`Hierarchy::segment_index`], [`SegmentIndex`] and [`SegmentScratch`]
//! stay because the `--ancestor-impl` flag, the `?ancestor-impl=` query
//! key and perfbench use them (DESIGN.md §11 says why the segments
//! went).

use std::cell::RefCell;
use std::fmt;
use std::sync::OnceLock;

use crate::{AncestorScratch, Hierarchy, NodeId};

/// Which ancestor-query implementation the pipeline should use.
///
/// `Dense` materializes the transitive closure once per hierarchy
/// ([`AncestorIndex`](crate::AncestorIndex)) — fastest per query, memory
/// proportional to the closure, kept as the byte-identical oracle.
/// `Segmented` reads the memoized rows of [`SegmentIndex`] — one row per
/// queried node and nothing else, the only viable choice at 300k+
/// concepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AncestorImpl {
    /// Precomputed CSR ancestor closure (the oracle).
    #[default]
    Dense,
    /// Memoized per-node rows; no closure is ever materialized.
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

/// Scratch buffers for [`SegmentIndex::ancestors_with_dist_into`]: the
/// hierarchy's own BFS scratch.
pub type SegmentScratch = AncestorScratch;

/// The memoized ancestor rows of one [`Hierarchy`], as returned by
/// [`Hierarchy::segment_index`]: a `Copy` view of the hierarchy and its
/// row memo.
///
/// The memo is a cache, not state: a cloned hierarchy starts with it
/// empty.
#[derive(Clone, Copy)]
pub struct SegmentIndex<'h> {
    h: &'h Hierarchy,
    memo: &'h RowMemo,
}

/// One node's memoized ancestor row, sorted by ancestor id.
type Row = Box<[(NodeId, u32)]>;

/// The row slots of [`MEMO_CHUNK`] consecutive nodes.
type Chunk = Box<[OnceLock<Row>; MEMO_CHUNK]>;

/// Nodes per memo chunk. A fresh memo pays one empty `OnceLock` (16 B)
/// per chunk; a chunk's 256 row slots (24 B each, 6 KiB) are allocated on
/// its first touch, so memory grows with the nodes queried.
const MEMO_CHUNK: usize = 256;

/// Per-node write-once rows behind a write-once chunk table. A hit is two
/// atomic loads; a miss runs the walk under the slot's `OnceLock`, so
/// concurrent first touches of one node fill it once.
pub(crate) struct RowMemo {
    chunks: Box<[OnceLock<Chunk>]>,
}

impl RowMemo {
    pub(crate) fn new(nodes: usize) -> Self {
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

impl fmt::Debug for RowMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (rows, entries) = self.footprint();
        write!(f, "RowMemo {{ rows: {rows}, entries: {entries} }}")
    }
}

thread_local! {
    /// Walk buffers for memo fills: one per thread, sized by the largest
    /// hierarchy the thread has filled rows for.
    static FILL: RefCell<(AncestorScratch, Vec<(NodeId, u32)>)> = RefCell::default();
}

impl<'h> SegmentIndex<'h> {
    pub(crate) fn new(h: &'h Hierarchy, memo: &'h RowMemo) -> Self {
        SegmentIndex { h, memo }
    }

    /// Stored elements before any row is filled: the memo's chunk slots,
    /// one per 256 nodes — the counterpart of the dense closure's entry
    /// count. Filled rows are not counted; see
    /// [`memo_footprint`](Self::memo_footprint).
    pub fn entry_weight(self) -> usize {
        self.memo.chunks.len()
    }

    /// `(rows, entries)` memoized so far by [`ancestors`](Self::ancestors):
    /// one row per distinct node queried. `O(n)` to count.
    pub fn memo_footprint(self) -> (usize, usize) {
        self.memo.footprint()
    }

    /// All ancestors of `n` (including `n` at distance 0) with exact
    /// shortest upward distances, written into `out` using caller-owned
    /// scratch: [`Hierarchy::ancestors_with_dist_into`], in BFS discovery
    /// order. The same `(node, dist)` set as the dense closure's row.
    pub fn ancestors_with_dist_into(
        self,
        n: NodeId,
        scratch: &mut SegmentScratch,
        out: &mut Vec<(NodeId, u32)>,
    ) {
        self.h.ancestors_with_dist_into(n, scratch, out);
    }

    /// All ancestors of `n` (including `n` at distance 0) with exact
    /// shortest distances, sorted by ancestor id — the same slice
    /// [`AncestorIndex::ancestors`](crate::AncestorIndex::ancestors)
    /// returns. The first query of `n` fills its row with
    /// [`ancestors_with_dist_into`](Self::ancestors_with_dist_into) on a
    /// per-thread scratch; later queries from any thread borrow it
    /// without locking.
    #[inline]
    pub fn ancestors(self, n: NodeId) -> &'h [(NodeId, u32)] {
        self.memo.slot(n.index()).get_or_init(|| self.fill_row(n))
    }

    #[cold]
    fn fill_row(self, n: NodeId) -> Row {
        FILL.with(|cell| {
            let (scratch, buf) = &mut *cell.borrow_mut();
            self.ancestors_with_dist_into(n, scratch, buf);
            buf.sort_unstable_by_key(|&(a, _)| a);
            buf.as_slice().into()
        })
    }

    /// Allocating convenience wrapper over
    /// [`ancestors_with_dist_into`](Self::ancestors_with_dist_into):
    /// [`Hierarchy::ancestors_with_dist`].
    pub fn ancestors_with_dist(self, n: NodeId) -> Vec<(NodeId, u32)> {
        self.h.ancestors_with_dist(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HierarchyBuilder;

    /// Every memoized row must equal the dense closure's row, and the
    /// unsorted walk the same set.
    fn assert_matches_dense(h: &Hierarchy) {
        let idx = h.segment_index();
        let dense = h.ancestor_index();
        for n in h.nodes() {
            assert_eq!(idx.ancestors(n), dense.ancestors(n), "row at {n:?}");
            let mut walk = idx.ancestors_with_dist(n);
            walk.sort_unstable();
            assert_eq!(walk, dense.ancestors(n), "walk at {n:?}");
        }
    }

    #[test]
    fn single_node_ontology() {
        let mut b = HierarchyBuilder::new();
        let r = b.add_node("r");
        let h = b.build().unwrap();
        assert_eq!(h.segment_index().ancestors(r), [(r, 0)]);
        assert_matches_dense(&h);
    }

    #[test]
    fn linear_chain_rows_reach_the_root() {
        let mut b = HierarchyBuilder::new();
        let mut prev = b.add_node("n0");
        for i in 1..40 {
            let cur = b.add_node(&format!("n{i}"));
            b.add_edge(prev, cur).unwrap();
            prev = cur;
        }
        let h = b.build().unwrap();
        let row = h.segment_index().ancestors(prev);
        assert_eq!(row.len(), 40);
        assert_eq!(row[0], (h.root(), 39));
        assert_matches_dense(&h);
    }

    #[test]
    fn duplicate_parent_listings_keep_exact_distances() {
        // A malformed hierarchy listing the same edge twice (the
        // `subgraph` regression class): the doubled parent entry must not
        // double a row entry or skew a distance.
        let mut b = HierarchyBuilder::new();
        let r = b.add_node("r");
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.add_edge(r, a).unwrap();
        b.add_edge(a, c).unwrap();
        let mut h = b.build().unwrap();
        h.inject_duplicate_edge(r, a);
        let idx = h.segment_index();
        assert_eq!(idx.ancestors(a), [(r, 1), (a, 0)]);
        assert_eq!(idx.ancestors(c), [(r, 2), (a, 1), (c, 0)]);
        assert_matches_dense(&h);
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
        assert!(h.segment_index().ancestors(c).contains(&(r, 1)));
        assert_matches_dense(&h);
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
    fn segment_index_stands_up_without_per_node_work() {
        let h = seeded_dag(10_000);
        let idx = h.segment_index();
        assert_eq!(idx.memo_footprint(), (0, 0), "no row is filled");
        assert!(
            idx.entry_weight() <= h.node_count() / MEMO_CHUNK + 1,
            "one chunk slot per {MEMO_CHUNK} nodes, no per-node array: {}",
            idx.entry_weight()
        );
    }

    #[test]
    fn seeded_dag_rows_equal_dense_rows_exactly() {
        // Same order, same distances: the memo row is the dense row.
        let h = seeded_dag(10_000);
        let idx = h.segment_index();
        let dense = h.ancestor_index();
        assert_matches_dense(&h);
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
        let idx = h.segment_index();
        let dense = h.ancestor_index();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let h = &h;
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
    fn clones_start_with_an_empty_memo() {
        let h = seeded_dag(10_000);
        let dense = h.ancestor_index();
        let probe: Vec<NodeId> = h.nodes().step_by(7).collect();
        for &n in &probe {
            h.segment_index().ancestors(n);
        }
        assert_eq!(h.segment_index().memo_footprint().0, probe.len());

        let cloned = h.clone();
        assert_eq!(cloned.segment_index().memo_footprint(), (0, 0));
        for n in h.nodes() {
            let want = dense.ancestors(n);
            assert_eq!(h.segment_index().ancestors(n), want, "{n:?}");
            assert_eq!(cloned.segment_index().ancestors(n), want, "{n:?}");
        }
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
