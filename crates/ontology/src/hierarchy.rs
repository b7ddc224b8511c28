//! The immutable rooted-DAG hierarchy and its query operations.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::OnceLock;

use crate::segment::RowMemo;
use crate::{AncestorIndex, AncestorScratch, SegmentIndex};

/// Identifier of a concept node inside a [`Hierarchy`].
///
/// Node ids are dense indices (`0..node_count`), so they can be used to
/// index per-node side tables without hashing. They are only meaningful
/// with respect to the hierarchy that created them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct a `NodeId` from a raw index.
    ///
    /// Useful when reading ids back from serialized experiment output;
    /// passing an out-of-range index to hierarchy methods panics.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index exceeds u32 range"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An immutable concept hierarchy: a DAG with a single root, where edges
/// point from general to specific concepts.
///
/// Construct one with [`HierarchyBuilder`](crate::HierarchyBuilder) or load
/// one with [`io::from_json`](crate::io::from_json). All query methods are
/// `O(reachable subgraph)` or better and never allocate more than their
/// output.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    pub(crate) names: Vec<String>,
    pub(crate) terms: Vec<Vec<String>>,
    /// Adjacency as CSR arenas (offsets + one flat entry array per
    /// direction) instead of per-node `Vec`s: construction allocates a
    /// constant number of arrays regardless of node count, and slice
    /// access stays `O(1)`.
    pub(crate) parent_off: Vec<u32>,
    pub(crate) parent_dat: Vec<NodeId>,
    pub(crate) child_off: Vec<u32>,
    pub(crate) child_dat: Vec<NodeId>,
    /// The original edge insertion sequence, retained verbatim from the
    /// builder. Replaying it through a fresh builder reproduces this
    /// hierarchy bit for bit (CSR row orders included) — the contract
    /// artifact serialization relies on.
    pub(crate) edge_list: Vec<(NodeId, NodeId)>,
    pub(crate) root: NodeId,
    /// Shortest directed distance from the root, per node.
    pub(crate) depth: Vec<u32>,
    pub(crate) by_name: HashMap<String, NodeId>,
    /// Lazily built ancestor-closure index (see [`AncestorIndex`]).
    /// Computed at most once per hierarchy; cloning clones the cache.
    pub(crate) ancestor_index: OnceLock<AncestorIndex>,
    /// Lazily created memo of ancestor rows (see [`SegmentIndex`]).
    /// Cloning gives the clone an empty memo.
    pub(crate) rows: OnceLock<RowMemo>,
}

impl Hierarchy {
    /// Number of concept nodes (including the root).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// The unique root concept.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Canonical name of a node.
    #[inline]
    pub fn name(&self, n: NodeId) -> &str {
        &self.names[n.index()]
    }

    /// Surface terms (lexicon entries) attached to a node. Always contains
    /// at least the canonical name unless explicitly cleared by a builder.
    #[inline]
    pub fn terms(&self, n: NodeId) -> &[String] {
        &self.terms[n.index()]
    }

    /// Look a node up by its canonical name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Direct parents (more general concepts) of a node.
    #[inline]
    pub fn parents(&self, n: NodeId) -> &[NodeId] {
        let i = n.index();
        &self.parent_dat[self.parent_off[i] as usize..self.parent_off[i + 1] as usize]
    }

    /// Direct children (more specific concepts) of a node.
    #[inline]
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        let i = n.index();
        &self.child_dat[self.child_off[i] as usize..self.child_off[i + 1] as usize]
    }

    /// Shortest directed distance from the root to `n`, in edges.
    #[inline]
    pub fn depth(&self, n: NodeId) -> u32 {
        self.depth[n.index()]
    }

    /// Maximum node depth (the `Δ` of the paper's Theorem 4).
    pub fn max_depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Iterate over all node ids in dense order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.names.len() as u32).map(NodeId)
    }

    /// Is `a` an ancestor of `b`? Every node is an ancestor of itself
    /// (distance 0), matching the paper's coverage semantics where a pair
    /// covers pairs on the *same* concept.
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        self.dist_up(b, a).is_some()
    }

    /// Shortest directed path length from `a` down to `b`, or `None` if
    /// `a` is not an ancestor of `b`. `dist_down(n, n) == Some(0)`.
    pub fn dist_down(&self, a: NodeId, b: NodeId) -> Option<u32> {
        self.dist_up(b, a)
    }

    /// Shortest path length walking *up* (child-to-parent) from `from` to
    /// `to`. Equivalent to `dist_down(to, from)`.
    pub fn dist_up(&self, from: NodeId, to: NodeId) -> Option<u32> {
        if from == to {
            return Some(0);
        }
        // Upward BFS; the ancestor set is typically tiny, so a HashMap of
        // visited distances beats a dense array over the whole hierarchy.
        let mut seen: HashMap<NodeId, u32> = HashMap::new();
        let mut queue = VecDeque::new();
        seen.insert(from, 0);
        queue.push_back(from);
        while let Some(n) = queue.pop_front() {
            let d = seen[&n];
            for &p in self.parents(n) {
                if p == to {
                    return Some(d + 1);
                }
                if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(p) {
                    e.insert(d + 1);
                    queue.push_back(p);
                }
            }
        }
        None
    }

    /// All ancestors of `n` (including `n` itself at distance 0) together
    /// with the shortest directed path length from the ancestor *down* to
    /// `n`.
    ///
    /// This is the workhorse of the paper's Section 4.1 initialization
    /// phase: for each concept-sentiment pair we walk the ancestors of its
    /// concept and connect it to candidate pairs bucketed under each
    /// ancestor. Computed with an upward BFS, so distances are exact
    /// shortest paths even in multi-parent DAGs.
    pub fn ancestors_with_dist(&self, n: NodeId) -> Vec<(NodeId, u32)> {
        let mut seen: HashMap<NodeId, u32> = HashMap::new();
        let mut queue = VecDeque::new();
        seen.insert(n, 0);
        queue.push_back(n);
        let mut out = vec![(n, 0)];
        while let Some(cur) = queue.pop_front() {
            let d = seen[&cur];
            for &p in self.parents(cur) {
                if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(p) {
                    e.insert(d + 1);
                    out.push((p, d + 1));
                    queue.push_back(p);
                }
            }
        }
        out
    }

    /// The precomputed ancestor closure of this hierarchy, built on first
    /// use and cached for the hierarchy's lifetime (thread-safe).
    ///
    /// Prefer this over repeated [`ancestors_with_dist`] calls: after the
    /// one-time topological sweep, each query is a slice borrow. This is
    /// what the `osa-core` coverage-graph builder walks per target pair.
    ///
    /// [`ancestors_with_dist`]: Self::ancestors_with_dist
    pub fn ancestor_index(&self) -> &AncestorIndex {
        self.ancestor_index
            .get_or_init(|| AncestorIndex::build(self))
    }

    /// The memoized ancestor rows of this hierarchy (thread-safe). The
    /// memory-sublinear alternative to [`ancestor_index`]: no closure is
    /// ever materialized, each queried node's row is filled on first use
    /// by [`SegmentIndex::ancestors`], and standing the memo up costs one
    /// empty slot per 256 nodes. A cloned hierarchy starts with an empty
    /// memo.
    ///
    /// [`ancestor_index`]: Self::ancestor_index
    pub fn segment_index(&self) -> SegmentIndex<'_> {
        let memo = self.rows.get_or_init(|| RowMemo::new(self.node_count()));
        SegmentIndex::new(self, memo)
    }

    /// [`ancestors_with_dist`](Self::ancestors_with_dist) into
    /// caller-owned buffers: identical output (content *and* BFS
    /// discovery order), but no per-call allocation once `scratch` and
    /// `out` have warmed up. For callers that walk many nodes of the same
    /// hierarchy, [`ancestor_index`](Self::ancestor_index) is faster
    /// still.
    pub fn ancestors_with_dist_into(
        &self,
        n: NodeId,
        scratch: &mut AncestorScratch,
        out: &mut Vec<(NodeId, u32)>,
    ) {
        out.clear();
        let nodes = self.node_count();
        if scratch.dist.len() < nodes {
            scratch.dist.resize(nodes, u32::MAX);
        }
        scratch.queue.clear();
        scratch.touched.clear();
        scratch.dist[n.index()] = 0;
        scratch.touched.push(n.0);
        scratch.queue.push_back(n.0);
        out.push((n, 0));
        while let Some(cur) = scratch.queue.pop_front() {
            let d = scratch.dist[cur as usize];
            for &p in self.parents(NodeId(cur)) {
                if scratch.dist[p.index()] == u32::MAX {
                    scratch.dist[p.index()] = d + 1;
                    scratch.touched.push(p.0);
                    out.push((p, d + 1));
                    scratch.queue.push_back(p.0);
                }
            }
        }
        // Dense table reset via the touched list keeps the walk
        // O(ancestors), independent of the hierarchy size.
        for &t in &scratch.touched {
            scratch.dist[t as usize] = u32::MAX;
        }
    }

    /// All descendants of `n` (including `n` itself at distance 0) with
    /// shortest downward distances, via downward BFS.
    pub fn descendants_with_dist(&self, n: NodeId) -> Vec<(NodeId, u32)> {
        let mut seen: HashMap<NodeId, u32> = HashMap::new();
        let mut queue = VecDeque::new();
        seen.insert(n, 0);
        queue.push_back(n);
        let mut out = vec![(n, 0)];
        while let Some(cur) = queue.pop_front() {
            let d = seen[&cur];
            for &c in self.children(cur) {
                if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(c) {
                    e.insert(d + 1);
                    out.push((c, d + 1));
                    queue.push_back(c);
                }
            }
        }
        out
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.child_dat.len()
    }

    /// The edges in original insertion order. Feeding these (with the
    /// nodes in id order) through a [`HierarchyBuilder`] reconstructs an
    /// identical hierarchy — identical adjacency row orders, hence
    /// identical topological order and downstream summaries. Serializers
    /// must persist this sequence rather than re-deriving edges from the
    /// adjacency.
    ///
    /// [`HierarchyBuilder`]: crate::HierarchyBuilder
    pub fn edge_list(&self) -> &[(NodeId, NodeId)] {
        &self.edge_list
    }

    /// A topological order of the nodes (parents before children).
    pub fn topological_order(&self) -> Vec<NodeId> {
        let n = self.node_count();
        let mut indeg: Vec<usize> = (0..n)
            .map(|i| (self.parent_off[i + 1] - self.parent_off[i]) as usize)
            .collect();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for (i, &d) in indeg.iter().enumerate() {
            if d == 0 {
                queue.push_back(NodeId(i as u32));
            }
        }
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &c in self.children(u) {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    queue.push_back(c);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "hierarchy invariant: acyclic");
        order
    }

    /// Extract the sub-hierarchy rooted at `new_root`: the induced DAG on
    /// `new_root` and all its descendants, as a fresh [`Hierarchy`]
    /// (names and terms preserved). Useful for per-category summaries
    /// ("summarize only the battery opinions").
    pub fn subgraph(&self, new_root: NodeId) -> Hierarchy {
        let keep: Vec<NodeId> = self
            .descendants_with_dist(new_root)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let mut b = crate::HierarchyBuilder::new();
        let mut map: HashMap<NodeId, NodeId> = HashMap::new();
        for &n in &keep {
            let id = b.add_node_with_terms(self.name(n), self.terms(n));
            map.insert(n, id);
        }
        let mut seen_children: Vec<NodeId> = Vec::new();
        for &n in &keep {
            // All children of a kept node are descendants of new_root. A
            // malformed children list may repeat an entry; the induced
            // DAG keeps a single edge rather than tripping the builder's
            // duplicate-edge validation.
            seen_children.clear();
            for &c in self.children(n) {
                if seen_children.contains(&c) {
                    continue;
                }
                seen_children.push(c);
                b.add_edge(map[&n], map[&c]).expect("induced edge is fresh");
            }
        }
        b.build()
            .expect("induced subgraph keeps the rooted-DAG invariants")
    }

    /// Render an ASCII tree rooted at the hierarchy root (multi-parent
    /// nodes are printed under each parent; used by the Fig. 3 harness).
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        self.render_rec(self.root, 0, &mut out);
        out
    }

    fn render_rec(&self, n: NodeId, indent: usize, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(out, "{}{}", "  ".repeat(indent), self.name(n));
        let mut kids: Vec<NodeId> = self.children(n).to_vec();
        kids.sort_by(|a, b| self.name(*a).cmp(self.name(*b)));
        for c in kids {
            self.render_rec(c, indent + 1, out);
        }
    }

    /// Test-only: dent the adjacency by listing `parent -> child` a second
    /// time, re-encoding both CSR arenas — the builder rejects duplicate
    /// edges, so regression tests for malformed listings (the PR 3
    /// `subgraph` class) must inject them in-crate.
    #[cfg(test)]
    pub(crate) fn inject_duplicate_edge(&mut self, parent: NodeId, child: NodeId) {
        fn push_row(off: &mut [u32], dat: &mut Vec<NodeId>, at: NodeId, extra: NodeId) {
            let end = off[at.index() + 1] as usize;
            dat.insert(end, extra);
            for o in off.iter_mut().skip(at.index() + 1) {
                *o += 1;
            }
        }
        push_row(&mut self.child_off, &mut self.child_dat, parent, child);
        push_row(&mut self.parent_off, &mut self.parent_dat, child, parent);
        self.edge_list.push((parent, child));
        self.ancestor_index = OnceLock::new();
        self.rows = OnceLock::new();
    }
}

#[cfg(test)]
mod tests {
    use crate::HierarchyBuilder;

    /// A small diamond:        r
    ///                        / \
    ///                       a   b
    ///                        \ / \
    ///                         c   d
    fn diamond() -> (crate::Hierarchy, Vec<crate::NodeId>) {
        let mut b = HierarchyBuilder::new();
        let r = b.add_node("r");
        let a = b.add_node("a");
        let bb = b.add_node("b");
        let c = b.add_node("c");
        let d = b.add_node("d");
        b.add_edge(r, a).unwrap();
        b.add_edge(r, bb).unwrap();
        b.add_edge(a, c).unwrap();
        b.add_edge(bb, c).unwrap();
        b.add_edge(bb, d).unwrap();
        (b.build().unwrap(), vec![r, a, bb, c, d])
    }

    #[test]
    fn self_is_ancestor_at_distance_zero() {
        let (h, ids) = diamond();
        for &n in &ids {
            assert!(h.is_ancestor(n, n));
            assert_eq!(h.dist_down(n, n), Some(0));
        }
    }

    #[test]
    fn diamond_distances() {
        let (h, ids) = diamond();
        let (r, a, b, c, d) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        assert_eq!(h.dist_down(r, c), Some(2));
        assert_eq!(h.dist_down(a, c), Some(1));
        assert_eq!(h.dist_down(b, c), Some(1));
        assert_eq!(h.dist_down(a, d), None);
        assert_eq!(h.dist_down(c, r), None, "distance is directed");
        assert_eq!(h.depth(d), 2);
        assert_eq!(h.depth(c), 2);
        assert_eq!(h.max_depth(), 2);
    }

    #[test]
    fn ancestors_with_dist_takes_shortest_path() {
        // r -> a -> b -> c  and r -> c directly: shortest r..c distance is 1.
        let mut bl = HierarchyBuilder::new();
        let r = bl.add_node("r");
        let a = bl.add_node("a");
        let b = bl.add_node("b");
        let c = bl.add_node("c");
        bl.add_edge(r, a).unwrap();
        bl.add_edge(a, b).unwrap();
        bl.add_edge(b, c).unwrap();
        bl.add_edge(r, c).unwrap();
        let h = bl.build().unwrap();
        let anc = h.ancestors_with_dist(c);
        let dist_of = |n| anc.iter().find(|(m, _)| *m == n).map(|&(_, d)| d);
        assert_eq!(dist_of(r), Some(1));
        assert_eq!(dist_of(b), Some(1));
        assert_eq!(dist_of(a), Some(2));
        assert_eq!(dist_of(c), Some(0));
        assert_eq!(h.depth(c), 1);
    }

    #[test]
    fn descendants_mirror_ancestors() {
        let (h, _) = diamond();
        for n in h.nodes() {
            for (m, d) in h.descendants_with_dist(n) {
                assert_eq!(h.dist_down(n, m), Some(d));
                assert!(h
                    .ancestors_with_dist(m)
                    .iter()
                    .any(|&(x, dd)| x == n && dd == d));
            }
        }
    }

    #[test]
    fn topological_order_is_consistent() {
        let (h, _) = diamond();
        let order = h.topological_order();
        assert_eq!(order.len(), h.node_count());
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for n in h.nodes() {
            for &c in h.children(n) {
                assert!(pos[&n] < pos[&c]);
            }
        }
    }

    #[test]
    fn name_lookup_roundtrip() {
        let (h, ids) = diamond();
        for &n in &ids {
            assert_eq!(h.node_by_name(h.name(n)), Some(n));
        }
        assert_eq!(h.node_by_name("nope"), None);
    }

    #[test]
    fn edge_count_counts_directed_edges() {
        let (h, _) = diamond();
        assert_eq!(h.edge_count(), 5);
    }

    #[test]
    fn subgraph_keeps_descendants_and_structure() {
        let (h, ids) = diamond();
        let b = ids[2];
        let sub = h.subgraph(b);
        assert_eq!(sub.node_count(), 3); // b, c, d
        assert_eq!(sub.name(sub.root()), "b");
        let c2 = sub.node_by_name("c").unwrap();
        let d2 = sub.node_by_name("d").unwrap();
        assert_eq!(sub.depth(c2), 1);
        assert_eq!(sub.depth(d2), 1);
        assert!(sub.node_by_name("a").is_none());
    }

    #[test]
    fn subgraph_of_root_is_whole_hierarchy() {
        let (h, _) = diamond();
        let sub = h.subgraph(h.root());
        assert_eq!(sub.node_count(), h.node_count());
        assert_eq!(sub.edge_count(), h.edge_count());
    }

    #[test]
    fn subgraph_dedupes_duplicate_child_listings() {
        // The builder rejects duplicate edges, so dent a valid hierarchy
        // in-crate: list r -> a twice. `subgraph` used to panic on the
        // second induced copy ("induced edge is fresh").
        let mut bl = HierarchyBuilder::new();
        let r = bl.add_node("r");
        let a = bl.add_node("a");
        let c = bl.add_node("c");
        bl.add_edge(r, a).unwrap();
        bl.add_edge(a, c).unwrap();
        let mut h = bl.build().unwrap();
        h.inject_duplicate_edge(r, a);

        let sub = h.subgraph(r);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2, "duplicate listing induces one edge");
        let sub_a = sub.subgraph(sub.node_by_name("a").unwrap());
        assert_eq!(sub_a.node_count(), 2);
    }

    #[test]
    fn subgraph_of_leaf_is_singleton() {
        let (h, ids) = diamond();
        let sub = h.subgraph(ids[4]);
        assert_eq!(sub.node_count(), 1);
        assert_eq!(sub.name(sub.root()), "d");
    }

    #[test]
    fn render_ascii_contains_all_names() {
        let (h, ids) = diamond();
        let s = h.render_ascii();
        for &n in &ids {
            assert!(s.contains(h.name(n)));
        }
    }
}
