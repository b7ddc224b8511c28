//! Validated incremental construction of [`Hierarchy`] values.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::{Hierarchy, NodeId, OntologyError};

/// Builds a [`Hierarchy`] node by node, validating the rooted-DAG
/// invariants on [`HierarchyBuilder::build`]:
///
/// * at least one node;
/// * exactly one node without parents (the root);
/// * no directed cycles;
/// * every node reachable from the root;
/// * no duplicate node names or duplicate edges.
///
/// Edges accumulate in one flat arena (duplicates caught by a hash set),
/// and [`build`](Self::build) freezes adjacency into CSR arrays in a
/// single counting pass — no per-node `Vec` is ever allocated, so adding
/// a node or edge is amortized `O(1)` allocations at SNOMED scale (pinned
/// by the `hot_loop_allocations` integration test).
#[derive(Default, Debug, Clone)]
pub struct HierarchyBuilder {
    names: Vec<String>,
    terms: Vec<Vec<String>>,
    edges: Vec<(NodeId, NodeId)>,
    edge_set: HashSet<(u32, u32)>,
    by_name: HashMap<String, NodeId>,
    duplicate_name: Option<String>,
}

impl HierarchyBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a concept node; its canonical name doubles as its first surface
    /// term. Duplicate names are reported by [`build`](Self::build).
    pub fn add_node(&mut self, name: &str) -> NodeId {
        self.add_node_with_terms(name, std::slice::from_ref(&name))
    }

    /// Add a concept node with an explicit surface-term lexicon (used by
    /// the concept matcher). The canonical name is added as a term if not
    /// already present.
    pub fn add_node_with_terms<S: AsRef<str>>(&mut self, name: &str, terms: &[S]) -> NodeId {
        let id = NodeId(self.names.len() as u32);
        if self.by_name.insert(name.to_owned(), id).is_some() && self.duplicate_name.is_none() {
            self.duplicate_name = Some(name.to_owned());
        }
        self.names.push(name.to_owned());
        let mut ts: Vec<String> = terms.iter().map(|t| t.as_ref().to_owned()).collect();
        if !ts.iter().any(|t| t == name) {
            ts.push(name.to_owned());
        }
        self.terms.push(ts);
        id
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Add a directed edge from a general concept to a more specific one.
    pub fn add_edge(&mut self, parent: NodeId, child: NodeId) -> Result<(), OntologyError> {
        let n = self.names.len();
        if parent.index() >= n || child.index() >= n {
            return Err(OntologyError::UnknownNode);
        }
        if parent == child {
            return Err(OntologyError::SelfLoop(self.names[parent.index()].clone()));
        }
        if !self.edge_set.insert((parent.0, child.0)) {
            return Err(OntologyError::DuplicateEdge {
                parent: self.names[parent.index()].clone(),
                child: self.names[child.index()].clone(),
            });
        }
        self.edges.push((parent, child));
        Ok(())
    }

    /// Convenience: add (or reuse) nodes by name and connect them.
    pub fn add_edge_by_name(&mut self, parent: &str, child: &str) -> Result<(), OntologyError> {
        let p = self.get_or_add(parent);
        let c = self.get_or_add(child);
        self.add_edge(p, c)
    }

    /// Look up a node by name, adding it if absent.
    pub fn get_or_add(&mut self, name: &str) -> NodeId {
        match self.by_name.get(name) {
            Some(&id) => id,
            None => self.add_node(name),
        }
    }

    /// Validate the invariants and freeze into an immutable [`Hierarchy`].
    pub fn build(self) -> Result<Hierarchy, OntologyError> {
        if let Some(name) = self.duplicate_name {
            return Err(OntologyError::DuplicateName(name));
        }
        let n = self.names.len();
        if n == 0 {
            return Err(OntologyError::Empty);
        }

        // Freeze adjacency into CSR arenas: one counting pass, one
        // placement pass, preserving per-node insertion order exactly as
        // the old per-node `Vec` pushes did.
        let mut parent_off = vec![0u32; n + 1];
        let mut child_off = vec![0u32; n + 1];
        for &(p, c) in &self.edges {
            child_off[p.index() + 1] += 1;
            parent_off[c.index() + 1] += 1;
        }
        for i in 0..n {
            child_off[i + 1] += child_off[i];
            parent_off[i + 1] += parent_off[i];
        }
        let mut child_dat = vec![NodeId(0); self.edges.len()];
        let mut parent_dat = vec![NodeId(0); self.edges.len()];
        let mut ccur = child_off.clone();
        let mut pcur = parent_off.clone();
        for &(p, c) in &self.edges {
            child_dat[ccur[p.index()] as usize] = c;
            ccur[p.index()] += 1;
            parent_dat[pcur[c.index()] as usize] = p;
            pcur[c.index()] += 1;
        }

        let roots: Vec<NodeId> = (0..n)
            .filter(|&i| parent_off[i] == parent_off[i + 1])
            .map(|i| NodeId(i as u32))
            .collect();
        let root = match roots.as_slice() {
            [] => return Err(OntologyError::NoRoot),
            [r] => *r,
            many => {
                return Err(OntologyError::MultipleRoots(
                    many.iter().map(|r| self.names[r.index()].clone()).collect(),
                ))
            }
        };

        let children = |u: usize| &child_dat[child_off[u] as usize..child_off[u + 1] as usize];

        // Kahn topological sort detects cycles; BFS from the root computes
        // depths and reachability in one pass.
        let mut indeg: Vec<u32> = (0..n).map(|i| parent_off[i + 1] - parent_off[i]).collect();
        let mut queue: VecDeque<usize> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut visited = 0usize;
        while let Some(u) = queue.pop_front() {
            visited += 1;
            for &c in children(u) {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    queue.push_back(c.index());
                }
            }
        }
        if visited != n {
            return Err(OntologyError::Cycle);
        }

        let mut depth = vec![u32::MAX; n];
        let mut bfs = VecDeque::new();
        depth[root.index()] = 0;
        bfs.push_back(root.index());
        while let Some(u) = bfs.pop_front() {
            for &c in children(u) {
                if depth[c.index()] == u32::MAX {
                    depth[c.index()] = depth[u] + 1;
                    bfs.push_back(c.index());
                }
            }
        }
        if let Some(i) = depth.iter().position(|&d| d == u32::MAX) {
            return Err(OntologyError::Unreachable(self.names[i].clone()));
        }

        Ok(Hierarchy {
            names: self.names,
            terms: self.terms,
            parent_off,
            parent_dat,
            child_off,
            child_dat,
            edge_list: self.edges,
            root,
            depth,
            by_name: self.by_name,
            ancestor_index: std::sync::OnceLock::new(),
            rows: std::sync::OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            HierarchyBuilder::new().build(),
            Err(OntologyError::Empty)
        ));
    }

    #[test]
    fn rejects_cycles() {
        // A 2-cycle hanging off a root still has a unique root but cycles.
        let mut b = HierarchyBuilder::new();
        let r = b.add_node("r");
        let x = b.add_node("x");
        let y = b.add_node("y");
        b.add_edge(r, x).unwrap();
        b.add_edge(x, y).unwrap();
        b.add_edge(y, x).unwrap();
        assert!(matches!(b.build(), Err(OntologyError::Cycle)));
    }

    #[test]
    fn rejects_multiple_roots() {
        let mut b = HierarchyBuilder::new();
        let r1 = b.add_node("r1");
        let _r2 = b.add_node("r2");
        let c = b.add_node("c");
        b.add_edge(r1, c).unwrap();
        match b.build() {
            Err(OntologyError::MultipleRoots(names)) => {
                assert_eq!(names, vec!["r1".to_owned(), "r2".to_owned()]);
            }
            other => panic!("expected MultipleRoots, got {other:?}"),
        }
    }

    #[test]
    fn rejects_self_loop_and_duplicate_edge() {
        let mut b = HierarchyBuilder::new();
        let r = b.add_node("r");
        let c = b.add_node("c");
        assert!(matches!(b.add_edge(r, r), Err(OntologyError::SelfLoop(_))));
        b.add_edge(r, c).unwrap();
        assert!(matches!(
            b.add_edge(r, c),
            Err(OntologyError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut b = HierarchyBuilder::new();
        let r = b.add_node("r");
        let c1 = b.add_node("c");
        let c2 = b.add_node("c");
        b.add_edge(r, c1).unwrap();
        b.add_edge(r, c2).unwrap();
        assert!(matches!(b.build(), Err(OntologyError::DuplicateName(_))));
    }

    #[test]
    fn add_edge_by_name_builds_incrementally() {
        let mut b = HierarchyBuilder::new();
        b.add_edge_by_name("phone", "battery").unwrap();
        b.add_edge_by_name("phone", "screen").unwrap();
        b.add_edge_by_name("screen", "resolution").unwrap();
        let h = b.build().unwrap();
        assert_eq!(h.node_count(), 4);
        assert_eq!(h.name(h.root()), "phone");
        let res = h.node_by_name("resolution").unwrap();
        assert_eq!(h.depth(res), 2);
    }

    #[test]
    fn terms_include_canonical_name() {
        let mut b = HierarchyBuilder::new();
        let n = b.add_node_with_terms("display", &["screen", "lcd"]);
        let r = b.add_node("r");
        b.add_edge(r, n).unwrap();
        let h = b.build().unwrap();
        let terms = h.terms(n);
        assert!(terms.contains(&"screen".to_owned()));
        assert!(terms.contains(&"display".to_owned()));
    }

    #[test]
    fn unknown_node_edge_rejected() {
        let mut b = HierarchyBuilder::new();
        let r = b.add_node("r");
        assert!(matches!(
            b.add_edge(r, NodeId(42)),
            Err(OntologyError::UnknownNode)
        ));
    }
}
