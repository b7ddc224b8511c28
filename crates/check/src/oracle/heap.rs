//! An indexed binary max-heap with decrease-key, backing the eager
//! Algorithm 2 oracle.

/// Max-heap over items `0..n` keyed by `u64` gains, supporting
/// `decrease_key` in `O(log n)` — exactly what the greedy algorithm's
/// two-hop updates need (submodularity means keys only ever decrease).
///
/// Ties are broken deterministically by the *smallest* item id, so
/// `pop_max` defines a total order. The production (CELF) greedy uses the
/// same tie-break, which is what makes it select byte-identically to the
/// eager oracle instead of agreeing only "up to ties".
#[derive(Debug, Clone)]
pub struct IndexedMaxHeap {
    /// Heap array of item ids.
    heap: Vec<u32>,
    /// `pos[item]` = index in `heap`, or `usize::MAX` when removed.
    pos: Vec<usize>,
    /// Current key per item (valid while the item is in the heap).
    keys: Vec<u64>,
}

const REMOVED: usize = usize::MAX;

impl IndexedMaxHeap {
    /// Build a heap over items `0..keys.len()` in `O(n)`.
    pub fn new(keys: Vec<u64>) -> Self {
        let n = keys.len();
        let mut h = IndexedMaxHeap {
            heap: (0..n as u32).collect(),
            pos: (0..n).collect(),
            keys,
        };
        for i in (0..n / 2).rev() {
            h.sift_down(i);
        }
        h
    }

    /// Number of items still in the heap.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the heap empty?
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Is `item` still in the heap?
    pub fn contains(&self, item: u32) -> bool {
        self.pos[item as usize] != REMOVED
    }

    /// Current key of `item` (meaningful only while it is in the heap).
    pub fn key(&self, item: u32) -> u64 {
        self.keys[item as usize]
    }

    /// Does `a` order before `b`? Larger key first, smaller id on ties.
    fn beats(&self, a: u32, b: u32) -> bool {
        let (ka, kb) = (self.keys[a as usize], self.keys[b as usize]);
        ka > kb || (ka == kb && a < b)
    }

    /// Remove and return the item with the largest key (smallest id on
    /// ties).
    pub fn pop_max(&mut self) -> Option<(u32, u64)> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let key = self.keys[top as usize];
        let last = self.heap.pop().expect("non-empty");
        self.pos[top as usize] = REMOVED;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some((top, key))
    }

    /// Lower `item`'s key to `new_key`. No-op if the item was removed or
    /// the key is not actually lower.
    pub fn decrease_key(&mut self, item: u32, new_key: u64) {
        let p = self.pos[item as usize];
        if p == REMOVED || new_key >= self.keys[item as usize] {
            return;
        }
        self.keys[item as usize] = new_key;
        self.sift_down(p);
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut largest = i;
            if l < n && self.beats(self.heap[l], self.heap[largest]) {
                largest = l;
            }
            if r < n && self.beats(self.heap[r], self.heap[largest]) {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.heap.swap(i, largest);
            self.pos[self.heap[i] as usize] = i;
            self.pos[self.heap[largest] as usize] = largest;
            i = largest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_descending_order() {
        let mut h = IndexedMaxHeap::new(vec![3, 1, 4, 1, 5, 9, 2, 6]);
        let mut out = Vec::new();
        while let Some((_, k)) = h.pop_max() {
            out.push(k);
        }
        assert_eq!(out, vec![9, 6, 5, 4, 3, 2, 1, 1]);
    }

    #[test]
    fn decrease_key_reorders() {
        let mut h = IndexedMaxHeap::new(vec![10, 20, 30]);
        h.decrease_key(2, 5);
        assert_eq!(h.pop_max(), Some((1, 20)));
        assert_eq!(h.pop_max(), Some((0, 10)));
        assert_eq!(h.pop_max(), Some((2, 5)));
        assert!(h.pop_max().is_none());
    }

    #[test]
    fn decrease_on_removed_item_is_noop() {
        let mut h = IndexedMaxHeap::new(vec![1, 2]);
        let (top, _) = h.pop_max().unwrap();
        assert_eq!(top, 1);
        assert!(!h.contains(1));
        h.decrease_key(1, 0); // must not panic or corrupt
        assert_eq!(h.pop_max(), Some((0, 1)));
    }

    #[test]
    fn increase_attempt_is_ignored() {
        let mut h = IndexedMaxHeap::new(vec![5, 7]);
        h.decrease_key(0, 100); // not a decrease → ignored
        assert_eq!(h.pop_max(), Some((1, 7)));
        assert_eq!(h.pop_max(), Some((0, 5)));
    }

    #[test]
    fn contains_and_len_track_state() {
        let mut h = IndexedMaxHeap::new(vec![1, 2, 3]);
        assert_eq!(h.len(), 3);
        assert!(h.contains(0) && h.contains(1) && h.contains(2));
        h.pop_max();
        assert_eq!(h.len(), 2);
        assert!(!h.contains(2));
        assert!(!h.is_empty());
    }

    #[test]
    fn empty_heap_pops_nothing() {
        let mut h = IndexedMaxHeap::new(Vec::new());
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.pop_max(), None);
        // Popping an already-empty heap stays a no-op forever.
        assert_eq!(h.pop_max(), None);
    }

    #[test]
    fn pop_after_exhaustion_keeps_returning_none() {
        let mut h = IndexedMaxHeap::new(vec![4, 2]);
        assert!(h.pop_max().is_some());
        assert!(h.pop_max().is_some());
        for _ in 0..3 {
            assert_eq!(h.pop_max(), None);
        }
        assert!(!h.contains(0) && !h.contains(1));
    }

    #[test]
    fn equal_keys_pop_in_ascending_id_order() {
        let mut h = IndexedMaxHeap::new(vec![7; 5]);
        let mut items: Vec<u32> = Vec::new();
        while let Some((item, key)) = h.pop_max() {
            assert_eq!(key, 7);
            items.push(item);
        }
        // The id tie-break makes the pop order total, not just the set.
        assert_eq!(items, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ties_after_decrease_key_still_pop_smallest_id_first() {
        // 1 and 3 end tied at 8; the smaller id must surface first.
        let mut h = IndexedMaxHeap::new(vec![2, 9, 5, 8]);
        h.decrease_key(1, 8);
        assert_eq!(h.pop_max(), Some((1, 8)));
        assert_eq!(h.pop_max(), Some((3, 8)));
        assert_eq!(h.pop_max(), Some((2, 5)));
        assert_eq!(h.pop_max(), Some((0, 2)));
    }

    #[test]
    fn decrease_to_zero_sinks_to_the_bottom() {
        let mut h = IndexedMaxHeap::new(vec![9, 5, 3]);
        h.decrease_key(0, 0);
        assert_eq!(h.key(0), 0);
        assert_eq!(h.pop_max(), Some((1, 5)));
        assert_eq!(h.pop_max(), Some((2, 3)));
        // The zeroed item comes out last but is never lost.
        assert_eq!(h.pop_max(), Some((0, 0)));
        assert_eq!(h.pop_max(), None);
    }

    #[test]
    fn many_random_like_operations_stay_consistent() {
        // Deterministic pseudo-random workload cross-checked against a
        // naive reference.
        let n = 64u32;
        let mut keys: Vec<u64> = (0..n).map(|i| u64::from((i * 37) % 101)).collect();
        let mut h = IndexedMaxHeap::new(keys.clone());
        let mut alive: Vec<bool> = vec![true; n as usize];
        let mut state = 12345u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..200 {
            if rand() % 3 == 0 {
                // Reference max.
                let expect = alive
                    .iter()
                    .enumerate()
                    .filter(|&(_, &a)| a)
                    .map(|(i, _)| keys[i])
                    .max();
                match (h.pop_max(), expect) {
                    (Some((item, k)), Some(mk)) => {
                        assert_eq!(k, mk);
                        alive[item as usize] = false;
                    }
                    (None, None) => {}
                    other => panic!("mismatch: {other:?}"),
                }
            } else {
                let item = (rand() % u64::from(n)) as u32;
                if alive[item as usize] {
                    let nk = keys[item as usize].saturating_sub(rand() % 10);
                    h.decrease_key(item, nk);
                    if nk < keys[item as usize] {
                        keys[item as usize] = nk;
                    }
                }
            }
        }
    }
}
