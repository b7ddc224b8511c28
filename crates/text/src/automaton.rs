//! A multi-pattern matching automaton over interned token IDs.
//!
//! Aho-Corasick with failure links, specialized to the `u32` token-ID
//! alphabet the interner produces. One pass over a sentence touches every
//! occurrence of every pattern; the scan then keeps, at each position, the
//! longest pattern starting there and emits non-overlapping matches
//! exactly like [`Trie::scan`](crate::Trie::scan) — that equivalence is
//! what lets the interned matcher stand in for the trie-walking oracle.

use std::collections::{BTreeMap, VecDeque};

/// An immutable Aho-Corasick automaton whose patterns are `u32` sequences
/// carrying a payload of type `T` (the last insert for a given pattern
/// wins, mirroring [`Trie::insert`](crate::Trie::insert)).
#[derive(Debug, Clone)]
pub struct IdAutomaton<T> {
    /// The root's goto function as a dense row indexed by token ID: a
    /// step from the root is one load. Token IDs past the row (such as
    /// per-item IDs beyond the shared vocabulary) go to the root. Its
    /// length is one past the largest token that starts a pattern, so
    /// the row is sized for dense interner IDs.
    root: Vec<u32>,
    /// Goto transitions of every other state, sorted by token ID for
    /// binary search (the root's entry is empty).
    trans: Vec<Vec<(u32, u32)>>,
    /// Failure link per state (longest proper suffix that is a prefix).
    fail: Vec<u32>,
    /// Patterns ending at each state, as `(pattern len, payload index)` —
    /// the state's own terminal first, then its failure chain's.
    out: Vec<Vec<(u32, u32)>>,
    payloads: Vec<T>,
    patterns: usize,
}

impl<T: Clone> IdAutomaton<T> {
    /// Build the automaton from `(pattern, payload)` pairs. Empty
    /// patterns are ignored; duplicate patterns keep the last payload.
    pub fn build(patterns: impl IntoIterator<Item = (Vec<u32>, T)>) -> Self {
        let mut children: Vec<BTreeMap<u32, u32>> = vec![BTreeMap::new()];
        let mut terminal: Vec<Option<u32>> = vec![None];
        let mut depth: Vec<u32> = vec![0];
        let mut payloads: Vec<T> = Vec::new();
        let mut count = 0usize;
        for (pat, payload) in patterns {
            if pat.is_empty() {
                continue;
            }
            let mut cur = 0usize;
            for &tok in &pat {
                cur = match children[cur].get(&tok) {
                    Some(&next) => next as usize,
                    None => {
                        let next = children.len() as u32;
                        children.push(BTreeMap::new());
                        terminal.push(None);
                        depth.push(depth[cur] + 1);
                        children[cur].insert(tok, next);
                        next as usize
                    }
                };
            }
            if terminal[cur].is_none() {
                count += 1;
            }
            let idx = payloads.len() as u32;
            payloads.push(payload);
            terminal[cur] = Some(idx);
        }

        // BFS failure links; out[s] is finalized before any deeper state
        // reads it (fail links always point to shallower states).
        let n = children.len();
        let mut fail = vec![0u32; n];
        let mut out: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        let mut queue: VecDeque<u32> = children[0].values().copied().collect();
        while let Some(s) = queue.pop_front() {
            let s = s as usize;
            let mut o = Vec::new();
            if let Some(p) = terminal[s] {
                o.push((depth[s], p));
            }
            o.extend_from_slice(&out[fail[s] as usize]);
            out[s] = o;
            for (&tok, &child) in &children[s] {
                let mut f = fail[s];
                let nf = loop {
                    if let Some(&next) = children[f as usize].get(&tok) {
                        break next;
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = fail[f as usize];
                };
                fail[child as usize] = nf;
                queue.push_back(child);
            }
        }

        let mut trans: Vec<Vec<(u32, u32)>> = children
            .into_iter()
            .map(|m| m.into_iter().collect())
            .collect();
        let first = std::mem::take(&mut trans[0]);
        let mut root = vec![0u32; first.last().map_or(0, |&(tok, _)| tok as usize + 1)];
        for (tok, next) in first {
            root[tok as usize] = next;
        }

        IdAutomaton {
            root,
            trans,
            fail,
            out,
            payloads,
            patterns: count,
        }
    }

    /// Follow the goto/failure functions from state `s` on token `tok`.
    fn step(&self, mut s: u32, tok: u32) -> u32 {
        while s != 0 {
            let row = &self.trans[s as usize];
            if let Ok(i) = row.binary_search_by_key(&tok, |&(t, _)| t) {
                return row[i].1;
            }
            s = self.fail[s as usize];
        }
        self.root.get(tok as usize).copied().unwrap_or(0)
    }

    /// Scan `ids`, pushing non-overlapping longest matches as
    /// `(start, len, payload)` into `matches` (cleared first). Semantics
    /// are identical to `Trie::scan`: the longest pattern starting at
    /// position `i` wins and the scan resumes at `i + len`.
    ///
    /// `best` is caller-provided scratch (longest match per start
    /// position) so repeated scans allocate nothing at steady state.
    pub fn scan_into(
        &self,
        ids: &[u32],
        best: &mut Vec<(u32, u32)>,
        matches: &mut Vec<(usize, usize, T)>,
    ) {
        matches.clear();
        best.clear();
        best.resize(ids.len(), (0, 0));
        let mut s = 0u32;
        for (j, &tok) in ids.iter().enumerate() {
            s = self.step(s, tok);
            for &(len, pidx) in &self.out[s as usize] {
                let slot = &mut best[j + 1 - len as usize];
                if len > slot.0 {
                    *slot = (len, pidx);
                }
            }
        }
        let mut i = 0;
        while i < ids.len() {
            let (len, pidx) = best[i];
            if len > 0 {
                matches.push((i, len as usize, self.payloads[pidx as usize].clone()));
                i += len as usize;
            } else {
                i += 1;
            }
        }
    }

    /// Number of automaton states (including the root).
    pub fn num_states(&self) -> usize {
        self.trans.len()
    }

    /// Number of distinct stored patterns.
    pub fn pattern_count(&self) -> usize {
        self.patterns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trie;

    /// Run both the automaton and the reference trie over the same
    /// ID stream (rendered as strings for the trie) and compare.
    fn check(patterns: &[(&[u32], u32)], text: &[u32]) {
        let auto = IdAutomaton::build(
            patterns
                .iter()
                .map(|&(pat, payload)| (pat.to_vec(), payload)),
        );
        let mut trie = Trie::new();
        for &(pat, payload) in patterns {
            let strs: Vec<String> = pat.iter().map(|t| format!("t{t}")).collect();
            trie.insert(&strs, payload);
        }
        let text_strs: Vec<String> = text.iter().map(|t| format!("t{t}")).collect();
        let expected = trie.scan(&text_strs);
        let mut best = Vec::new();
        let mut got = Vec::new();
        auto.scan_into(text, &mut best, &mut got);
        assert_eq!(got, expected, "patterns {patterns:?} text {text:?}");
    }

    #[test]
    fn longest_match_beats_shared_prefix() {
        check(
            &[(&[1], 10), (&[1, 2], 11), (&[1, 2, 3], 12)],
            &[0, 1, 2, 3],
        );
        check(&[(&[1], 10), (&[1, 2], 11), (&[1, 2, 3], 12)], &[1, 2, 9]);
        check(&[(&[1], 10), (&[1, 2], 11)], &[1, 1, 2, 1]);
    }

    #[test]
    fn non_overlapping_resume_after_match() {
        // After consuming [1,2] at 0, the [2,3] occurrence inside it must
        // not fire, exactly like the trie's jump-past-the-match scan.
        check(&[(&[1, 2], 1), (&[2, 3], 2)], &[1, 2, 3, 4]);
        check(&[(&[1, 2], 1), (&[2, 3], 2)], &[0, 2, 3, 4]);
    }

    #[test]
    fn suffix_pattern_found_via_failure_links() {
        // [5,6,7] is not a pattern, but its suffix [6,7] is.
        check(&[(&[6, 7], 3), (&[5, 6, 9], 4)], &[5, 6, 7]);
    }

    #[test]
    fn tokens_past_the_root_row_restart_at_the_root() {
        // The dense root row ends at token 3; larger IDs (per-item local
        // words) must behave like any token with no pattern.
        check(
            &[(&[1, 2], 1), (&[3], 2)],
            &[9, 1, 2, 1_000_000, 3, 1, 70_000, 2],
        );
        check(&[(&[1, 2], 1), (&[2, 9], 2)], &[1, 2, 9, u32::MAX, 2, 9]);
    }

    #[test]
    fn last_insert_wins_like_trie() {
        check(&[(&[4], 1), (&[4], 2)], &[4, 4]);
    }

    #[test]
    fn empty_patterns_and_text() {
        let auto: IdAutomaton<u32> = IdAutomaton::build(vec![(vec![], 9), (vec![1], 5)]);
        assert_eq!(auto.pattern_count(), 1);
        let mut best = Vec::new();
        let mut got = Vec::new();
        auto.scan_into(&[], &mut best, &mut got);
        assert!(got.is_empty());
    }

    #[test]
    fn repeated_token_patterns() {
        check(&[(&[1, 1], 7), (&[1, 1, 1], 8)], &[1, 1, 1, 1, 1]);
        check(&[(&[2], 1), (&[2, 2], 2)], &[2, 2, 2]);
    }

    #[test]
    fn randomized_agreement_with_trie() {
        // Deterministic LCG sweep over small alphabets so dense overlap,
        // shared prefixes and suffix hits all occur.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for round in 0..200 {
            let alphabet = 2 + next(4) as u32;
            let n_pats = 1 + next(6) as usize;
            let mut pats: Vec<(Vec<u32>, u32)> = Vec::new();
            for p in 0..n_pats {
                let len = 1 + next(4) as usize;
                let pat: Vec<u32> = (0..len).map(|_| next(u64::from(alphabet)) as u32).collect();
                pats.push((pat, (round * 10 + p) as u32));
            }
            let text: Vec<u32> = (0..next(30) as usize)
                .map(|_| next(u64::from(alphabet)) as u32)
                .collect();
            let refs: Vec<(&[u32], u32)> = pats.iter().map(|(p, v)| (p.as_slice(), *v)).collect();
            check(&refs, &text);
        }
    }
}
