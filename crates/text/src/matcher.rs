//! Dictionary-based concept extraction over an ontology's term lexicon —
//! the workspace's MetaMap stand-in.

use osa_ontology::{Hierarchy, NodeId};

use crate::stem::stem;
use crate::trie::Trie;

/// A concept mention found in a token stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConceptMention {
    /// The matched ontology concept.
    pub concept: NodeId,
    /// Token index where the mention starts.
    pub start: usize,
    /// Mention length in tokens.
    pub len: usize,
}

/// Matches ontology concepts in tokenized text via a longest-match trie
/// over every node's surface terms. Terms are matched both verbatim and
/// stem-normalized, so "screens" still finds the "screen" concept.
///
/// The root concept is deliberately excluded: a mention of the item
/// itself ("this phone…") carries no aspect information, and the
/// summarization framework treats the root specially.
#[derive(Debug, Clone)]
pub struct ConceptMatcher {
    exact: Trie<NodeId>,
    stemmed: Trie<NodeId>,
}

impl ConceptMatcher {
    /// Build a matcher from every non-root node's term list.
    pub fn from_hierarchy(h: &Hierarchy) -> Self {
        Self::from_terms(
            h.nodes()
                .filter(|&node| node != h.root())
                .flat_map(|node| h.terms(node).iter().map(move |t| (node, t.as_str()))),
        )
    }

    /// Build a matcher from `(concept, surface term)` pairs; a later
    /// pair with the same term phrase overrides an earlier one.
    pub fn from_terms<'a>(terms: impl IntoIterator<Item = (NodeId, &'a str)>) -> Self {
        let mut exact = Trie::new();
        let mut stemmed = Trie::new();
        for (node, term) in terms {
            let toks = crate::tokenize(term);
            if toks.is_empty() {
                continue;
            }
            let stems: Vec<String> = toks.iter().map(|t| stem(t)).collect();
            exact.insert(&toks, node);
            stemmed.insert(&stems, node);
        }
        ConceptMatcher { exact, stemmed }
    }

    /// Find all non-overlapping concept mentions in a token slice.
    /// Exact-form matches are found first; stem-normalized matching then
    /// fills positions the exact pass left uncovered.
    pub fn find(&self, tokens: &[String]) -> Vec<ConceptMention> {
        let mut mentions: Vec<ConceptMention> = self
            .exact
            .scan(tokens)
            .into_iter()
            .map(|(start, len, concept)| ConceptMention {
                concept,
                start,
                len,
            })
            .collect();

        // Mark token positions already consumed by exact matches.
        let mut used = vec![false; tokens.len()];
        for m in &mentions {
            for u in used.iter_mut().skip(m.start).take(m.len) {
                *u = true;
            }
        }
        let stems: Vec<String> = tokens.iter().map(|t| stem(t)).collect();
        for (start, len, concept) in self.stemmed.scan(&stems) {
            if used[start..start + len].iter().any(|&u| u) {
                continue;
            }
            mentions.push(ConceptMention {
                concept,
                start,
                len,
            });
        }
        mentions.sort_by_key(|m| m.start);
        osa_obs::global().add("text.concept_matches", mentions.len() as u64);
        mentions
    }

    /// Convenience: tokenize a raw sentence and find mentions.
    pub fn find_in_sentence(&self, sentence: &str) -> Vec<ConceptMention> {
        self.find(&crate::tokenize(sentence))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_ontology::HierarchyBuilder;

    fn phone() -> Hierarchy {
        let mut b = HierarchyBuilder::new();
        let root = b.add_node_with_terms("phone", &["phone", "cellphone"]);
        let screen = b.add_node_with_terms("screen", &["screen", "display"]);
        let color = b.add_node_with_terms("screen color", &["display color", "screen color"]);
        let battery = b.add_node_with_terms("battery", &["battery", "battery life"]);
        b.add_edge(root, screen).unwrap();
        b.add_edge(screen, color).unwrap();
        b.add_edge(root, battery).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn finds_longest_mention() {
        let h = phone();
        let m = ConceptMatcher::from_hierarchy(&h);
        let hits = m.find_in_sentence("The display color is stunning");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].concept, h.node_by_name("screen color").unwrap());
        assert_eq!((hits[0].start, hits[0].len), (1, 2));
    }

    #[test]
    fn root_is_never_matched() {
        let h = phone();
        let m = ConceptMatcher::from_hierarchy(&h);
        assert!(m.find_in_sentence("I love this phone").is_empty());
        assert!(m.find_in_sentence("nice cellphone").is_empty());
    }

    #[test]
    fn stemmed_fallback_matches_plurals() {
        let h = phone();
        let m = ConceptMatcher::from_hierarchy(&h);
        let hits = m.find_in_sentence("the screens are bright");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].concept, h.node_by_name("screen").unwrap());
    }

    #[test]
    fn multiple_mentions_in_order() {
        let h = phone();
        let m = ConceptMatcher::from_hierarchy(&h);
        let hits = m.find_in_sentence("battery life is bad but the screen is great");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].concept, h.node_by_name("battery").unwrap());
        assert_eq!(hits[1].concept, h.node_by_name("screen").unwrap());
        assert!(hits[0].start < hits[1].start);
    }

    #[test]
    fn exact_match_beats_stemmed_overlap() {
        let h = phone();
        let m = ConceptMatcher::from_hierarchy(&h);
        // "battery life" matches exactly (2 tokens); the stemmed pass must
        // not re-report "battery" at the same position.
        let hits = m.find_in_sentence("battery life");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].len, 2);
    }
}
