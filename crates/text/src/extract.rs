//! The interned extraction fast path.
//!
//! [`InternedExtractor`] precompiles everything the per-sentence hot loop
//! needs into integer-indexed tables over one shared token vocabulary:
//!
//! * a [`TokenInterner`] holding every concept-term token, every lexicon
//!   word (opinion entries, stems, negators, intensifiers, downtoners)
//!   and the stem of each — closed under stemming, so each shared ID's
//!   stem is a precomputed shared ID ([`shared stem`] table),
//! * two [`IdAutomaton`]s (exact and stem-normalized concept terms) that
//!   replace the per-position `Trie<String>` walk of
//!   [`ConceptMatcher`](crate::ConceptMatcher), and
//! * dense `Vec`-indexed lexicon tables replacing the per-token
//!   `HashMap<String, f64>` probes of
//!   [`SentimentLexicon::score_tokens`](crate::SentimentLexicon::score_tokens).
//!
//! Out-of-vocabulary review tokens are interned into a per-item local
//! tail kept in [`ExtractScratch`]; their stems are memoized per worker
//! (`stem_memo`, bounded in bytes), so stemming rarely runs twice for
//! the same surface form on a worker. All outputs — mentions,
//! sentiments, token identity — are defined purely by token *string*
//! equality, so they are byte-identical to the naive trie/HashMap oracle
//! regardless of worker count or item order.
//!
//! [`shared stem`]: InternedExtractor::new

use std::collections::HashMap;
use std::ops::Range;

use osa_ontology::{Hierarchy, NodeId};

use crate::automaton::IdAutomaton;
use crate::intern::TokenInterner;
use crate::lexicon::{SentimentLexicon, NEGATION_DAMP, SHIFTER_WINDOW};
use crate::matcher::ConceptMention;
use crate::stem::stem;
use crate::tokenize::{sentence_spans_into, tokenize_into};

/// Sentinel for "stem not yet resolved" in per-item local tables.
const UNRESOLVED: u32 = u32::MAX;

/// Bound on a worker's stem memo, in bytes of words and stems plus
/// [`STEM_MEMO_ENTRY_OVERHEAD`] per entry. Past it the memo is dropped
/// and starts over, so a long-lived worker fed unbounded text (a daemon
/// worker extracting ingested reviews) holds a bounded memo; a corpus
/// vocabulary stays far below it.
const STEM_MEMO_BYTES: usize = 4 << 20;
/// Per-entry cost of the memo beyond its strings: two `String` headers
/// and the map's slot.
const STEM_MEMO_ENTRY_OVERHEAD: usize = 96;

/// Per-worker reusable state for the interned extraction path.
///
/// Holds the sentence and tokenization buffers, the per-item local
/// interner tail for out-of-vocabulary words, automaton scan scratch and
/// the per-item vocabulary remap. Designed to live in a worker's scratch
/// slot: buffers are recycled across items via
/// [`begin_item`](Self::begin_item) (epoch stamping, no O(vocabulary)
/// clearing), and the worker-lifetime stem memo keeps amortizing across
/// items.
#[derive(Debug, Default)]
pub struct ExtractScratch {
    /// Byte ranges of the sentences of the last text passed to
    /// [`split_sentences`](Self::split_sentences).
    sentence_spans: Vec<Range<usize>>,
    // Tokenization: lowercased sentence text + token byte spans.
    text_buf: String,
    spans: Vec<(u32, u32)>,
    /// Interned IDs of the current sentence's tokens.
    token_ids: Vec<u32>,
    /// Interned IDs of each token's stem, parallel to `token_ids`.
    stem_ids: Vec<u32>,
    /// Per-item local interner for out-of-vocabulary words; local index
    /// `l` is global ID `shared_len + l`.
    local: LocalWords,
    /// Worker-lifetime word → stem memo (pure-function cache; survives
    /// across items, which is safe precisely because it is pure). Its
    /// keys are review text, so it keeps std's randomly keyed hasher,
    /// and it restarts empty past [`STEM_MEMO_BYTES`].
    stem_memo: HashMap<String, String>,
    /// What `stem_memo` holds, as counted against [`STEM_MEMO_BYTES`].
    stem_memo_bytes: usize,
    // Automaton scan scratch.
    best: Vec<(u32, u32)>,
    matches: Vec<(usize, usize, NodeId)>,
    used: Vec<bool>,
    mentions: Vec<ConceptMention>,
    // Per-item vocabulary remap: shared IDs are epoch-stamped so nothing
    // vocabulary-sized is cleared between items.
    item_of_shared: Vec<u32>,
    item_epoch_shared: Vec<u64>,
    item_of_local: Vec<u32>,
    epoch: u64,
    stem_hits: u64,
    stem_misses: u64,
    /// The item's `text.tokens`, `text.concept_matches` and
    /// `text.lexicon_hits`, flushed once by
    /// [`finish_item`](Self::finish_item).
    tokens: u64,
    concept_matches: u64,
    lexicon_hits: u64,
}

impl ExtractScratch {
    /// Start a new item: bumps the remap epoch, clears the per-item local
    /// interner and zeroes the item's counters.
    pub fn begin_item(&mut self) {
        self.epoch += 1;
        self.local.clear();
        self.item_of_local.clear();
        self.reset_counts();
    }

    /// Finish an item: flushes the per-item counts (stem-cache hits and
    /// misses, tokens, concept matches, lexicon hits) to the metrics
    /// registry, one registry call each per item rather than per
    /// sentence. The counts are a deterministic function of the item
    /// alone, so their corpus totals are jobs-invariant.
    pub fn finish_item(&mut self) {
        let obs = osa_obs::global();
        obs.add("extract.stem_cache.hits", self.stem_hits);
        obs.add("extract.stem_cache.misses", self.stem_misses);
        obs.add("text.tokens", self.tokens);
        obs.add("text.concept_matches", self.concept_matches);
        obs.add("text.lexicon_hits", self.lexicon_hits);
        self.reset_counts();
    }

    fn reset_counts(&mut self) {
        self.stem_hits = 0;
        self.stem_misses = 0;
        self.tokens = 0;
        self.concept_matches = 0;
        self.lexicon_hits = 0;
    }

    /// Split `text` into sentences exactly as
    /// [`split_sentences`](crate::split_sentences) does, but keep them
    /// as byte ranges of `text` in a reused buffer; returns how many
    /// there are. Read them back with
    /// [`sentence_span`](Self::sentence_span).
    pub fn split_sentences(&mut self, text: &str) -> usize {
        sentence_spans_into(text, &mut self.sentence_spans);
        self.sentence_spans.len()
    }

    /// The byte range of sentence `k` of the last
    /// [`split_sentences`](Self::split_sentences) call.
    pub fn sentence_span(&self, k: usize) -> Range<usize> {
        self.sentence_spans[k].clone()
    }

    /// Number of tokens in the current sentence.
    pub fn num_tokens(&self) -> usize {
        self.token_ids.len()
    }

    /// Global ID of the current sentence's `i`-th token.
    pub fn token_id(&self, i: usize) -> u32 {
        self.token_ids[i]
    }

    /// The mentions found by the last [`InternedExtractor::find`] call.
    pub fn mentions(&self) -> &[ConceptMention] {
        &self.mentions
    }
}

/// The precompiled interned extraction engine. Build once per
/// hierarchy/lexicon (it is read-only and shareable across workers);
/// per-sentence work goes through an [`ExtractScratch`].
#[derive(Debug, Clone)]
pub struct InternedExtractor {
    vocab: TokenInterner,
    shared_len: u32,
    /// `shared_stem[id]` is the shared ID of `stem(resolve(id))`.
    shared_stem: Vec<u32>,
    exact: IdAutomaton<NodeId>,
    stemmed: IdAutomaton<NodeId>,
    word_strength: Vec<Option<f64>>,
    stem_strength: Vec<Option<f64>>,
    negator: Vec<bool>,
    intensifier: Vec<Option<f64>>,
    downtoner: Vec<Option<f64>>,
}

impl InternedExtractor {
    /// Compile the shared vocabulary, concept automatons and lexicon
    /// tables from a hierarchy and lexicon.
    ///
    /// Mirrors [`ConceptMatcher::from_hierarchy`]: the root concept is
    /// excluded, every non-root term is inserted both verbatim and
    /// stem-normalized, and duplicate term phrases keep the last node.
    /// Reports `extract.intern.entries` and `extract.automaton.states`
    /// to the metrics registry (once per build, hence jobs-invariant).
    ///
    /// [`ConceptMatcher::from_hierarchy`]: crate::ConceptMatcher::from_hierarchy
    pub fn new(h: &Hierarchy, lexicon: &SentimentLexicon) -> Self {
        let mut vocab = TokenInterner::new();
        let mut exact_pats: Vec<(Vec<u32>, NodeId)> = Vec::new();
        let mut stem_pats: Vec<(Vec<u32>, NodeId)> = Vec::new();
        for node in h.nodes() {
            if node == h.root() {
                continue;
            }
            for term in h.terms(node) {
                let toks = crate::tokenize(term);
                if toks.is_empty() {
                    continue;
                }
                let ids: Vec<u32> = toks.iter().map(|t| vocab.intern(t)).collect();
                let sids: Vec<u32> = toks.iter().map(|t| vocab.intern(&stem(t))).collect();
                exact_pats.push((ids, node));
                stem_pats.push((sids, node));
            }
        }

        // Intern the whole lexicon vocabulary (sorted for run-to-run
        // stable ID assignment), then record the table entries.
        let words: Vec<(u32, f64)> = lexicon
            .words_sorted()
            .into_iter()
            .map(|(w, s)| (vocab.intern(w), s))
            .collect();
        let stems: Vec<(u32, f64)> = lexicon
            .stems_sorted()
            .into_iter()
            .map(|(w, s)| (vocab.intern(w), s))
            .collect();
        let negators: Vec<u32> = lexicon
            .negator_words()
            .iter()
            .map(|w| vocab.intern(w))
            .collect();
        let intensifiers: Vec<(u32, f64)> = lexicon
            .intensifiers_sorted()
            .into_iter()
            .map(|(w, b)| (vocab.intern(w), b))
            .collect();
        let downtoners: Vec<(u32, f64)> = lexicon
            .downtoners_sorted()
            .into_iter()
            .map(|(w, d)| (vocab.intern(w), d))
            .collect();

        // Close the vocabulary under stemming so every shared ID has a
        // precomputed shared stem ID. Terminates because `stem` either
        // returns its input or something strictly shorter.
        let mut shared_stem: Vec<u32> = Vec::new();
        let mut i = 0u32;
        while (i as usize) < vocab.len() {
            let s = stem(vocab.resolve(i));
            let sid = vocab.intern(&s);
            shared_stem.push(sid);
            i += 1;
        }
        debug_assert_eq!(shared_stem.len(), vocab.len());

        let shared_len = vocab.len() as u32;
        let mut word_strength = vec![None; shared_len as usize];
        for (id, s) in words {
            word_strength[id as usize] = Some(s);
        }
        let mut stem_strength = vec![None; shared_len as usize];
        for (id, s) in stems {
            stem_strength[id as usize] = Some(s);
        }
        let mut negator = vec![false; shared_len as usize];
        for id in negators {
            negator[id as usize] = true;
        }
        let mut intensifier = vec![None; shared_len as usize];
        for (id, b) in intensifiers {
            intensifier[id as usize] = Some(b);
        }
        let mut downtoner = vec![None; shared_len as usize];
        for (id, d) in downtoners {
            downtoner[id as usize] = Some(d);
        }

        let exact = IdAutomaton::build(exact_pats);
        let stemmed = IdAutomaton::build(stem_pats);
        let obs = osa_obs::global();
        obs.add("extract.intern.entries", shared_len.into());
        obs.add(
            "extract.automaton.states",
            (exact.num_states() + stemmed.num_states()) as u64,
        );

        InternedExtractor {
            vocab,
            shared_len,
            shared_stem,
            exact,
            stemmed,
            word_strength,
            stem_strength,
            negator,
            intensifier,
            downtoner,
        }
    }

    /// Size of the shared (build-time) vocabulary.
    pub fn vocab_len(&self) -> usize {
        self.shared_len as usize
    }

    /// Total states across the exact and stemmed automatons.
    pub fn automaton_states(&self) -> usize {
        self.exact.num_states() + self.stemmed.num_states()
    }

    /// Tokenize one sentence into `scratch`, resolving every token to a
    /// global ID (shared, or per-item local for out-of-vocabulary words)
    /// and its stem ID. Shared stems are precomputed; local stems are
    /// computed once per distinct word per item, backed by the worker's
    /// string-level stem memo. The tokens are counted in `scratch` until
    /// [`ExtractScratch::finish_item`].
    pub fn tokenize_sentence(&self, text: &str, scratch: &mut ExtractScratch) {
        let ExtractScratch {
            text_buf,
            spans,
            token_ids,
            stem_ids,
            local,
            stem_memo,
            stem_memo_bytes,
            stem_hits,
            stem_misses,
            tokens,
            ..
        } = scratch;
        tokenize_into(text, text_buf, spans);
        *tokens += spans.len() as u64;
        token_ids.clear();
        stem_ids.clear();
        for &(a, b) in spans.iter() {
            let word = &text_buf[a as usize..b as usize];
            if let Some(id) = self.vocab.get(word) {
                *stem_hits += 1;
                token_ids.push(id);
                stem_ids.push(self.shared_stem[id as usize]);
                continue;
            }
            let lidx = match local.map.get(word) {
                Some(&l) => l,
                None => local.insert(word),
            };
            if local.stem[lidx as usize] == UNRESOLVED {
                *stem_misses += 1;
                if !stem_memo.contains_key(word) {
                    let s = stem(word);
                    let cost = word.len() + s.len() + STEM_MEMO_ENTRY_OVERHEAD;
                    if *stem_memo_bytes + cost > STEM_MEMO_BYTES {
                        *stem_memo = HashMap::new();
                        *stem_memo_bytes = 0;
                    }
                    *stem_memo_bytes += cost;
                    stem_memo.insert(word.to_owned(), s);
                }
                local.stem[lidx as usize] =
                    resolve_or_intern_local(&self.vocab, self.shared_len, local, &stem_memo[word]);
            } else {
                *stem_hits += 1;
            }
            token_ids.push(self.shared_len + lidx);
            stem_ids.push(local.stem[lidx as usize]);
        }
    }

    /// The token text behind a global ID, for the current item.
    pub fn token_str<'a>(&'a self, scratch: &'a ExtractScratch, id: u32) -> &'a str {
        if id < self.shared_len {
            self.vocab.resolve(id)
        } else {
            scratch.local.word((id - self.shared_len) as usize)
        }
    }

    /// Find all non-overlapping concept mentions in the current sentence,
    /// into `scratch.mentions()`. Exact-form matches first, then
    /// stem-normalized matches on positions the exact pass left
    /// uncovered — the same two-pass policy as
    /// [`ConceptMatcher::find`](crate::ConceptMatcher::find). The
    /// mentions are counted in `scratch` until
    /// [`ExtractScratch::finish_item`].
    pub fn find(&self, scratch: &mut ExtractScratch) {
        let ExtractScratch {
            token_ids,
            stem_ids,
            best,
            matches,
            used,
            mentions,
            concept_matches,
            ..
        } = scratch;
        mentions.clear();
        self.exact.scan_into(token_ids, best, matches);
        used.clear();
        used.resize(token_ids.len(), false);
        for &(start, len, concept) in matches.iter() {
            mentions.push(ConceptMention {
                concept,
                start,
                len,
            });
            for u in used.iter_mut().skip(start).take(len) {
                *u = true;
            }
        }
        self.stemmed.scan_into(stem_ids, best, matches);
        for &(start, len, concept) in matches.iter() {
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
        *concept_matches += mentions.len() as u64;
    }

    /// Lexicon-score the current sentence in `[-1, 1]`, bit-identical to
    /// [`SentimentLexicon::score_tokens`] on the same token text (same
    /// lookups, same floating-point operation order). The lexicon hits are
    /// counted in `scratch` until [`ExtractScratch::finish_item`].
    ///
    /// [`SentimentLexicon::score_tokens`]: crate::SentimentLexicon::score_tokens
    pub fn score(&self, scratch: &mut ExtractScratch) -> f64 {
        let ids = &scratch.token_ids;
        let stems = &scratch.stem_ids;
        let mut total = 0.0;
        let mut hits = 0usize;
        for i in 0..ids.len() {
            let Some(base) = self.strength(ids[i], stems[i]) else {
                continue;
            };
            let mut v = base;
            let lo = i.saturating_sub(SHIFTER_WINDOW);
            let mut negated = false;
            let mut scale = 1.0;
            for &p in &ids[lo..i] {
                if table(&self.negator, p) == Some(&true) {
                    negated = !negated;
                } else if let Some(&Some(b)) = table(&self.intensifier, p) {
                    scale *= b;
                } else if let Some(&Some(d)) = table(&self.downtoner, p) {
                    scale *= d;
                }
            }
            v *= scale;
            if negated {
                v = -v * NEGATION_DAMP;
            }
            total += v.clamp(-1.0, 1.0);
            hits += 1;
        }
        scratch.lexicon_hits += hits as u64;
        if hits == 0 {
            0.0
        } else {
            (total / hits as f64).clamp(-1.0, 1.0)
        }
    }

    /// Opinion strength of a token: exact form first, then stem — the
    /// interned mirror of [`SentimentLexicon::word_strength`].
    ///
    /// [`SentimentLexicon::word_strength`]: crate::SentimentLexicon::word_strength
    fn strength(&self, id: u32, stem_id: u32) -> Option<f64> {
        if let Some(&Some(s)) = table(&self.word_strength, id) {
            return Some(s);
        }
        match table(&self.stem_strength, stem_id) {
            Some(&Some(s)) => Some(s),
            _ => None,
        }
    }

    /// Remap the current sentence's global token IDs to per-item IDs and
    /// append them to `ids`, appending first occurrences to the item's
    /// token `pool`. The per-item numbering is first-occurrence order
    /// over the item's token stream — a function of the text alone, so
    /// the naive oracle produces the identical pool and IDs.
    pub fn item_token_ids(
        &self,
        scratch: &mut ExtractScratch,
        pool: &mut Vec<String>,
        ids: &mut Vec<u32>,
    ) {
        self.grow_remap(scratch);
        for k in 0..scratch.token_ids.len() {
            let gid = scratch.token_ids[k];
            let iid = if gid < self.shared_len {
                let g = gid as usize;
                if scratch.item_epoch_shared[g] == scratch.epoch {
                    scratch.item_of_shared[g]
                } else {
                    let id = pool.len() as u32;
                    pool.push(self.vocab.resolve(gid).to_owned());
                    scratch.item_epoch_shared[g] = scratch.epoch;
                    scratch.item_of_shared[g] = id;
                    id
                }
            } else {
                let l = (gid - self.shared_len) as usize;
                if scratch.item_of_local[l] == UNRESOLVED {
                    let id = pool.len() as u32;
                    pool.push(scratch.local.word(l).to_owned());
                    scratch.item_of_local[l] = id;
                    id
                } else {
                    scratch.item_of_local[l]
                }
            };
            ids.push(iid);
        }
    }

    /// Start an item that continues an extraction whose token pool is
    /// `pool`, instead of [`ExtractScratch::begin_item`]: every pool word
    /// keeps its pool index, so [`item_token_ids`](Self::item_token_ids)
    /// numbers only the words the pool lacks, after it. That is the
    /// numbering a fresh extraction of the whole item gives, because the
    /// pool is in first-occurrence order. Out-of-vocabulary pool words
    /// enter the local tail unstemmed; each is stemmed on its first
    /// occurrence in the new text.
    pub fn resume_item(&self, scratch: &mut ExtractScratch, pool: &[String]) {
        scratch.begin_item();
        for (id, word) in pool.iter().enumerate() {
            let gid =
                resolve_or_intern_local(&self.vocab, self.shared_len, &mut scratch.local, word);
            self.grow_remap(scratch);
            let id = id as u32;
            if gid < self.shared_len {
                scratch.item_epoch_shared[gid as usize] = scratch.epoch;
                scratch.item_of_shared[gid as usize] = id;
            } else {
                scratch.item_of_local[(gid - self.shared_len) as usize] = id;
            }
        }
    }

    /// Size the per-item remap tables for the shared vocabulary and the
    /// current local tail.
    fn grow_remap(&self, scratch: &mut ExtractScratch) {
        if scratch.item_of_shared.len() < self.shared_len as usize {
            scratch.item_of_shared.resize(self.shared_len as usize, 0);
            scratch
                .item_epoch_shared
                .resize(self.shared_len as usize, 0);
        }
        scratch
            .item_of_local
            .resize(scratch.local.stem.len(), UNRESOLVED);
    }
}

/// Resolve a stem string to a global ID: shared vocabulary first, then
/// the per-item local tail (interning it there if new). A local entry
/// created for a stem gets its own stem lazily, only if the word later
/// occurs as a token.
fn resolve_or_intern_local(
    vocab: &TokenInterner,
    shared_len: u32,
    local: &mut LocalWords,
    s: &str,
) -> u32 {
    if let Some(id) = vocab.get(s) {
        return id;
    }
    shared_len
        + match local.map.get(s) {
            Some(&l) => l,
            None => local.insert(s),
        }
}

/// The per-item local interner: out-of-vocabulary words with dense local
/// indices, their text kept in one arena that outlives items. Its keys
/// are review text, so the map keeps std's randomly keyed hasher.
#[derive(Debug, Default)]
struct LocalWords {
    map: HashMap<String, u32>,
    /// Every word's text, back to back; word `l` ends at `ends[l]`.
    text: String,
    ends: Vec<usize>,
    /// Global stem ID per word (`UNRESOLVED` until the word occurs as a
    /// token).
    stem: Vec<u32>,
}

impl LocalWords {
    fn clear(&mut self) {
        self.map.clear();
        self.text.clear();
        self.ends.clear();
        self.stem.clear();
    }

    /// The text of word `l`.
    fn word(&self, l: usize) -> &str {
        let start = if l == 0 { 0 } else { self.ends[l - 1] };
        &self.text[start..self.ends[l]]
    }

    /// Add `word`, which the map lacks, with its stem unresolved.
    fn insert(&mut self, word: &str) -> u32 {
        let l = self.ends.len() as u32;
        self.map.insert(word.to_owned(), l);
        self.text.push_str(word);
        self.ends.push(self.text.len());
        self.stem.push(UNRESOLVED);
        l
    }
}

/// Bounds-checked dense-table probe: local IDs (beyond the shared range)
/// fall off the end and read as "absent".
fn table<T>(t: &[T], id: u32) -> Option<&T> {
    t.get(id as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tokenize, ConceptMatcher};
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

    fn check_sentence(h: &Hierarchy, sentence: &str) {
        let lexicon = SentimentLexicon::default();
        let matcher = ConceptMatcher::from_hierarchy(h);
        let ie = InternedExtractor::new(h, &lexicon);
        let mut scratch = ExtractScratch::default();
        scratch.begin_item();
        ie.tokenize_sentence(sentence, &mut scratch);

        let tokens = tokenize(sentence);
        assert_eq!(scratch.num_tokens(), tokens.len(), "{sentence:?}");
        for (i, t) in tokens.iter().enumerate() {
            assert_eq!(ie.token_str(&scratch, scratch.token_id(i)), t);
        }

        ie.find(&mut scratch);
        assert_eq!(
            scratch.mentions(),
            &matcher.find(&tokens)[..],
            "{sentence:?}"
        );

        let got = ie.score(&mut scratch);
        let want = lexicon.score_tokens(&tokens);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{sentence:?}: {got} vs {want}"
        );
    }

    #[test]
    fn mentions_and_scores_match_the_oracle() {
        let h = phone();
        for s in [
            "The display color is stunning",
            "battery life is bad but the screen is great",
            "the screens are bright",
            "battery life",
            "not very good battery life",
            "I love this phone",
            "",
            "   !!! ---",
            "zzyzx quuxish blargh displays",
            "écran brillant 𝑨𝑩 batteries",
        ] {
            check_sentence(&h, s);
        }
    }

    #[test]
    fn local_words_get_stable_ids_within_an_item() {
        let h = phone();
        let ie = InternedExtractor::new(&h, &SentimentLexicon::default());
        let mut scratch = ExtractScratch::default();
        scratch.begin_item();
        ie.tokenize_sentence("frobnicated widget", &mut scratch);
        let first = (scratch.token_id(0), scratch.token_id(1));
        ie.tokenize_sentence("widget frobnicated again", &mut scratch);
        assert_eq!(scratch.token_id(0), first.1);
        assert_eq!(scratch.token_id(1), first.0);
        // IDs equal ⇔ strings equal, shared and local alike.
        assert_ne!(scratch.token_id(2), first.0);
        assert_ne!(scratch.token_id(2), first.1);
    }

    #[test]
    fn item_pool_is_first_occurrence_order() {
        let h = phone();
        let ie = InternedExtractor::new(&h, &SentimentLexicon::default());
        let mut scratch = ExtractScratch::default();
        let (mut pool, mut ids) = (Vec::new(), Vec::new());
        scratch.begin_item();
        ie.tokenize_sentence("great screen great zorp", &mut scratch);
        ie.item_token_ids(&mut scratch, &mut pool, &mut ids);
        assert_eq!(pool, vec!["great", "screen", "zorp"]);
        assert_eq!(ids, vec![0, 1, 0, 2]);
        // Later sentences append to the item's flat ID vector.
        ie.tokenize_sentence("zorp blip", &mut scratch);
        ie.item_token_ids(&mut scratch, &mut pool, &mut ids);
        assert_eq!(pool, vec!["great", "screen", "zorp", "blip"]);
        assert_eq!(ids, vec![0, 1, 0, 2, 2, 3]);
        // A fresh item restarts the numbering even with a reused scratch.
        let (mut pool2, mut ids2) = (Vec::new(), Vec::new());
        scratch.begin_item();
        ie.tokenize_sentence("zorp screen", &mut scratch);
        ie.item_token_ids(&mut scratch, &mut pool2, &mut ids2);
        assert_eq!(pool2, vec!["zorp", "screen"]);
        assert_eq!(ids2, vec![0, 1]);
    }

    #[test]
    fn stem_cache_counts_cover_every_token() {
        let h = phone();
        let ie = InternedExtractor::new(&h, &SentimentLexicon::default());
        let mut scratch = ExtractScratch::default();
        scratch.begin_item();
        ie.tokenize_sentence("splendiferous screens splendiferous", &mut scratch);
        // "screens" is OOV too (only "screen" is shared) — both OOV words
        // miss once; the repeat of "splendiferous" hits.
        assert_eq!(scratch.stem_hits + scratch.stem_misses, 3);
        assert_eq!(scratch.stem_misses, 2);
    }

    #[test]
    fn stem_memo_restarts_past_its_byte_bound() {
        let h = phone();
        let ie = InternedExtractor::new(&h, &SentimentLexicon::default());
        let mut scratch = ExtractScratch::default();
        let mut words = 0;
        for item in 0..8 {
            scratch.begin_item();
            let text: String = (0..8000).map(|i| format!("zq{item}x{i}ings ")).collect();
            ie.tokenize_sentence(&text, &mut scratch);
            words += scratch.num_tokens();
            assert!(scratch.stem_memo_bytes <= STEM_MEMO_BYTES);
            for k in 0..scratch.num_tokens() {
                let word = ie.token_str(&scratch, scratch.token_ids[k]);
                assert_eq!(ie.token_str(&scratch, scratch.stem_ids[k]), stem(word));
            }
        }
        assert!(scratch.stem_memo.len() < words, "the memo restarted");
    }

    #[test]
    fn build_is_deterministic() {
        let h = phone();
        let a = InternedExtractor::new(&h, &SentimentLexicon::default());
        let b = InternedExtractor::new(&h, &SentimentLexicon::default());
        assert_eq!(a.vocab_len(), b.vocab_len());
        assert_eq!(a.automaton_states(), b.automaton_states());
        assert_eq!(a.shared_stem, b.shared_stem);
        assert_eq!(a.word_strength, b.word_strength);
    }
}
