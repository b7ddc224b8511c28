//! # osa-artifact
//!
//! The persistent artifact store behind `osars compile`: a versioned,
//! checksummed, little-endian binary encoding of a fully prepared corpus
//! — hierarchy, review text and per-item extraction output — so a daemon
//! can cold-start from one sequential read instead of re-running the
//! extraction pipeline over every review.
//!
//! ## Format
//!
//! ```text
//! magic   u32   "OSAR" (little-endian; a byte-swapped magic is a
//!               wrong-endian file, not garbage)
//! version u32   bumped on any layout change; readers reject mismatches
//! length  u64   payload byte count
//! check   u64   lane-folded FNV-1a-64 checksum of the payload
//! payload       prelude · block-length table · item blocks
//! ```
//!
//! The payload is **block-framed**: a prelude (hierarchy, corpus name,
//! `u32` block-length table) followed by one self-contained block per
//! item holding that item's reviews *and* its extraction output. [`decode`] materializes everything eagerly;
//! [`open_lazy`] decodes only the prelude and hands back an
//! [`ItemStore`] that decodes each block on first touch — so a daemon's
//! cold start is one sequential read plus the checksum sweep, with the
//! per-item decode amortized into request handling.
//!
//! All integers are little-endian; floats are stored as IEEE-754 bit
//! patterns (`f64::to_bits`), so values — including negative zero —
//! round-trip exactly.
//!
//! The hierarchy is stored as its node table plus the **original edge
//! insertion sequence** ([`Hierarchy::edge_list`]); decoding replays it
//! through [`HierarchyBuilder`], which re-validates every rooted-DAG
//! invariant and reproduces the adjacency arrays bit for bit. The
//! matcher automaton, token interner and ancestor indexes are
//! deliberately *not* stored: all are deterministic functions of the
//! hierarchy (the segmented ancestor rows fill on first query, the dense
//! closure builds on first use), while the per-review extraction pass
//! they accelerate — the true boot cost — is exactly what the stored
//! [`ExtractedItem`]s skip.
//!
//! Every decode error is a typed [`ArtifactError`]; a truncated file, a
//! flipped payload byte, a stale version, or a wrong-endian header each
//! fail cleanly before any partially decoded state escapes.
//!
//! [`Hierarchy::edge_list`]: osa_ontology::Hierarchy::edge_list
//! [`HierarchyBuilder`]: osa_ontology::HierarchyBuilder

#![warn(missing_docs)]

use std::fmt;
use std::path::Path;

use osa_core::Pair;
use osa_datasets::{Corpus, ExtractedItem, ExtractedSentence, Item, Review};
use osa_ontology::{HierarchyBuilder, NodeId};

/// "OSAR", read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"OSAR");

/// Current artifact layout version. Bumped on any change to the payload
/// encoding; readers reject every other version rather than guessing.
/// Version 1 carried a segment-index section after the hierarchy.
pub const VERSION: u32 = 2;

const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// Everything a daemon needs to answer summary requests, decoded from
/// one artifact file.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The corpus (hierarchy + review text).
    pub corpus: Corpus,
    /// Extraction output per item, aligned with `corpus.items`.
    pub extracted: Vec<ExtractedItem>,
}

/// Typed decode/IO failures. Every corruption mode maps to a distinct
/// variant — loaders report *why* an artifact was rejected, and never
/// panic or silently misread.
#[derive(Debug)]
pub enum ArtifactError {
    /// Underlying file IO failed.
    Io(std::io::Error),
    /// The magic number is not "OSAR" in either byte order.
    BadMagic(u32),
    /// The magic matches byte-swapped: the file was written by a
    /// (hypothetical) opposite-endian encoder.
    WrongEndian,
    /// The layout version is not [`VERSION`].
    WrongVersion {
        /// Version tag found in the header.
        found: u32,
        /// The version this reader understands.
        expected: u32,
    },
    /// The file ends before the encoded structure does.
    Truncated {
        /// Bytes the decoder needed next.
        need: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The lane-folded FNV-1a-64 checksum over the payload does not
    /// match.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum of the payload as read.
        computed: u64,
    },
    /// The payload decodes but violates a structural invariant (index
    /// out of range, section length disagreement, invalid UTF-8, …).
    Malformed(&'static str),
    /// The stored hierarchy failed rooted-DAG re-validation.
    Ontology(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact io: {e}"),
            ArtifactError::BadMagic(m) => write!(f, "not an osars artifact (magic {m:#010x})"),
            ArtifactError::WrongEndian => {
                write!(f, "artifact written with opposite byte order")
            }
            ArtifactError::WrongVersion { found, expected } => write!(
                f,
                "artifact version {found} unsupported (this build reads version {expected}); \
                 re-run `osars compile`"
            ),
            ArtifactError::Truncated { need, have } => {
                write!(
                    f,
                    "artifact truncated: needed {need} more bytes, found {have}"
                )
            }
            ArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch (header {stored:#018x}, payload {computed:#018x})"
            ),
            ArtifactError::Malformed(what) => write!(f, "artifact malformed: {what}"),
            ArtifactError::Ontology(e) => {
                write!(f, "artifact hierarchy failed re-validation: {e}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// Header checksum: FNV-1a-64 folded over 8-byte little-endian lanes
/// (tail zero-padded), seeded with the payload length. Lane folding
/// keeps the serial multiply chain 8× shorter than byte-at-a-time FNV;
/// every cold boot pays this over the whole payload, so it has to run
/// at memory speed. The length seed keeps zero-padded tails of
/// different lengths from colliding.
fn checksum64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("8"));
        h = h.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(PRIME);
    }
    h
}

// --- encoding ---------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Element/byte counts are u32 lanes: no section holds 4 billion
    /// entries, and the prefix appears once per string and per vector.
    fn len(&mut self, v: usize) {
        self.u32(u32::try_from(v).expect("count fits u32"));
    }
    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn u32s(&mut self, vs: &[u32]) {
        self.len(vs.len());
        for &v in vs {
            self.u32(v);
        }
    }
    /// Indices into in-memory vectors (pairs, sentences) — always far
    /// below `u32::MAX`, so four bytes per lane, not eight.
    fn indices(&mut self, vs: &[usize]) {
        self.len(vs.len());
        for &v in vs {
            self.u32(u32::try_from(v).expect("index fits u32"));
        }
    }
    fn pairs(&mut self, ps: &[Pair]) {
        self.len(ps.len());
        for p in ps {
            self.u32(p.concept.index() as u32);
            self.f64(p.sentiment);
        }
    }
}

/// One item's reviews and extraction output, framed as a contiguous
/// byte block. Blocks are the unit of lazy loading: a daemon can boot
/// from the prelude alone and decode a block on the item's first
/// request.
fn encode_block(item: &Item, ex: &ExtractedItem) -> Vec<u8> {
    let mut b = Enc { buf: Vec::new() };
    b.str(&item.name);
    b.len(item.reviews.len());
    for r in &item.reviews {
        b.str(&r.text);
        b.pairs(&r.planted);
    }
    b.pairs(&ex.pairs);
    b.len(ex.sentences.len());
    for s in &ex.sentences {
        b.str(&s.text);
        b.u32s(&s.tokens);
        b.indices(&s.pair_indices);
        b.f64(s.sentiment);
    }
    b.len(ex.reviews.len());
    for r in &ex.reviews {
        b.indices(r);
    }
    b.len(ex.tokens.len());
    for t in &ex.tokens {
        b.str(t);
    }
    b.buf
}

/// Serialize a prepared corpus into artifact bytes. `extracted` must be
/// the extraction output of `corpus.items`, in item order — extraction
/// is impl-invariant, so output from either extract impl is valid.
pub fn encode(corpus: &Corpus, extracted: &[ExtractedItem]) -> Vec<u8> {
    assert_eq!(
        corpus.items.len(),
        extracted.len(),
        "one ExtractedItem per corpus item"
    );
    let h = &corpus.hierarchy;
    let mut e = Enc { buf: Vec::new() };

    // Section: hierarchy.
    e.len(h.node_count());
    for n in h.nodes() {
        e.str(h.name(n));
        e.len(h.terms(n).len());
        for t in h.terms(n) {
            e.str(t);
        }
    }
    e.len(h.edge_list().len());
    for &(p, c) in h.edge_list() {
        e.u32(p.index() as u32);
        e.u32(c.index() as u32);
    }
    e.u32(h.root().index() as u32);

    // Section: corpus header + item block table + blocks. Each block's
    // byte length is recorded up front so a loader can index every
    // block from the prelude without touching block contents.
    e.str(&corpus.name);
    e.len(corpus.items.len());
    let blocks: Vec<Vec<u8>> = corpus
        .items
        .iter()
        .zip(extracted)
        .map(|(item, ex)| encode_block(item, ex))
        .collect();
    for b in &blocks {
        e.len(b.len());
    }
    for b in &blocks {
        e.buf.extend_from_slice(b);
    }

    let payload = e.buf;
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

// --- decoding ---------------------------------------------------------------

struct Cur<'a> {
    data: &'a [u8],
    off: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        let have = self.data.len() - self.off;
        if n > have {
            return Err(ArtifactError::Truncated { need: n, have });
        }
        let s = &self.data[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, ArtifactError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length prefix for items at least `unit` bytes each; bounded by
    /// the remaining payload so corrupt lengths fail as `Truncated`
    /// instead of attempting absurd allocations.
    fn len(&mut self, unit: usize) -> Result<usize, ArtifactError> {
        let raw = self.u32()? as u64;
        let have = self.data.len() - self.off;
        let need = raw.checked_mul(unit.max(1) as u64);
        match need {
            Some(n) if n <= have as u64 => Ok(raw as usize),
            _ => Err(ArtifactError::Truncated {
                need: need.map_or(usize::MAX, |n| n as usize),
                have,
            }),
        }
    }

    fn str(&mut self) -> Result<String, ArtifactError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(ArtifactError::Malformed("string is not UTF-8")),
        }
    }

    fn node(&mut self, n_nodes: usize) -> Result<NodeId, ArtifactError> {
        let raw = self.u32()? as usize;
        if raw >= n_nodes {
            return Err(ArtifactError::Malformed("node id out of range"));
        }
        Ok(NodeId::from_index(raw))
    }

    // The array readers below take their whole byte range in one bounds
    // check and parse fixed-width lanes off it — cold boot decodes
    // millions of these, so per-element cursor arithmetic is the
    // difference between an I/O-bound and a compute-bound load.

    fn u32s(&mut self) -> Result<Vec<u32>, ArtifactError> {
        let n = self.len(4)?;
        let bytes = self.take(4 * n)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }

    /// `usize` indices bounded by `limit`, stored as u32 lanes.
    fn indices(&mut self, limit: usize) -> Result<Vec<usize>, ArtifactError> {
        let n = self.len(4)?;
        let bytes = self.take(4 * n)?;
        let mut out = Vec::with_capacity(n);
        for c in bytes.chunks_exact(4) {
            let raw = u32::from_le_bytes(c.try_into().expect("4")) as usize;
            if raw >= limit {
                return Err(ArtifactError::Malformed("index out of range"));
            }
            out.push(raw);
        }
        Ok(out)
    }

    fn pairs(&mut self, n_nodes: usize) -> Result<Vec<Pair>, ArtifactError> {
        let n = self.len(12)?;
        let bytes = self.take(12 * n)?;
        let mut out = Vec::with_capacity(n);
        for c in bytes.chunks_exact(12) {
            let raw = u32::from_le_bytes(c[0..4].try_into().expect("4")) as usize;
            if raw >= n_nodes {
                return Err(ArtifactError::Malformed("node id out of range"));
            }
            let s = f64::from_bits(u64::from_le_bytes(c[4..12].try_into().expect("8")));
            // Not `Pair::new`: it sanitizes (NaN → 0, sign-normalized
            // zero), which would break the codec's bit-exact round-trip
            // contract for values the encoder stored verbatim.
            out.push(Pair {
                concept: NodeId::from_index(raw),
                sentiment: s,
            });
        }
        Ok(out)
    }
}

/// Validate magic, version, payload length, and checksum; return the
/// payload slice. Every loader — eager or lazy — goes through this
/// before any structural decoding, so corruption is always caught up
/// front.
fn validate_header(data: &[u8]) -> Result<&[u8], ArtifactError> {
    if data.len() < HEADER_LEN {
        return Err(ArtifactError::Truncated {
            need: HEADER_LEN,
            have: data.len(),
        });
    }
    let magic = u32::from_le_bytes(data[0..4].try_into().expect("4"));
    if magic != MAGIC {
        return Err(if magic == MAGIC.swap_bytes() {
            ArtifactError::WrongEndian
        } else {
            ArtifactError::BadMagic(magic)
        });
    }
    let version = u32::from_le_bytes(data[4..8].try_into().expect("4"));
    if version != VERSION {
        return Err(ArtifactError::WrongVersion {
            found: version,
            expected: VERSION,
        });
    }
    let payload_len = u64::from_le_bytes(data[8..16].try_into().expect("8")) as usize;
    let payload = &data[HEADER_LEN..];
    if payload.len() < payload_len {
        return Err(ArtifactError::Truncated {
            need: payload_len,
            have: payload.len(),
        });
    }
    if payload.len() > payload_len {
        return Err(ArtifactError::Malformed("trailing bytes after payload"));
    }
    let stored = u64::from_le_bytes(data[16..24].try_into().expect("8"));
    let computed = checksum64(payload);
    if stored != computed {
        return Err(ArtifactError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

/// Everything decoded before the item blocks: hierarchy, corpus name,
/// and the block table.
struct Prelude {
    hierarchy: osa_ontology::Hierarchy,
    corpus_name: String,
    /// `(offset, len)` of each item block, relative to the payload.
    blocks: Vec<(usize, usize)>,
}

fn parse_prelude(payload: &[u8]) -> Result<Prelude, ArtifactError> {
    let mut c = Cur {
        data: payload,
        off: 0,
    };

    // Section: hierarchy — replayed through the builder so every
    // rooted-DAG invariant is re-validated on load.
    let n_nodes = c.len(1)?;
    let mut b = HierarchyBuilder::new();
    for _ in 0..n_nodes {
        let name = c.str()?;
        let n_terms = c.len(4)?;
        let terms: Vec<String> = (0..n_terms).map(|_| c.str()).collect::<Result<_, _>>()?;
        b.add_node_with_terms(&name, &terms);
    }
    let n_edges = c.len(8)?;
    for _ in 0..n_edges {
        let p = c.node(n_nodes)?;
        let ch = c.node(n_nodes)?;
        b.add_edge(p, ch)
            .map_err(|e| ArtifactError::Ontology(e.to_string()))?;
    }
    let hierarchy = b
        .build()
        .map_err(|e| ArtifactError::Ontology(e.to_string()))?;
    let root = c.node(n_nodes)?;
    if root != hierarchy.root() {
        return Err(ArtifactError::Malformed("stored root disagrees"));
    }

    // Section: corpus header + item block table. Block contents are
    // NOT decoded here — only indexed — so the prelude parses in
    // microseconds regardless of corpus size.
    let corpus_name = c.str()?;
    let n_items = c.len(4)?;
    let mut lens = Vec::with_capacity(n_items);
    for _ in 0..n_items {
        lens.push(c.u32()? as usize);
    }
    let mut blocks = Vec::with_capacity(n_items);
    let mut off = c.off;
    for &len in &lens {
        let have = payload.len() - off;
        if len > have {
            return Err(ArtifactError::Truncated { need: len, have });
        }
        blocks.push((off, len));
        off += len;
    }
    if off != payload.len() {
        return Err(ArtifactError::Malformed("trailing bytes after payload"));
    }

    Ok(Prelude {
        hierarchy,
        corpus_name,
        blocks,
    })
}

/// Decode one item block: the item's reviews plus its extraction
/// output. `n_nodes` bounds every stored [`NodeId`].
fn decode_block(bytes: &[u8], n_nodes: usize) -> Result<(Item, ExtractedItem), ArtifactError> {
    let mut c = Cur {
        data: bytes,
        off: 0,
    };
    let name = c.str()?;
    let n_reviews = c.len(8)?;
    let mut reviews = Vec::with_capacity(n_reviews);
    for _ in 0..n_reviews {
        let text = c.str()?;
        let planted = c.pairs(n_nodes)?;
        reviews.push(Review { text, planted });
    }
    let item = Item { name, reviews };

    let pairs = c.pairs(n_nodes)?;
    let n_pairs = pairs.len();
    let n_sentences = c.len(8)?;
    let mut sentences = Vec::with_capacity(n_sentences);
    for _ in 0..n_sentences {
        let text = c.str()?;
        let tokens = c.u32s()?;
        let pair_indices = c.indices(n_pairs.max(1))?;
        if n_pairs == 0 && !pair_indices.is_empty() {
            return Err(ArtifactError::Malformed("index out of range"));
        }
        let sentiment = c.f64()?;
        sentences.push(ExtractedSentence {
            text,
            tokens,
            pair_indices,
            sentiment,
        });
    }
    let n_ex_reviews = c.len(4)?;
    let ex_reviews: Vec<Vec<usize>> = (0..n_ex_reviews)
        .map(|_| c.indices(n_sentences.max(1)))
        .collect::<Result<_, _>>()?;
    if n_sentences == 0 && ex_reviews.iter().any(|r| !r.is_empty()) {
        return Err(ArtifactError::Malformed("index out of range"));
    }
    let n_tokens = c.len(4)?;
    let tokens: Vec<String> = (0..n_tokens).map(|_| c.str()).collect::<Result<_, _>>()?;
    if sentences
        .iter()
        .any(|s| s.tokens.iter().any(|&t| t as usize >= tokens.len()))
    {
        return Err(ArtifactError::Malformed("token id out of range"));
    }
    if c.off != bytes.len() {
        return Err(ArtifactError::Malformed("trailing bytes in item block"));
    }
    Ok((
        item,
        ExtractedItem {
            pairs,
            sentences,
            reviews: ex_reviews,
            tokens,
        },
    ))
}

/// Decode artifact bytes produced by [`encode`], materializing every
/// item block eagerly.
pub fn decode(data: &[u8]) -> Result<Artifact, ArtifactError> {
    let payload = validate_header(data)?;
    let p = parse_prelude(payload)?;
    let n_nodes = p.hierarchy.node_count();
    let mut items = Vec::with_capacity(p.blocks.len());
    let mut extracted = Vec::with_capacity(p.blocks.len());
    for &(off, len) in &p.blocks {
        let (item, ex) = decode_block(&payload[off..off + len], n_nodes)?;
        items.push(item);
        extracted.push(ex);
    }
    Ok(Artifact {
        corpus: Corpus {
            name: p.corpus_name,
            hierarchy: p.hierarchy,
            items,
        },
        extracted,
    })
}

/// A block-framed artifact opened for lazy loading: the prelude —
/// hierarchy and block table — is decoded eagerly (microseconds,
/// independent of review volume) while each item block is materialized
/// on first touch through [`ItemStore::item`]. This is what makes an
/// artifact-booted daemon's cold start I/O-bound: boot pays one
/// sequential read plus the checksum sweep, never a per-review decode or
/// extraction pass.
#[derive(Debug)]
pub struct LazyArtifact {
    /// The rebuilt hierarchy.
    pub hierarchy: osa_ontology::Hierarchy,
    /// Corpus display name.
    pub corpus_name: String,
    /// Cheaply clonable handle to the undecoded item blocks.
    pub store: ItemStore,
}

/// Shared handle to the artifact's raw bytes plus the block table;
/// clones are `Arc`-cheap so every daemon worker can hold one.
#[derive(Debug, Clone)]
pub struct ItemStore {
    inner: std::sync::Arc<StoreInner>,
}

#[derive(Debug)]
struct StoreInner {
    /// The entire artifact file (header included).
    bytes: Vec<u8>,
    /// Absolute `(offset, len)` of each item block within `bytes`.
    blocks: Vec<(usize, usize)>,
    n_nodes: usize,
}

impl ItemStore {
    /// Number of item blocks.
    pub fn len(&self) -> usize {
        self.inner.blocks.len()
    }

    /// True when the artifact holds no items.
    pub fn is_empty(&self) -> bool {
        self.inner.blocks.is_empty()
    }

    /// Decode item block `i` into the item's reviews and extraction
    /// output. The whole payload was checksum-verified at open, so a
    /// structural error here means an encoder bug, not file corruption
    /// — it is still reported as a typed error, never a panic.
    pub fn item(&self, i: usize) -> Result<(Item, ExtractedItem), ArtifactError> {
        let &(off, len) = self
            .inner
            .blocks
            .get(i)
            .ok_or(ArtifactError::Malformed("item index out of range"))?;
        decode_block(&self.inner.bytes[off..off + len], self.inner.n_nodes)
    }
}

/// Open an artifact for lazy loading: validate the header and checksum,
/// decode the prelude, and index — but do not decode — the item blocks.
pub fn open_lazy(path: &Path) -> Result<LazyArtifact, ArtifactError> {
    lazy_from_bytes(std::fs::read(path)?)
}

/// [`open_lazy`] over bytes already in memory.
pub fn lazy_from_bytes(bytes: Vec<u8>) -> Result<LazyArtifact, ArtifactError> {
    let prelude = {
        let payload = validate_header(&bytes)?;
        parse_prelude(payload)?
    };
    let n_nodes = prelude.hierarchy.node_count();
    let blocks = prelude
        .blocks
        .iter()
        .map(|&(off, len)| (off + HEADER_LEN, len))
        .collect();
    Ok(LazyArtifact {
        hierarchy: prelude.hierarchy,
        corpus_name: prelude.corpus_name,
        store: ItemStore {
            inner: std::sync::Arc::new(StoreInner {
                bytes,
                blocks,
                n_nodes,
            }),
        },
    })
}

/// [`encode`] straight to a file.
pub fn write_artifact(
    path: &Path,
    corpus: &Corpus,
    extracted: &[ExtractedItem],
) -> Result<u64, ArtifactError> {
    let bytes = encode(corpus, extracted);
    std::fs::write(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Read and [`decode`] an artifact file.
pub fn read_artifact(path: &Path) -> Result<Artifact, ArtifactError> {
    let bytes = std::fs::read(path)?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_datasets::{CorpusConfig, ExtractImpl, Extractor};
    use osa_text::ExtractScratch;

    fn tiny() -> (Corpus, Vec<ExtractedItem>) {
        let cfg = CorpusConfig {
            items: 3,
            min_reviews: 2,
            max_reviews: 5,
            mean_reviews: 3.0,
            mean_sentences: 3.0,
            aspect_sentence_prob: 0.8,
        };
        let corpus = Corpus::phones(&cfg, 11);
        let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
        let mut scratch = ExtractScratch::default();
        let extracted = corpus
            .items
            .iter()
            .map(|it| extractor.extract(it, ExtractImpl::Interned, &mut scratch))
            .collect();
        (corpus, extracted)
    }

    #[test]
    fn round_trip_is_lossless() {
        let (corpus, extracted) = tiny();
        let bytes = encode(&corpus, &extracted);
        let art = decode(&bytes).expect("decodes");
        assert_eq!(art.corpus.name, corpus.name);
        assert_eq!(
            art.corpus.hierarchy.edge_list(),
            corpus.hierarchy.edge_list()
        );
        assert_eq!(art.extracted, extracted);
        // Re-encoding the decoded artifact reproduces the bytes exactly.
        assert_eq!(encode(&art.corpus, &art.extracted), bytes);
    }

    #[test]
    fn decoded_hierarchy_answers_segmented_rows_like_the_dense_closure() {
        let (corpus, extracted) = tiny();
        let bytes = encode(&corpus, &extracted);
        let eager = decode(&bytes).expect("decodes").corpus.hierarchy;
        let lazy = lazy_from_bytes(bytes).expect("opens").hierarchy;
        let dense = corpus.hierarchy.ancestor_index();
        for h in [&eager, &lazy] {
            assert_eq!(h.segment_index().memo_footprint(), (0, 0));
            for n in h.nodes() {
                assert_eq!(h.segment_index().ancestors(n), dense.ancestors(n), "{n:?}");
            }
        }
    }

    #[test]
    fn truncation_reports_typed_error() {
        let (corpus, extracted) = tiny();
        let bytes = encode(&corpus, &extracted);
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN + 5, bytes.len() - 1] {
            match decode(&bytes[..cut]) {
                Err(ArtifactError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_mismatch() {
        let (corpus, extracted) = tiny();
        let mut bytes = encode(&corpus, &extracted);
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            decode(&bytes),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let (corpus, extracted) = tiny();
        let good = encode(&corpus, &extracted);

        let mut wrong_version = good.clone();
        wrong_version[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
        assert!(matches!(
            decode(&wrong_version),
            Err(ArtifactError::WrongVersion { found, expected })
                if found == VERSION + 1 && expected == VERSION
        ));

        // A version-1 file carries the segment section this reader no
        // longer parses.
        let mut v1 = good.clone();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            decode(&v1),
            Err(ArtifactError::WrongVersion {
                found: 1,
                expected: 2
            })
        ));

        let mut swapped = good.clone();
        swapped[0..4].copy_from_slice(&MAGIC.swap_bytes().to_le_bytes());
        assert!(matches!(decode(&swapped), Err(ArtifactError::WrongEndian)));

        let mut garbage = good;
        garbage[0..4].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        assert!(matches!(decode(&garbage), Err(ArtifactError::BadMagic(_))));
    }
}
