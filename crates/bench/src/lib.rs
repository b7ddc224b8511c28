//! # osa-bench
//!
//! Shared harness code for the reproduction binaries (one per table /
//! figure of the paper) and the Criterion micro-benchmarks.
//!
//! Binaries (run with `cargo run -p osa-bench --release --bin <name>`):
//!
//! | bin | reproduces |
//! |---|---|
//! | `table1` | Table 1 — dataset characteristics |
//! | `fig3` | Fig. 3 — the cell-phone aspect hierarchy |
//! | `fig4_5` | Figs. 4 & 5 — time and cost of ILP/RR/Greedy × {pairs, sentences, reviews} |
//! | `fig6` | Fig. 6a/6b — sent-err(-penalized) of Greedy vs the 5 baselines |
//! | `elbow` | §5.3 — ε selection by the elbow method |
//!
//! Each binary prints aligned text to stdout and writes CSV rows under
//! `target/repro/`.

use std::io::Write as _;
use std::path::PathBuf;

use osa_core::{CoverageGraph, Granularity, Summarizer, Summary};
use osa_datasets::{
    extract_item, sample_grouped_pairs, synthetic_ontology, Corpus, CorpusConfig,
    SyntheticOntologyConfig,
};
use osa_eval::Stopwatch;
use osa_obs::Sink as _;
use osa_ontology::Hierarchy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Worker count for the reproduction binaries: `--jobs N` on the command
/// line wins, then the `OSA_JOBS` environment variable, then 1
/// (sequential — the cleanest setting for timing columns). `0` means
/// "all available cores". The raw request is resolved through
/// [`osa_runtime::effective_jobs`] so the 0-means-all-cores and upper
/// clamp rules live in exactly one place.
pub fn jobs_flag() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let requested = args
        .windows(2)
        .find(|pair| pair[0] == "--jobs")
        .and_then(|pair| pair[1].parse().ok())
        .or_else(|| std::env::var("OSA_JOBS").ok().and_then(|v| v.parse().ok()))
        .unwrap_or(1);
    osa_runtime::effective_jobs(requested)
}

/// Enable metrics collection when `OSA_METRICS=FILE` is in the
/// environment: the global [`osa_obs`] registry is switched on with a
/// JSONL sink on `FILE`. Returns the sink so [`finish_metrics`] can
/// append the final snapshot; `None` (and no side effects) when the
/// variable is unset or the file cannot be created.
pub fn init_metrics_from_env() -> Option<std::sync::Arc<osa_obs::JsonlSink>> {
    let path = std::env::var("OSA_METRICS").ok()?;
    let sink = match osa_obs::JsonlSink::create(std::path::Path::new(&path)) {
        Ok(s) => std::sync::Arc::new(s),
        Err(e) => {
            eprintln!("OSA_METRICS: cannot create '{path}': {e}");
            return None;
        }
    };
    let obs = osa_obs::global();
    obs.set_sink(sink.clone());
    obs.set_enabled(true);
    eprintln!("metrics streaming to {path}");
    Some(sink)
}

/// Append the final registry snapshot to the `OSA_METRICS` sink and
/// flush it. A no-op for `None`, so callers can write
/// `finish_metrics(init_metrics_from_env())` bracket-style.
pub fn finish_metrics(sink: Option<std::sync::Arc<osa_obs::JsonlSink>>) {
    if let Some(sink) = sink {
        sink.write_snapshot(&osa_obs::global().snapshot());
        sink.flush();
    }
}

/// Where the harness writes its CSV output.
pub fn repro_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/repro");
    std::fs::create_dir_all(&dir).expect("create target/repro");
    dir
}

/// Write CSV lines (header + rows) to `target/repro/<name>.csv`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = repro_dir().join(name);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create csv file"));
    writeln!(f, "{header}").expect("write header");
    for r in rows {
        writeln!(f, "{r}").expect("write row");
    }
    f.flush().expect("flush csv");
    eprintln!("wrote {}", path.display());
}

/// One synthetic "doctor": its pair multiset plus the sentence/review
/// groupings, ready to build all three problem variants.
pub struct BenchItem {
    /// Concept-sentiment pairs of the item.
    pub pairs: Vec<osa_core::Pair>,
    /// Pair-index groups per sentence.
    pub sentence_groups: Vec<Vec<usize>>,
    /// Pair-index groups per review.
    pub review_groups: Vec<Vec<usize>>,
}

/// The quantitative workload of Figs. 4–5: a SNOMED-like synthetic
/// ontology and `items` sampled doctors with `mean_pairs`-sized pair
/// sets (clustered concepts/sentiments).
pub struct QuantWorkload {
    /// The synthetic concept hierarchy.
    pub hierarchy: Hierarchy,
    /// The per-item instances.
    pub items: Vec<BenchItem>,
}

/// Build the Figs. 4–5 workload deterministically.
pub fn quant_workload(items: usize, mean_pairs: usize, seed: u64) -> QuantWorkload {
    let hierarchy = synthetic_ontology(
        &SyntheticOntologyConfig {
            nodes: 3000,
            levels: 7,
            multi_parent_prob: 0.15,
        },
        seed,
    );
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let items = (0..items)
        .map(|_| {
            let n = rng.gen_range(mean_pairs / 2..=mean_pairs * 3 / 2).max(4);
            let clusters = rng.gen_range(2..=5usize);
            let (pairs, sentence_groups, review_groups) =
                sample_grouped_pairs(&hierarchy, n, clusters, 5, &mut rng);
            BenchItem {
                pairs,
                sentence_groups,
                review_groups,
            }
        })
        .collect();
    QuantWorkload { hierarchy, items }
}

/// The same Figs. 4–5 workload, but produced by the *real* text
/// pipeline: synthetic doctor reviews → sentence splitting → concept
/// matching → lexicon sentiment → pairs. Slower to build but exercises
/// every extraction code path (select with `OSA_SOURCE=text`).
pub fn text_workload(items: usize, seed: u64) -> QuantWorkload {
    // Smaller per-item review counts than doctors_small: the exact ILP
    // (dense tableau simplex) is the bottleneck, and extraction yields
    // several pairs per review.
    let cfg = CorpusConfig {
        items,
        min_reviews: 8,
        max_reviews: 24,
        mean_reviews: 14.0,
        ..CorpusConfig::doctors_small()
    };
    let corpus = Corpus::doctors(&cfg, seed);
    let matcher = osa_text::ConceptMatcher::from_hierarchy(&corpus.hierarchy);
    let lexicon = osa_text::SentimentLexicon::default();
    let items = corpus
        .items
        .iter()
        .map(|item| {
            let ex = extract_item(item, &matcher, &lexicon);
            BenchItem {
                sentence_groups: ex.sentence_groups(),
                review_groups: ex.review_groups(),
                pairs: ex.pairs,
            }
        })
        .collect();
    QuantWorkload {
        hierarchy: corpus.hierarchy,
        items,
    }
}

impl BenchItem {
    /// Build the coverage graph for one granularity.
    pub fn graph(&self, h: &Hierarchy, eps: f64, g: Granularity) -> CoverageGraph {
        match g {
            Granularity::Pairs => CoverageGraph::for_pairs(h, &self.pairs, eps),
            Granularity::Sentences => {
                CoverageGraph::for_groups(h, &self.pairs, &self.sentence_groups, eps, g)
            }
            Granularity::Reviews => {
                CoverageGraph::for_groups(h, &self.pairs, &self.review_groups, eps, g)
            }
        }
    }
}

/// Run one summarizer on a prebuilt graph, returning the summary and the
/// wall-clock microseconds of the selection call (saturating; see
/// [`osa_eval::duration_micros`]).
pub fn run_timed(s: &dyn Summarizer, graph: &CoverageGraph, k: usize) -> (Summary, f64) {
    Stopwatch::time(|| s.summarize(graph, k))
}

/// Display label of a granularity, matching the paper's plots.
pub fn granularity_label(g: Granularity) -> &'static str {
    match g {
        Granularity::Pairs => "top pairs",
        Granularity::Sentences => "top sentences",
        Granularity::Reviews => "top reviews",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_flag_is_already_resolved() {
        // `jobs_flag` routes through `effective_jobs`, so the value it
        // hands to `BatchJob::jobs` is never 0 and never above the
        // runtime clamp — the 0-means-all-cores rule lives in one place.
        let j = jobs_flag();
        assert!(j >= 1);
        assert!(j <= osa_runtime::MAX_JOBS);
        assert_eq!(osa_runtime::effective_jobs(j), j);
    }

    #[test]
    fn workload_is_deterministic_and_sized() {
        let a = quant_workload(3, 40, 5);
        let b = quant_workload(3, 40, 5);
        assert_eq!(a.items.len(), 3);
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(x.pairs.len(), y.pairs.len());
            assert!(x.pairs.len() >= 20 && x.pairs.len() <= 60);
        }
    }

    #[test]
    fn graphs_build_for_all_granularities() {
        let w = quant_workload(1, 30, 7);
        let item = &w.items[0];
        for g in [
            Granularity::Pairs,
            Granularity::Sentences,
            Granularity::Reviews,
        ] {
            let cg = item.graph(&w.hierarchy, 0.5, g);
            assert_eq!(cg.num_pairs(), item.pairs.len());
            assert!(cg.num_candidates() > 0);
        }
    }
}
