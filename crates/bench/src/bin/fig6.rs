//! Fig. 6 reproduction: sentiment error (6a) and penalized sentiment
//! error (6b) of the Greedy summarizer vs the five baselines on the
//! cell-phone corpus, for k selected sentences per item.
//!
//! Environment knobs: `OSA_SEED` (default 3), `OSA_SENTENCE_CAP`
//! (default 300 sentences per item, keeping the dense baselines fast).

use osa_baselines::{
    LexRank, LsaSummarizer, MostPopular, Proportional, SentenceRecord, SentenceSelector, TextRank,
};
use osa_bench::{jobs_flag, write_csv};
use osa_core::{CoverageGraph, Granularity, GreedySummarizer, Pair, Summarizer};
use osa_datasets::{extract_item, Corpus, CorpusConfig, ExtractedItem};
use osa_eval::{sent_err, sent_err_penalized};
use osa_runtime::BatchJob;
use osa_text::{ConceptMatcher, SentimentLexicon};

const KS: [usize; 5] = [2, 4, 6, 8, 10];

fn env_eps() -> f64 {
    std::env::var("OSA_EPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.5)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Pairs carried by a set of selected sentences.
fn summary_pairs(ex: &ExtractedItem, selected: &[usize]) -> Vec<Pair> {
    selected
        .iter()
        .flat_map(|&si| &ex.pairs[ex.sentences[si].pair_indices.clone()])
        .copied()
        .collect()
}

fn main() {
    let seed = env_usize("OSA_SEED", 3) as u64;
    let cap = env_usize("OSA_SENTENCE_CAP", 300);
    let eps = env_eps();
    let corpus = Corpus::phones(&CorpusConfig::phones_small(), seed);
    let matcher = ConceptMatcher::from_hierarchy(&corpus.hierarchy);
    let lexicon = SentimentLexicon::default();

    println!(
        "=== Fig. 6: sentiment error vs k on cell-phone reviews ({} items, eps={eps}) ===\n",
        corpus.items.len()
    );

    let make_baselines = || -> Vec<Box<dyn SentenceSelector>> {
        vec![
            Box::new(MostPopular),
            Box::new(Proportional),
            Box::new(TextRank),
            Box::new(LexRank::default()),
            Box::new(LsaSummarizer::default()),
        ]
    };
    let method_names: Vec<String> = std::iter::once("greedy (ours)".to_owned())
        .chain(make_baselines().iter().map(|b| b.name().to_owned()))
        .collect();

    // err[measure][method][k-index] accumulated over items. Per-item
    // contributions come off the worker pool in item order, so the sums
    // are identical for any --jobs value.
    let mut err = vec![vec![vec![0.0f64; KS.len()]; method_names.len()]; 2];

    let jobs = jobs_flag();
    let per_item = BatchJob::new(&corpus.items).jobs(jobs).run(|_, _, item| {
        let baselines = make_baselines();
        let mut contrib = vec![vec![vec![0.0f64; KS.len()]; baselines.len() + 1]; 2];
        let mut ex = extract_item(item, &matcher, &lexicon);
        truncate_sentences(&mut ex, cap);
        let records: Vec<SentenceRecord> = ex
            .sentences
            .iter()
            .enumerate()
            .map(|(si, s)| SentenceRecord {
                tokens: ex.sentence_tokens(si),
                pairs: ex.pairs[s.pair_indices.clone()].to_vec(),
            })
            .collect();
        let graph = CoverageGraph::for_groups(
            &corpus.hierarchy,
            &ex.pairs,
            &ex.sentence_groups(),
            eps,
            Granularity::Sentences,
        );

        for (ki, &k) in KS.iter().enumerate() {
            // Greedy (ours).
            let sel = GreedySummarizer.summarize(&graph, k).selected;
            let f = summary_pairs(&ex, &sel);
            contrib[0][0][ki] = sent_err(&corpus.hierarchy, &ex.pairs, &f);
            contrib[1][0][ki] = sent_err_penalized(&corpus.hierarchy, &ex.pairs, &f);
            // Baselines.
            for (bi, b) in baselines.iter().enumerate() {
                let sel = b.select(&records, k);
                let f = summary_pairs(&ex, &sel);
                contrib[0][bi + 1][ki] = sent_err(&corpus.hierarchy, &ex.pairs, &f);
                contrib[1][bi + 1][ki] = sent_err_penalized(&corpus.hierarchy, &ex.pairs, &f);
            }
        }
        contrib
    });
    eprintln!("{}", per_item.render_stats());
    for contrib in &per_item.results {
        for mi in 0..2 {
            for m in 0..method_names.len() {
                for ki in 0..KS.len() {
                    err[mi][m][ki] += contrib[mi][m][ki];
                }
            }
        }
    }

    let n = corpus.items.len() as f64;
    let mut csv = Vec::new();
    for (mi, measure) in ["sent-err", "sent-err-penalized"].iter().enumerate() {
        println!(
            "--- Fig. 6{}: {measure} (lower is better) ---",
            ['a', 'b'][mi]
        );
        print!("{:<16}", "method \\ k");
        for k in KS {
            print!("{k:>10}");
        }
        println!();
        for (m, name) in method_names.iter().enumerate() {
            print!("{name:<16}");
            for ki in 0..KS.len() {
                let v = err[mi][m][ki] / n;
                print!("{v:>10.4}");
                csv.push(format!("{measure},{name},{},{v:.5}", KS[ki]));
            }
            println!();
        }
        // Improvement summary like the paper's prose.
        let ours: Vec<f64> = (0..KS.len()).map(|ki| err[mi][0][ki] / n).collect();
        let mut best_base = f64::INFINITY;
        let mut best_name = "";
        for (m, name) in method_names.iter().enumerate().skip(1) {
            let avg: f64 =
                (0..KS.len()).map(|ki| err[mi][m][ki] / n).sum::<f64>() / KS.len() as f64;
            if avg < best_base {
                best_base = avg;
                best_name = name.as_str();
            }
        }
        let ours_avg: f64 = ours.iter().sum::<f64>() / ours.len() as f64;
        println!(
            "  → ours vs best baseline ({best_name}): {:+.1}% error\n",
            100.0 * (ours_avg - best_base) / best_base
        );
    }

    write_csv("fig6.csv", "measure,method,k,error", &csv);
}

/// Cap sentences per item (keeps the dense baselines tractable); pairs
/// and groupings are rebuilt consistently.
fn truncate_sentences(ex: &mut ExtractedItem, cap: usize) {
    if ex.sentences.len() <= cap {
        return;
    }
    ex.sentences.truncate(cap);
    let (live_pairs, live_ids) = ex
        .sentences
        .last()
        .map_or((0, 0), |s| (s.pair_indices.end, s.tokens.end));
    ex.pairs.truncate(live_pairs);
    ex.token_ids.truncate(live_ids);
    ex.reviews = ex
        .reviews
        .iter()
        .map(|r| r.start.min(cap)..r.end.min(cap))
        .filter(|r| !r.is_empty())
        .collect();
}
