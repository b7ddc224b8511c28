//! Extraction-stage shoot-out: the naive per-token `String` / trie-walk
//! oracle vs the interned engine (token interner + Aho–Corasick concept
//! automatons + memoized stemming) on the large doctors and phones
//! corpora — the two summarize workloads where extraction dominates the
//! per-item stage time.
//!
//! Besides the Criterion groups, a whole-corpus sweep with per-item
//! wall-clock percentiles is written to `BENCH_extract.json` at the
//! workspace root (Criterion's summary has no percentiles), so the
//! snapshot the docs quote is regenerated by `cargo bench -p osa-bench
//! --bench extract_stage`.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use osa_datasets::{Corpus, CorpusConfig, ExtractImpl, Extractor};
use osa_text::ExtractScratch;

/// Per-item extraction wall-clock in µs over the whole corpus, with the
/// scratch reused across items exactly like the batch runtime does.
fn per_item_micros(corpus: &Corpus, ex: &Extractor, which: ExtractImpl) -> Vec<f64> {
    let mut scratch = ExtractScratch::default();
    corpus
        .items
        .iter()
        .map(|item| {
            let t = Instant::now();
            let out = ex.extract(item, which, &mut scratch);
            let us = t.elapsed().as_secs_f64() * 1e6;
            assert!(!out.sentences.is_empty(), "extraction produced sentences");
            us
        })
        .collect()
}

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

struct Row {
    corpus: String,
    which: &'static str,
    items: usize,
    total_ms: f64,
    mean_us: f64,
    p50_us: f64,
    p95_us: f64,
}

/// The two extraction engines, with the label each row reports.
const IMPLS: [(&str, ExtractImpl); 2] = [
    ("naive", ExtractImpl::Naive),
    ("interned", ExtractImpl::Interned),
];

fn measure(
    corpus: &Corpus,
    label: &str,
    ex: &Extractor,
    (name, which): (&'static str, ExtractImpl),
) -> Row {
    // One untimed warm-up pass (page in the corpus, size the scratch).
    let _ = per_item_micros(corpus, ex, which);
    let mut us = per_item_micros(corpus, ex, which);
    let total_ms = us.iter().sum::<f64>() / 1e3;
    let mean_us = us.iter().sum::<f64>() / us.len() as f64;
    us.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    Row {
        corpus: label.to_owned(),
        which: name,
        items: corpus.items.len(),
        total_ms,
        mean_us,
        p50_us: percentile(&us, 50.0),
        p95_us: percentile(&us, 95.0),
    }
}

fn write_snapshot(rows: &[Row]) {
    let mut out = String::from("{\n  \"bench\": \"extract_stage\",\n  \"unit\": \"wall-clock per item, 1 worker\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"corpus\": \"{}\", \"impl\": \"{}\", \"items\": {}, \"total_ms\": {:.1}, \"mean_us\": {:.1}, \"p50_us\": {:.1}, \"p95_us\": {:.1}}}{sep}\n",
            r.corpus, r.which, r.items, r.total_ms, r.mean_us, r.p50_us, r.p95_us
        ));
    }
    out.push_str("  ],\n  \"p50_speedup\": {\n");
    let corpora: Vec<&str> = {
        let mut seen = Vec::new();
        for r in rows {
            if !seen.contains(&r.corpus.as_str()) {
                seen.push(r.corpus.as_str());
            }
        }
        seen
    };
    for (i, c) in corpora.iter().enumerate() {
        let p50_of = |which: &str| {
            rows.iter()
                .find(|r| r.corpus == *c && r.which == which)
                .map_or(f64::NAN, |r| r.p50_us)
        };
        let sep = if i + 1 == corpora.len() { "" } else { "," };
        out.push_str(&format!(
            "    \"{c}\": {:.2}{sep}\n",
            p50_of("naive") / p50_of("interned")
        ));
    }
    out.push_str("  }\n}\n");
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_extract.json");
    std::fs::write(&path, out).expect("write BENCH_extract.json");
    eprintln!("wrote {}", path.display());
}

fn bench_extract_stage(c: &mut Criterion) {
    let corpora = [
        (
            "doctors_large",
            Corpus::doctors(&CorpusConfig::doctors_large(), 11),
        ),
        (
            "phones_large",
            Corpus::phones(&CorpusConfig::phones_large(), 12),
        ),
    ];
    let mut rows = Vec::new();
    for (label, corpus) in &corpora {
        let ex = Extractor::from_hierarchy(&corpus.hierarchy);
        let item = &corpus.items[0];
        let mut group = c.benchmark_group(format!("extract/{label}"));
        group.sample_size(10);
        for (name, which) in IMPLS {
            group.bench_with_input(BenchmarkId::new(name, "item0"), &which, |b, &w| {
                let mut scratch = ExtractScratch::default();
                b.iter(|| ex.extract(item, w, &mut scratch));
            });
        }
        group.finish();
        for imp in IMPLS {
            rows.push(measure(corpus, label, &ex, imp));
        }
    }
    write_snapshot(&rows);
}

criterion_group!(benches, bench_extract_stage);
criterion_main!(benches);
