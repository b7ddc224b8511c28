//! The byte-level `split_sentences` and `tokenize` against the
//! char-by-char implementations they replaced, kept here verbatim as the
//! oracle (apart from the single-initial fix: an initial is one *char*,
//! not one byte). The naive and interned extractors share this front
//! end, so this file is what checks it: on every sentence of seeded
//! doctors and phones corpora, and on random strings over an alphabet
//! chosen to break byte-level shortcuts.

use osa_datasets::{Corpus, CorpusConfig};
use osa_text::{split_sentences, tokenize};

mod oracle {
    /// The char-by-char tokenizer.
    pub fn tokenize(text: &str) -> Vec<String> {
        let mut buf = String::new();
        let mut spans = Vec::new();
        tokenize_into(text, &mut buf, &mut spans);
        spans
            .iter()
            .map(|&(a, b)| buf[a as usize..b as usize].to_owned())
            .collect()
    }

    fn tokenize_into(text: &str, buf: &mut String, spans: &mut Vec<(u32, u32)>) {
        buf.clear();
        spans.clear();
        let mut tok_start: Option<u32> = None;
        let mut it = text.chars().peekable();
        while let Some(ch) = it.next() {
            let joiner = (ch == '\'' || ch == '-')
                && tok_start.is_some()
                && it.peek().is_some_and(|c| c.is_alphanumeric());
            if ch.is_alphanumeric() || joiner {
                if tok_start.is_none() {
                    tok_start = Some(buf.len() as u32);
                }
                buf.extend(ch.to_lowercase());
            } else if let Some(start) = tok_start.take() {
                spans.push((start, buf.len() as u32));
            }
        }
        if let Some(start) = tok_start {
            spans.push((start, buf.len() as u32));
        }
    }

    const ABBREVIATIONS: &[&str] = &[
        "dr", "mr", "mrs", "ms", "prof", "vs", "etc", "e.g", "i.e", "st", "jr", "sr", "inc",
    ];

    /// The char-by-char sentence splitter.
    pub fn split_sentences(text: &str) -> Vec<String> {
        let mut sentences = Vec::new();
        let mut cur = String::new();
        let chars: Vec<char> = text.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let ch = chars[i];
            if ch == '\n' || ch == '!' || ch == '?' {
                if ch != '\n' {
                    cur.push(ch);
                }
                flush(&mut cur, &mut sentences);
            } else if ch == '.' {
                // Look back at the word preceding the period.
                let tail: String = cur
                    .chars()
                    .rev()
                    .take_while(|c| c.is_alphanumeric() || *c == '.')
                    .collect::<String>()
                    .chars()
                    .rev()
                    .collect::<String>()
                    .to_lowercase();
                let is_abbrev = ABBREVIATIONS.contains(&tail.trim_end_matches('.'))
                    || (tail.chars().count() == 1 && tail.chars().all(char::is_alphabetic));
                let decimal = tail.chars().all(|c| c.is_ascii_digit())
                    && !tail.is_empty()
                    && chars.get(i + 1).is_some_and(char::is_ascii_digit);
                cur.push('.');
                if !is_abbrev && !decimal {
                    flush(&mut cur, &mut sentences);
                }
            } else {
                cur.push(ch);
            }
            i += 1;
        }
        flush(&mut cur, &mut sentences);
        sentences
    }

    fn flush(cur: &mut String, out: &mut Vec<String>) {
        let s = cur.trim();
        // A sentence needs at least one letter to be worth keeping.
        if s.chars().any(char::is_alphabetic) {
            out.push(s.to_owned());
        }
        cur.clear();
    }
}

fn check(text: &str) {
    assert_eq!(
        split_sentences(text),
        oracle::split_sentences(text),
        "split_sentences({text:?})"
    );
    assert_eq!(tokenize(text), oracle::tokenize(text), "tokenize({text:?})");
}

#[test]
fn every_corpus_sentence_matches_the_oracle() {
    let mut sentences = 0usize;
    for seed in [1, 2, 3] {
        let doctors = Corpus::doctors(&CorpusConfig::doctors_small(), seed);
        let phones = Corpus::phones(&CorpusConfig::phones_small(), seed);
        for corpus in [&doctors, &phones] {
            for review in corpus.items.iter().flat_map(|it| &it.reviews) {
                check(&review.text);
                for s in split_sentences(&review.text) {
                    check(&s);
                    sentences += 1;
                }
            }
        }
    }
    assert!(sentences > 50_000, "only {sentences} sentences");
}

/// Pieces that stress the byte-level paths: non-BMP letters, a capital
/// whose lowercase is longer (`İ`), letters with no single-char
/// lowercase or uppercase (`ß`), a non-ASCII digit that is alphanumeric
/// but not an ASCII digit (`²`, `٣`), Unicode whitespace that `trim`
/// removes (U+00A0, U+2028), a combining mark, final-sigma context,
/// abbreviations in both cases, decimals, and joiners next to non-ASCII
/// letters.
const HOSTILE: &[&str] = &[
    "a", "Z", "q", "0", "7", " ", " ", ".", ".", "!", "?", "\n", "'", "-", "İ", "ß", "²", "٣",
    "\u{a0}", "\u{2028}", "\u{307}", "𝑨", "𒀀", "😀", "é", "É", "Σ", "K", "\t", ",", "Dr.", "dR.",
    "e.g.", "E.G.", "i.e.", "Inc.", "4.5", "12.", ".5", "'é", "-ß", "'𝑨", "-²", "x-", "don't",
    "x-ray", "É.", "İ.", "ß.", "𝑨.", "Σ.", "mr.", "st.",
];

#[test]
fn hostile_random_strings_match_the_oracle() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let mut text = String::new();
    for _ in 0..120_000 {
        text.clear();
        for _ in 0..next(24) {
            text.push_str(HOSTILE[next(HOSTILE.len())]);
        }
        check(&text);
    }
}

#[test]
fn fixed_edge_cases_match_the_oracle() {
    for text in [
        "",
        ".",
        "a.",
        "É.",
        "Émile É. Zola wrote.",
        "John F. Kennedy spoke.",
        "İ. Next one.",
        "It scored 4.5 stars. Nice.",
        "It scored 4.٣ stars.",
        "ends with a joiner-",
        "x-𝑨 don'é",
        "line one\nline two\u{2028}still two",
        "\u{a0}Dr. Who?\u{a0}",
        "ΌΣΟΣ. ΣΑΣ.",
    ] {
        check(text);
    }
}
