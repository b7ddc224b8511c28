//! Tokenization and sentence segmentation.
//!
//! Both work on bytes. The characters that decide a token or sentence
//! boundary in ASCII text (`\n ! ? . ' -` and ASCII alphanumerics) are
//! single bytes that never occur inside a multi-byte UTF-8 sequence, so
//! the loops test bytes and decode a `char` only at a byte `>= 0x80`.
//! The char-by-char implementations they replace are kept as the test
//! oracle in `tests/tokenize_oracle.rs`, which requires identical output.

use std::ops::Range;

/// Split text into lowercase word tokens. A token is a maximal run of
/// alphanumeric characters, apostrophes-in-words ("don't") or hyphens-in-
/// words ("x-ray"); everything else is a separator. Numbers are kept.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut buf = String::new();
    let mut spans = Vec::new();
    tokenize_into(text, &mut buf, &mut spans);
    spans
        .iter()
        .map(|&(a, b)| buf[a as usize..b as usize].to_owned())
        .collect()
}

/// Allocation-reusing tokenizer core: lowercased token text is appended to
/// `buf` and each token is recorded as a `(start, end)` byte span into it.
/// Both buffers are cleared first. Token semantics are identical to
/// [`tokenize`], which is a thin wrapper over this.
pub(crate) fn tokenize_into(text: &str, buf: &mut String, spans: &mut Vec<(u32, u32)>) {
    buf.clear();
    spans.clear();
    let bytes = text.as_bytes();
    let mut tok_start: Option<u32> = None;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphanumeric() {
            tok_start.get_or_insert(buf.len() as u32);
            buf.push(b.to_ascii_lowercase() as char);
            i += 1;
        } else if b.is_ascii() {
            let joiner = (b == b'\'' || b == b'-')
                && tok_start.is_some()
                && starts_alphanumeric(&text[i + 1..]);
            if joiner {
                buf.push(b as char);
            } else if let Some(start) = tok_start.take() {
                spans.push((start, buf.len() as u32));
            }
            i += 1;
        } else {
            let ch = text[i..].chars().next().expect("i is a char boundary");
            if ch.is_alphanumeric() {
                tok_start.get_or_insert(buf.len() as u32);
                buf.extend(ch.to_lowercase());
            } else if let Some(start) = tok_start.take() {
                spans.push((start, buf.len() as u32));
            }
            i += ch.len_utf8();
        }
    }
    if let Some(start) = tok_start {
        spans.push((start, buf.len() as u32));
    }
    osa_obs::global().add("text.tokens", spans.len() as u64);
}

/// Whether `s` begins with an alphanumeric character.
fn starts_alphanumeric(s: &str) -> bool {
    match s.as_bytes().first() {
        Some(b) if b.is_ascii() => b.is_ascii_alphanumeric(),
        Some(_) => s.chars().next().is_some_and(char::is_alphanumeric),
        None => false,
    }
}

/// Abbreviations whose trailing period does not end a sentence.
const ABBREVIATIONS: &[&str] = &[
    "dr", "mr", "mrs", "ms", "prof", "vs", "etc", "e.g", "i.e", "st", "jr", "sr", "inc",
];

/// Split text into sentences on `.`, `!`, `?` and newlines, with a small
/// abbreviation guard (so "Dr. Smith" stays in one sentence). Returns
/// trimmed, non-empty sentence strings. A thin wrapper over
/// [`sentence_spans_into`].
pub fn split_sentences(text: &str) -> Vec<String> {
    let mut spans = Vec::new();
    sentence_spans_into(text, &mut spans);
    spans.into_iter().map(|r| text[r].to_owned()).collect()
}

/// Allocation-reusing sentence splitter core: `spans` is cleared, then
/// receives the byte range of each sentence of `text` that
/// [`split_sentences`] returns, in order.
pub(crate) fn sentence_spans_into(text: &str, spans: &mut Vec<Range<usize>>) {
    spans.clear();
    let bytes = text.as_bytes();
    // The current sentence is `text[start..i]`: every char since the last
    // cut except a newline, which always cuts.
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let end = match b {
            b'\n' => i,
            b'!' | b'?' => i + 1,
            b'.' if !period_continues(&text[start..i], bytes.get(i + 1)) => i + 1,
            _ => continue,
        };
        push_sentence(text, start..end, spans);
        start = i + 1;
    }
    push_sentence(text, start..text.len(), spans);
}

/// Whether a period after `cur` (the current sentence so far) continues
/// the sentence: it ends an abbreviation, a single-letter initial, or
/// the integer part of a decimal whose next byte is `next`.
fn period_continues(cur: &str, next: Option<&u8>) -> bool {
    // The word before the period: its trailing alphanumerics and periods.
    let from = cur
        .char_indices()
        .rev()
        .take_while(|&(_, c)| c.is_alphanumeric() || c == '.')
        .last()
        .map_or(cur.len(), |(k, _)| k);
    let tail = &cur[from..];
    if !tail.is_ascii() {
        // Lowercasing can change a non-ASCII tail's length and chars, so
        // compare the exact lowercased form.
        let lower = tail.to_lowercase();
        let mut chars = lower.chars();
        let initial = chars.next().is_some_and(char::is_alphabetic) && chars.next().is_none();
        return initial || ABBREVIATIONS.contains(&lower.trim_end_matches('.'));
    }
    let word = tail.trim_end_matches('.');
    let is_abbrev = ABBREVIATIONS.iter().any(|a| a.eq_ignore_ascii_case(word))
        || (tail.len() == 1 && tail.as_bytes()[0].is_ascii_alphabetic());
    let decimal = !tail.is_empty()
        && tail.bytes().all(|c| c.is_ascii_digit())
        && next.is_some_and(u8::is_ascii_digit);
    is_abbrev || decimal
}

/// Keep the trimmed span of `text[span]` if it contains a letter.
fn push_sentence(text: &str, span: Range<usize>, out: &mut Vec<Range<usize>>) {
    let s = &text[span.clone()];
    let start = span.start + (s.len() - s.trim_start().len());
    let s = s.trim();
    if s.chars().any(char::is_alphabetic) {
        out.push(start..start + s.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_basics() {
        assert_eq!(
            tokenize("The screen, is GREAT!"),
            vec!["the", "screen", "is", "great"]
        );
    }

    #[test]
    fn tokenize_keeps_contractions_and_hyphens() {
        assert_eq!(tokenize("don't x-ray"), vec!["don't", "x-ray"]);
        // Trailing apostrophe is a separator.
        assert_eq!(tokenize("dogs' bone"), vec!["dogs", "bone"]);
    }

    #[test]
    fn tokenize_numbers() {
        assert_eq!(
            tokenize("battery lasts 12 hours"),
            vec!["battery", "lasts", "12", "hours"]
        );
    }

    #[test]
    fn tokenize_empty_and_symbols() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! --- ...").is_empty());
    }

    #[test]
    fn sentences_split_on_terminators() {
        let s = split_sentences("Great phone! Battery is weak. Would buy again?");
        assert_eq!(
            s,
            vec!["Great phone!", "Battery is weak.", "Would buy again?"]
        );
    }

    #[test]
    fn sentences_respect_abbreviations() {
        let s = split_sentences("Dr. Smith was kind. He listened.");
        assert_eq!(s, vec!["Dr. Smith was kind.", "He listened."]);
    }

    #[test]
    fn sentences_keep_decimals_together() {
        let s = split_sentences("It scored 4.5 stars. Nice.");
        assert_eq!(s, vec!["It scored 4.5 stars.", "Nice."]);
    }

    #[test]
    fn sentences_split_on_newlines() {
        let s = split_sentences("line one\nline two");
        assert_eq!(s, vec!["line one", "line two"]);
    }

    #[test]
    fn sentences_skip_letterless_fragments() {
        let s = split_sentences("... 123. Good phone.");
        assert_eq!(s, vec!["Good phone."]);
    }

    #[test]
    fn single_initial_is_abbreviation() {
        let s = split_sentences("John F. Kennedy spoke.");
        assert_eq!(s, vec!["John F. Kennedy spoke."]);
    }

    #[test]
    fn single_non_ascii_initial_is_abbreviation() {
        // "É" lowercases to a two-byte char: one char is an initial.
        let s = split_sentences("Émile É. Zola wrote.");
        assert_eq!(s, vec!["Émile É. Zola wrote."]);
        // Two chars before the period are a word, not an initial.
        let s = split_sentences("Il a dit ÉÉ. Zola wrote.");
        assert_eq!(s, vec!["Il a dit ÉÉ.", "Zola wrote."]);
    }
}
