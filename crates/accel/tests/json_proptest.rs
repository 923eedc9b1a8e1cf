//! Property tests for `accel::json::parse`, which reads files from
//! outside the program (`BENCH_history.jsonl`, timelines, reports): no
//! input may panic or overflow the stack, and every document the builder
//! writes parses back to the same value.

use proptest::prelude::*;
use pudiannao_accel::json::{parse, Value, MAX_DEPTH};

/// Fragments that keep a random document close to valid JSON, so the
/// parser gets deep into its containers, strings and numbers before it
/// meets the error.
const TOKENS: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    " ",
    "\"k\"",
    "\"\\u00e9\"",
    "\"\\ud83d\\ude00\"",
    "\"\\ud800\"",
    "\"\\x\"",
    "\"",
    "0",
    "-1",
    "18446744073709551616",
    "-9223372036854775809",
    "2.5e-3",
    "1e999",
    "-",
    ".",
    "e",
    "null",
    "true",
    "fals",
    "\n",
];

/// Builds a value tree from a stream of draws. Only shapes the builder
/// emits and `parse` reads back identically: `Int` only when negative
/// (a non-negative integer parses as `UInt`) and finite floats only.
fn build(draws: &mut impl Iterator<Item = u64>, depth: usize) -> Value {
    let d = draws.next().unwrap_or(0);
    let kind = if depth >= 5 { d % 6 } else { d % 8 };
    let payload = draws.next().unwrap_or(0);
    match kind {
        0 => Value::Null,
        1 => Value::Bool(payload & 1 == 1),
        2 => Value::UInt(payload),
        3 => Value::Int((payload >> 1) as i64 | i64::MIN),
        4 => {
            let x = f64::from_bits(payload);
            Value::Float(if x.is_finite() { x } else { payload as f64 / 7.0 })
        }
        5 => Value::Str(string_from(payload)),
        6 => Value::Array((0..payload % 4).map(|_| build(draws, depth + 1)).collect()),
        _ => Value::Object(
            (0..payload % 4)
                .map(|i| (string_from(payload.wrapping_mul(i + 1)), build(draws, depth + 1)))
                .collect(),
        ),
    }
}

/// A short string mixing ASCII, quotes, backslashes, control characters
/// and non-BMP code points, all derived from `seed`.
fn string_from(seed: u64) -> String {
    let picks = ['a', '"', '\\', '\n', '\u{1}', '\u{1f}', 'é', '\u{2028}', '😀', '/'];
    (0..seed % 7).map(|i| picks[((seed >> (i * 4)) % picks.len() as u64) as usize]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes (lossily decoded, as a file read would be) either
    /// parse or return an error.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    /// Token soup behind an arbitrary run of openers, including runs far
    /// past the depth cap, either parses or returns an error.
    #[test]
    fn near_json_and_deep_nesting_never_panic(
        open in 0usize..(64 * MAX_DEPTH),
        brace in any::<bool>(),
        tokens in proptest::collection::vec(0..TOKENS.len(), 0..64),
    ) {
        let opener = if brace { "{\"k\":" } else { "[" };
        let mut text = opener.repeat(open);
        for t in tokens {
            text.push_str(TOKENS[t]);
        }
        if let Err(err) = parse(&text) {
            prop_assert!(err.offset <= text.len());
        }
    }

    /// Whatever the builder writes, compact or pretty, parses back to the
    /// same value.
    #[test]
    fn builder_output_round_trips(draws in proptest::collection::vec(any::<u64>(), 1..64)) {
        let doc = build(&mut draws.into_iter(), 0);
        prop_assert_eq!(parse(&doc.to_string()).as_ref(), Ok(&doc));
        prop_assert_eq!(parse(&doc.to_string_pretty()).as_ref(), Ok(&doc));
    }
}
