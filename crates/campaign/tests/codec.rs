//! Properties of the JSON codec every artifact, cache entry and wire
//! line goes through: random value trees round-trip to byte-identical
//! text, damaged documents are refused without a panic, and parsing
//! stays linear in the document length.

use inpg_campaign::json::{self, Json, MAX_DEPTH};
use proptest::prelude::*;
use proptest::TestRng;
use std::time::Duration;

/// Characters a string is drawn from: ASCII, two-, three- and four-byte
/// UTF-8, every character with a named escape, `/` (escapable on input
/// only), DEL, and the C0 controls written as `\u00XX`.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', ' ', '/', '\u{7f}', 'é', 'ß', '中', '€', '𝄞', '😀', '"', '\\', '\n', '\r',
    '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1b}', '\u{1f}',
];

/// Random [`Json`] trees that the writer can represent exactly: no
/// non-finite floats (written as `null`) and no non-negative `Int`
/// (read back as `UInt`).
struct Trees {
    max_depth: usize,
}

fn pick(rng: &mut TestRng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

fn string(rng: &mut TestRng) -> String {
    let len = pick(rng, 12);
    (0..len).map(|_| ALPHABET[pick(rng, ALPHABET.len())]).collect()
}

fn float(rng: &mut TestRng) -> f64 {
    let v = match pick(rng, 6) {
        0 => pick(rng, 1 << 20) as f64 - 1e5, // whole
        1 => f64::from_bits(rng.below(1 << 52) + 1), // subnormal
        2 => -f64::from_bits(rng.below(1 << 52) + 1),
        3 => [0.0, -0.0, f64::MIN_POSITIVE, f64::MAX, f64::MIN, f64::EPSILON][pick(rng, 6)],
        4 => 1e300 * (pick(rng, 9) as f64 + 1.0), // whole, past u64
        _ => f64::from_bits(rng.next_u64()),
    };
    if v.is_finite() {
        v
    } else {
        0.5
    }
}

fn tree(rng: &mut TestRng, depth: usize) -> Json {
    let kinds = if depth == 0 { 6 } else { 8 };
    let kind = pick(rng, kinds);
    match kind {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64() & 1 == 1),
        2 => Json::UInt([0, 1, u64::MAX, rng.next_u64()][pick(rng, 4)]),
        3 => Json::Int([-1, i64::MIN, -((rng.next_u64() >> 1) as i64) - 1][pick(rng, 3)]),
        4 => Json::Num(float(rng)),
        5 => Json::Str(string(rng)),
        6 => Json::Arr((0..pick(rng, 4)).map(|_| tree(rng, depth - 1)).collect()),
        _ => Json::Obj((0..pick(rng, 4)).map(|_| (string(rng), tree(rng, depth - 1))).collect()),
    }
}

impl Strategy for Trees {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        // One in eight trees is a single chain nested to `max_depth`.
        if pick(rng, 8) == 0 {
            return (0..self.max_depth).fold(tree(rng, 0), |inner, level| {
                if level % 2 == 0 {
                    Json::Arr(vec![inner])
                } else {
                    Json::Obj(vec![(string(rng), inner)])
                }
            });
        }
        let depth = pick(rng, 6);
        tree(rng, depth)
    }
}

/// A valid document whose every strict prefix is invalid: an object.
fn document(rng: &mut TestRng) -> String {
    let fields = (0..pick(rng, 5) + 1).map(|_| (string(rng), tree(rng, 3))).collect();
    Json::Obj(fields).to_string_compact()
}

struct Documents;

impl Strategy for Documents {
    type Value = (String, u64);
    fn generate(&self, rng: &mut TestRng) -> (String, u64) {
        (document(rng), rng.next_u64())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_trees_roundtrip_to_identical_bytes(v in Trees { max_depth: MAX_DEPTH }) {
        let text = v.to_string_compact();
        let back = json::parse(&text).map_err(|e| format!("{e}: {text}"))?;
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(back.to_string_compact(), text);
    }

    #[test]
    fn truncated_documents_are_refused(doc in Documents) {
        let (text, cut) = doc;
        let mut end = (cut % text.len() as u64) as usize;
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        prop_assert!(json::parse(&text[..end]).is_err(), "prefix {end} parsed: {text}");
    }

    #[test]
    fn flipped_bytes_never_panic(doc in Documents) {
        let (text, dice) = doc;
        let mut bytes = text.into_bytes();
        let at = (dice % bytes.len() as u64) as usize;
        bytes[at] ^= ((dice >> 32) % 255 + 1) as u8;
        let damaged = String::from_utf8_lossy(&bytes);
        // A flip can land on a valid document (a digit turned into
        // another); whatever parses must then re-encode stably.
        if let Ok(v) = json::parse(&damaged) {
            let again = v.to_string_compact();
            prop_assert_eq!(json::parse(&again).map(|w| w.to_string_compact()), Ok(again));
        }
    }
}

#[test]
fn nesting_past_the_bound_is_refused_without_recursing() {
    let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
    assert!(json::parse(&ok).is_ok());
    let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
    assert!(json::parse(&deep).is_err());
    // Far past any thread's stack if the parser recursed per level.
    let hostile = "{\"a\":[".repeat(1 << 20);
    let err = json::parse(&hostile).expect_err("unbounded nesting");
    assert!(err.msg.contains("nesting"), "{err}");
}

#[test]
fn a_256_kib_string_parses_in_linear_time() {
    // Mixed one- and multi-byte text with an escape every 4 KiB.
    let unit = "plain ascii text, ünïcödé, 中文, 𝄞 ";
    let mut body = String::new();
    while body.len() < 256 * 1024 {
        body.push_str(unit);
        if body.len() % 4096 < unit.len() {
            body.push('\n');
        }
    }
    let text = Json::Str(body.clone()).to_string_compact();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(json::parse(&text));
    });
    // A linear parse takes milliseconds even in a debug build; one that
    // re-validates the rest of the input per character takes seconds.
    let parsed = rx
        .recv_timeout(Duration::from_millis(500))
        .expect("a 256 KiB string must parse well within 500 ms");
    assert_eq!(parsed.expect("valid"), Json::Str(body));
}
