//! Fuzz-style property tests: the policy front end must never panic.
//!
//! Arbitrary byte soup, arbitrary token-ish text, and mutated canned
//! policies all have to flow through lex → parse → analyze → compile and
//! come out as either a value or a typed `PolicyError` — panics and stack
//! overflows are bugs.

use proptest::prelude::*;
use wiera_policy::diag::worst_is_deny;
use wiera_policy::{analyze_source, parser};

/// Run the full front end on arbitrary text; returns whether it parsed.
/// A spec that lints without a deny finding must also compile.
fn front_end_survives(src: &str) -> bool {
    let _ = wiera_policy::lexer::lex(src);
    let (spec, diags) = analyze_source(src);
    for d in &diags {
        // Rendering must not panic either, even against mismatched source.
        let _ = d.render_human(src, "fuzz");
        let _ = d.compact();
        let _ = d.to_json();
    }
    match spec {
        Some(spec) => {
            let compiled = wiera_policy::compile(&spec);
            if !worst_is_deny(&diags, false) {
                assert!(compiled.is_ok(), "lints clean but fails to compile: {src}");
            }
            true
        }
        None => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Raw bytes (interpreted lossily as UTF-8) never panic the pipeline.
    #[test]
    fn prop_arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes);
        front_end_survives(&src);
    }

    /// Text built from language fragments — much likelier to get deep into
    /// the parser and analyzer than raw bytes — never panics either.
    #[test]
    fn prop_fragment_soup_never_panics(parts in prop::collection::vec(
        prop::sample::select(vec![
            "Tiera", "Wiera", "T", "(", ")", "{", "}", ";", ":", "=", "==", ">",
            "&&", "||", "event", "response", "insert.into", "time", "t", "5G",
            "50%", "800 ms", "tier1", "tier2", "store", "copy", "move", "if",
            "else", "what", "to", "insert.object", "object.location",
            "Region1", "name", "size", "Memcached", "%comment\n", "\n", ",",
        ]),
        0..64,
    )) {
        front_end_survives(&parts.join(" "));
    }

    /// Canned paper policies with a window of bytes deleted still never
    /// panic — truncation mid-token, mid-rule, mid-region included.
    #[test]
    fn prop_mutated_canned_never_panics(
        which in 0usize..10,
        start in 0usize..2000,
        len in 1usize..200,
    ) {
        let (_, _, src) = wiera_policy::canned::ALL[which];
        let chars: Vec<char> = src.chars().collect();
        let start = start.min(chars.len());
        let end = (start + len).min(chars.len());
        let mutated: String = chars[..start].iter().chain(&chars[end..]).collect();
        front_end_survives(&mutated);
    }

    /// Deeply nested expressions error out instead of blowing the stack.
    #[test]
    fn prop_deep_nesting_is_an_error(depth in 1usize..600) {
        let src = format!(
            "Tiera T() {{ event(insert.into) : response {{ delete(what:{}object.dirty == true{}); }} }}",
            "(".repeat(depth),
            ")".repeat(depth),
        );
        let r = parser::parse(&src);
        if depth > 128 {
            prop_assert!(r.is_err());
        }
    }
}
