//! Configuration JSON never panics or aborts: deeply nested and randomly
//! mutated inputs to `EnergyModel`, `NocConfig` and `Architecture` come
//! back as typed errors (or, for a harmless mutation, a valid value).
//!
//! The parser recurses once per nesting level, so the deep cases also
//! pin its depth limit: without it, 100k `[` overflow the stack and abort
//! the whole process instead of failing one parse.

use neuromap::hw::arch::{Architecture, InterconnectKind};
use neuromap::hw::energy::EnergyModel;
use neuromap::hw::HwError;
use neuromap::noc::config::NocConfig;
use neuromap::noc::NocError;
use proptest::prelude::*;

mod common;

/// Parses `json` as all three types, asserting each fails with its typed
/// error or yields a value that passes its own validation.
fn parse_all(json: &str) -> Result<(), String> {
    match EnergyModel::from_json(json) {
        Ok(m) => prop_assert!(m.validate().is_ok(), "invalid model accepted: {m:?}"),
        Err(e) => prop_assert!(matches!(e, HwError::Config(_)), "untyped error {e:?}"),
    }
    match NocConfig::from_json(json) {
        Ok(c) => prop_assert!(c.validate().is_ok(), "invalid config accepted: {c:?}"),
        Err(e) => prop_assert!(
            matches!(e, NocError::InvalidConfig { .. }),
            "untyped error {e:?}"
        ),
    }
    // `Architecture` has no validating wrapper; its parse error is the
    // JSON layer's own type
    let _: Result<Architecture, serde_json::Error> = serde_json::from_str(json);
    Ok(())
}

/// Valid documents of each type, the seeds the mutations start from.
fn seeds() -> Vec<String> {
    let hier = Architecture::custom(
        8,
        16,
        InterconnectKind::Hier {
            chip_cols: 2,
            chip_rows: 1,
            link_latency: 4,
            link_width: 2,
        },
    )
    .expect("valid architecture");
    vec![
        EnergyModel::default().to_json(),
        NocConfig::default().to_json(),
        serde_json::to_string_pretty(&Architecture::cxquad()).expect("serializes"),
        serde_json::to_string(&hier).expect("serializes"),
    ]
}

#[test]
fn deeply_nested_json_is_a_typed_error() {
    for depth in [129, 1_000, 100_000] {
        let open = "[".repeat(depth);
        let balanced = open.clone() + &"]".repeat(depth);
        let objects = "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth);
        for json in [
            format!("{{\"link_flit_pj\": {open}"),
            format!("{{\"link_flit_pj\": {balanced}}}"),
            format!("{{\"buffer_depth\": {objects}}}"),
            open.clone(),
            balanced,
            objects,
        ] {
            parse_all(&json).unwrap_or_else(|e| panic!("depth {depth}: {e}"));
            assert!(EnergyModel::from_json(&json).is_err(), "depth {depth}");
            assert!(NocConfig::from_json(&json).is_err(), "depth {depth}");
            assert!(serde_json::from_str::<Architecture>(&json).is_err());
        }
    }
}

/// Characters a mutation inserts: JSON structure, digits, escapes, a
/// multi-byte character and a control character.
const ALPHABET: &[char] = &[
    '[', ']', '{', '}', '"', ',', ':', '-', '+', '.', 'e', '0', '9', '\\', 'u', 'n', 't', ' ', 'é',
    '\u{1}',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::cases(256)))]

    #[test]
    fn mutated_config_json_never_panics(
        seed in 0usize..4,
        edits in proptest::collection::vec((0u8..5, any::<u32>(), 0usize..20), 1..8),
    ) {
        let mut text: Vec<char> = seeds()[seed].chars().collect();
        for (kind, at, pick) in edits {
            let at = at as usize % (text.len() + 1);
            let c = ALPHABET[pick % ALPHABET.len()];
            match kind {
                0 if at < text.len() => {
                    text.remove(at);
                }
                1 => text.insert(at, c),
                2 if at < text.len() => text[at] = c,
                // a run of openers: nesting past the limit mid-document
                3 => text.splice(at..at, std::iter::repeat_n(c, 200 + pick * 10)).for_each(drop),
                _ => text.truncate(at),
            }
        }
        let json: String = text.into_iter().collect();
        parse_all(&json)?;
    }
}
