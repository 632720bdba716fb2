//! Never-panic properties of [`Json::parse`]: any input parses to a value
//! or a typed error, however deep it nests.

use alexa_json::{Json, MAX_DEPTH};
use proptest::prelude::*;

/// JSON fragments, so generated inputs reach past the first byte of the
/// grammar: nesting, keys, escapes, surrogates, numbers and literals.
const TOKENS: &[&str] = &[
    "[", "]", "{", "}", ",", ":", "\"", "\"k\"", "\\", "\\u", "d83d", "dc00", "\\n", "0", "-",
    "1.5e3", "e", "true", "fals", "null", " ", "\n", "é", "\u{1}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parse_never_panics_on_token_soup(
        tokens in prop::collection::vec(prop::sample::select(TOKENS.to_vec()), 0..96),
    ) {
        let text = tokens.concat();
        if let Ok(value) = Json::parse(&text) {
            // Whatever parses renders to a document that parses again.
            prop_assert!(Json::parse(&value.render()).is_ok());
        }
    }

    #[test]
    fn nesting_past_the_cap_is_a_typed_error(
        depth in (MAX_DEPTH + 1)..(MAX_DEPTH * 512),
        open in prop::sample::select(vec!["[", "{\"k\": ", "[{\"k\": "]),
    ) {
        let err = Json::parse(&open.repeat(depth));
        prop_assert!(err.is_err_and(|e| e.message.contains("nesting")));
    }
}
