//! Never-panic properties of the campaign [`Plan::parse`]: any document,
//! well-formed or not, yields a plan or a typed [`PlanError`].

use alexa_obs::campaign::Plan;
use proptest::prelude::*;

/// Candidate values per plan field: valid ones, and ones each validation
/// rule must reject (wrong type, empty, duplicate, out of range).
const FIELDS: &[(&str, &[&str])] = &[
    (
        "schema",
        &["1", "2", "-1", "\"1\"", "1.5", "18446744073709551616"],
    ),
    ("name", &["\"smoke\"", "\"\"", "\"../x\"", "7", "\"a b\""]),
    ("scale", &["\"small\"", "\"paper\"", "\"huge\"", "[]"]),
    (
        "seeds",
        &["[7]", "[7, 1234]", "[]", "[7, 7]", "[-1]", "7", "[1e30]"],
    ),
    (
        "faults",
        &[
            "[\"none\"]",
            "[\"flaky\", \"uniform:0.5\"]",
            "[\"uniform:2\"]",
            "[\"uniform:nan\"]",
            "[\"mystery\"]",
            "[1]",
        ],
    ),
    (
        "defenses",
        &[
            "[\"none\", \"firewall\"]",
            "[\"text-only\"]",
            "[\"x\"]",
            "{}",
        ],
    ),
    (
        "jobs",
        &["[1, 4]", "[0]", "[99999999999999999999]", "[1, 1]"],
    ),
    (
        "backends",
        &[
            "[\"thread\"]",
            "[\"process\", \"mock-remote\"]",
            "[\"x\"]",
            "null",
        ],
    ),
    ("repeats", &["1", "0", "3", "4294967296", "true"]),
];

/// A plan document with some subset of fields, each set to one candidate.
/// A field is absent when its presence draw is 0; an out-of-range value
/// draw picks the first (valid) candidate, so many documents parse.
fn plan_text(picks: &[(u8, usize)]) -> String {
    let fields: Vec<String> = FIELDS
        .iter()
        .zip(picks)
        .filter(|(_, (presence, _))| *presence > 0)
        .map(|((key, values), (_, i))| {
            format!("\"{key}\": {}", values.get(*i).unwrap_or(&values[0]))
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let _ = Plan::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parse_never_panics_on_field_combinations(
        picks in prop::collection::vec((0u8..4, 0usize..12), 9..10),
        cut in 0usize..400,
    ) {
        let text = plan_text(&picks);
        if let Ok(plan) = Plan::parse(&text) {
            // A valid plan's canonical form parses back to the same plan.
            prop_assert_eq!(Plan::parse(&plan.to_json().render()), Ok(plan));
        }
        // Every prefix is rejected or accepted, never a panic.
        let _ = Plan::parse(&text[..cut.min(text.len())]);
    }
}
