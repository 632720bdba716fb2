//! Property test: `MockRemoteBackend` retry sequences are a pure function of
//! (seed, fault profile, specs) — poll interleaving, worker count, and the
//! order shards are offered in must not change outcomes or stats.

use alexa_exec::{Backend, BackendRun, MockRemoteBackend, ShardOutcome, ShardSpec};
use alexa_fault::FaultProfile;
use proptest::prelude::*;

fn specs(n: usize) -> Vec<ShardSpec> {
    (0..n)
        .map(|i| ShardSpec {
            group: "persona".to_string(),
            index: i,
            label: format!("persona-{i}"),
            payload: i.to_string().into_bytes(),
        })
        .collect()
}

fn exec(spec: &ShardSpec) -> Result<Vec<u8>, String> {
    let n: u64 = std::str::from_utf8(&spec.payload)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "bad payload".to_string())?;
    Ok(n.wrapping_mul(0x9e3779b97f4a7c15).to_le_bytes().to_vec())
}

fn profile(name: &str) -> FaultProfile {
    match name {
        "none" => FaultProfile::none(),
        "flaky" => FaultProfile::flaky(),
        "degraded" => FaultProfile::degraded(),
        _ => FaultProfile::hostile(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn retry_sequences_ignore_poll_interleaving(
        seed in prop::sample::select(vec![7u64, 1234, 2222, 0xdead_beef]),
        profile_name in prop::sample::select(vec!["none", "flaky", "degraded", "hostile"]),
        jobs in 1usize..9,
        rotate in 0usize..13,
        n in 1usize..14,
    ) {
        let backend = MockRemoteBackend::new(seed, profile(profile_name));
        // Sequential reference: one worker, structural submission order.
        let reference: BackendRun = backend.run(Some(1), specs(n), &exec).unwrap();

        // Vary the interleaving two ways at once: worker count (completion
        // order) and submission order (queue order).
        let mut shuffled = specs(n);
        shuffled.rotate_left(rotate % n);
        let run = backend.run(Some(jobs), shuffled, &exec).unwrap();

        prop_assert_eq!(&reference, &run);
        prop_assert_eq!(run.outcomes.len(), n);
        for (i, outcome) in run.outcomes.iter().enumerate() {
            prop_assert_eq!(outcome.index(), i);
        }
        prop_assert_eq!(run.stats.shards, n as u64);
        prop_assert_eq!(run.stats.committed + run.stats.lost, n as u64);
        if profile_name == "none" {
            prop_assert_eq!(run.stats.lost, 0);
            prop_assert!(run.outcomes.iter().all(|o| matches!(o, ShardOutcome::Done(_))));
        }
    }
}
