//! The campaign checkpoint/resume law (property-based).
//!
//! A campaign killed after `k` of `n` cases — possibly with a torn
//! trailing line from a mid-write kill — and then resumed must produce a
//! `store.jsonl` **byte-identical** to an uninterrupted run of the same
//! spec. Same seeds ⇒ same store bytes: the store is a pure function of
//! the spec, never of the kill schedule.

use std::path::PathBuf;

use proptest::prelude::*;
use rmac::campaign::{run_campaign, CampaignSpec, FaultAxis, RunOptions, ScenarioKind};
use rmac::prelude::*;

/// A small campaign with more than one axis so the canonical order is
/// non-trivial: 2 protocols × 2 seeds = 4 cases.
fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "resume-prop".into(),
        protocols: vec![Protocol::Rmac, Protocol::Bmmm],
        scenarios: vec![ScenarioKind::Stationary],
        rates: vec![20.0],
        seeds: vec![0, 1],
        faults: vec![FaultAxis::none()],
        packets: 5,
        nodes: 8,
        shards: 0,
        obs: true,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("rmac-campaign-prop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kill after `k` cases, tear `torn` bytes of garbage onto the store
    /// tail, resume — bytes must match the uninterrupted run exactly.
    #[test]
    fn killed_campaign_resumes_bit_identically(k in 0usize..4, torn in 0usize..20) {
        let spec = spec();
        let quiet = RunOptions { quiet: true, ..Default::default() };

        let full = tmp_dir(&format!("full-{k}-{torn}"));
        let out = run_campaign(&spec, &full, &quiet).expect("uninterrupted run");
        prop_assert!(out.complete);
        prop_assert_eq!(out.total, 4);

        let part = tmp_dir(&format!("part-{k}-{torn}"));
        // One case per chunk so max_cases = exact kill point.
        let interrupted = run_campaign(
            &spec,
            &part,
            &RunOptions { max_cases: Some(k), chunk: 1, quiet: true },
        )
        .expect("interrupted run");
        prop_assert_eq!(interrupted.executed, k);
        prop_assert_eq!(interrupted.complete, k == 4);

        if torn > 0 {
            // A mid-write kill leaves a torn trailing line.
            let store = part.join("store.jsonl");
            let mut bytes = std::fs::read(&store).unwrap_or_default();
            bytes.extend(std::iter::repeat_n(b'{', torn));
            std::fs::write(&store, &bytes).expect("tear the store tail");
        }

        let resumed = run_campaign(&spec, &part, &quiet).expect("resumed run");
        prop_assert!(resumed.complete);
        prop_assert_eq!(resumed.resumed, k);
        prop_assert_eq!(resumed.records.len(), 4);

        let full_store = std::fs::read(full.join("store.jsonl")).expect("full store");
        let part_store = std::fs::read(part.join("store.jsonl")).expect("resumed store");
        prop_assert_eq!(
            full_store, part_store,
            "resumed store bytes diverge from the uninterrupted run (k={}, torn={})", k, torn
        );

        let _ = std::fs::remove_dir_all(&full);
        let _ = std::fs::remove_dir_all(&part);
    }
}
