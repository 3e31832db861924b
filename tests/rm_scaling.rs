//! Property tests for the request manager's campaign hot path: across
//! random round sizes, file sizes, admission policies, checkpoint
//! cadences and fault schedules, one campaign per case must
//!
//! - keep the RM's incremental indexes equal to a plain scan (the
//!   `debug_assert!`s in `manager.rs`, live in this debug-built test),
//! - account every file as delivered or failed,
//! - end its checkpoint journal with the outcome's manifest, and
//! - deliver the same manifest as every other configuration that
//!   delivered the whole dataset, whatever its batch size, checkpoint
//!   cadence, policy or faults.
//!
//! Golden trace/manifest/journal pins for fixed inputs of the same
//! campaign (`tests/common`) live in `tests/determinism.rs`. Case count is `PROPTEST_CASES`-bounded
//! (default 96, CI runs 128).

mod common;

use common::run_campaign;
use esg::reqman::AdmissionPolicy;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Manifest of the first fully delivered campaign per dataset shape
/// `(files, bytes per file)`, which fixes the delivered set's names,
/// sizes and digests.
static FULL_MANIFESTS: Mutex<BTreeMap<(usize, u64), String>> = Mutex::new(BTreeMap::new());

proptest! {
    #[test]
    fn campaign_invariants_hold_across_configs(
        seed in 0u64..500,
        n in 4usize..40,
        size_step in 1u64..8,
        shape in 0usize..9,
        ckpt_every in 2u64..9,
        faults in prop::collection::vec((102u64..260, 5u64..25), 0..4),
    ) {
        // Sizes on a 4 MB grid: dataset shapes recur across cases, so the
        // cross-configuration manifest check below gets to bite, and files
        // stay in flight across monitor polls and marker ticks, so the
        // `live`/`progress` index checks see mid-transfer state.
        let bytes_per_file = size_step * 4_000_000;
        // `shape` fans out into policy x batching (3 x 3).
        let policy = [
            AdmissionPolicy::Fifo,
            AdmissionPolicy::ShortestFirst,
            AdmissionPolicy::SiteSpread,
        ][shape % 3];
        // batch: whole round at once, small rounds, or mid-size rounds.
        let batch = [n, 3, 8][shape / 3];

        let run = run_campaign(seed, n, bytes_per_file, policy, batch, ckpt_every, &faults)
            .expect("campaign completes by horizon");
        let (outcome, journal) = (run.outcome, run.journal);

        prop_assert_eq!(outcome.files_total, n);
        prop_assert_eq!(
            outcome.files_delivered + outcome.files_failed,
            n,
            "every file is delivered or failed"
        );
        prop_assert_eq!(outcome.rounds, n.div_ceil(batch));
        let complete = format!("complete manifest={}", outcome.manifest_sha256);
        prop_assert_eq!(
            journal.lines().last(),
            Some(complete.as_str()),
            "journal must end with the outcome's manifest"
        );

        if outcome.files_delivered == n {
            let mut seen = FULL_MANIFESTS.lock().unwrap();
            let first = seen
                .entry((n, bytes_per_file))
                .or_insert_with(|| outcome.manifest_sha256.clone());
            prop_assert_eq!(
                &outcome.manifest_sha256,
                &*first,
                "full-delivery manifest depends on the configuration"
            );
        }
    }
}
