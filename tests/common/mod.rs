//! The small faulted replication campaign shared by the `rm_scaling`
//! property and the golden pins in `determinism.rs`.
#![allow(dead_code)] // each test binary uses its own subset

use esg::core::esg_testbed;
use esg::reqman::{start_campaign, AdmissionPolicy, CampaignOutcome, CampaignSpec};
use esg::simnet::prelude::{inject_all, Fault, FaultKind};
use esg::simnet::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

const DS: &str = "pcm_rmprop.b06";

static RUN: AtomicUsize = AtomicUsize::new(0);

/// What a finished campaign leaves behind.
pub struct CampaignRun {
    pub outcome: CampaignOutcome,
    /// The checkpoint journal's text.
    pub journal: String,
    /// The RM's ULM trace.
    pub trace: String,
}

/// One campaign sim: `n` files at sites 1 and 3, replicated to site 4 in
/// rounds of `batch`, with marker ticks every `ckpt_every` s and node
/// outages `(at_s, for_s)` only ever hitting site 1, so a clean source
/// always survives. `None` if the campaign has not finished by t=900 s.
pub fn run_campaign(
    seed: u64,
    n: usize,
    bytes_per_file: u64,
    policy: AdmissionPolicy,
    batch: usize,
    ckpt_every: u64,
    faults: &[(u64, u64)],
) -> Option<CampaignRun> {
    let ckpt = std::env::temp_dir().join(format!(
        "esg-rm-campaign-{}-{}.ckpt",
        std::process::id(),
        RUN.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&ckpt);
    let mut tb = esg_testbed(seed);
    tb.publish_dataset(DS, n, 1, bytes_per_file, &[1, 3]);
    let collection = tb.sim.world.metadata.collection_of(DS).unwrap();
    tb.sim.world.rm.scheduler.policy = policy;
    tb.start_nws(SimDuration::from_secs(25));
    tb.sim.run_until(SimTime::from_secs(100));

    let schedule: Vec<Fault> = faults
        .iter()
        .map(|&(at, dur)| {
            Fault::new(
                SimTime::from_secs(at),
                SimDuration::from_secs(dur),
                FaultKind::NodeDown(tb.sites[1].node),
            )
        })
        .collect();
    inject_all(&mut tb.sim, &schedule);

    let target = tb.sites[4].host.clone();
    let mut spec = CampaignSpec::new("rm-prop", collection, target);
    spec.batch_files = batch;
    spec.checkpoint = Some(ckpt.clone());
    spec.checkpoint_every = SimDuration::from_secs(ckpt_every);
    let done: Rc<RefCell<Option<CampaignOutcome>>> = Rc::new(RefCell::new(None));
    let sink = Rc::clone(&done);
    tb.sim.schedule_at(SimTime::from_secs(105), move |sim| {
        start_campaign(sim, spec, move |_, o| *sink.borrow_mut() = Some(o));
    });

    tb.sim.run_until(SimTime::from_secs(900));

    let journal = std::fs::read_to_string(&ckpt).unwrap_or_default();
    let _ = std::fs::remove_file(&ckpt);
    let outcome = done.borrow_mut().take()?;
    Some(CampaignRun {
        outcome,
        journal,
        trace: tb.sim.world.rm.log.to_ulm(),
    })
}
