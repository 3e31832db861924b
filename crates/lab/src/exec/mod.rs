//! Scenario executors: one module per scenario *kind*.
//!
//! An executor is the imperative half of a spec — it builds the
//! simulated world from the merged trial parameters, runs it, and
//! returns a `TrialRecord`. The migrated executors reproduce their
//! pre-migration bench bins operation-for-operation (same construction
//! order, same RNG streams, same event schedule), so the golden trace
//! pins and committed `BENCH_*.json` baselines carry over bit-for-bit —
//! `tests/lab_equivalence.rs` at the workspace root holds inline copies
//! of the old bin logic and asserts exactly that.

use crate::gate::Baseline;
use crate::journal::TrialRecord;
use crate::json::Json;
use crate::spec::{FaultSpec, Params, ScenarioSpec};
use esg_core::scenario::{EsgTestbed, Site};
use esg_reqman::{start_campaign, CampaignOutcome, CampaignSpec, RequestManager};
use esg_simnet::prelude::{inject_all, Fault, FaultKind};
use esg_simnet::{SimDuration, SimTime};
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;

pub mod campaign;
pub mod lifeline;
pub mod mixed;
pub mod pipeline;
pub mod rm_profile;
pub mod rm_scaling;
pub mod soak;
pub mod table1;
pub mod user_scaling;

/// One trial's resolved inputs: the spec, the merged (base + variant
/// override) parameters, and the matrix coordinates.
pub struct TrialCtx<'a> {
    pub spec: &'a ScenarioSpec,
    pub params: Params,
    pub variant: String,
    pub seed: u64,
    pub rep: u32,
}

/// Dispatch a trial to its kind's executor.
pub fn run_trial(ctx: &TrialCtx) -> Result<TrialRecord, String> {
    let mut record = match ctx.spec.kind.as_str() {
        "user_scaling" => user_scaling::run(ctx),
        "request_pipeline" => pipeline::run(ctx),
        "lifeline" => lifeline::run(ctx),
        "soak_faults" => soak::run_faults(ctx),
        "soak_corruption" => soak::run_corruption(ctx),
        "campaign_soak" => campaign::run(ctx),
        "rm_scaling" => rm_scaling::run(ctx),
        "rm_profile" => rm_profile::run(ctx),
        "table1" => table1::run(ctx),
        other => Err(format!("unknown scenario kind '{other}'")),
    }?;
    record.sort_metrics();
    Ok(record)
}

/// Assemble the committed `BENCH_*.json` artifact from the finished rows
/// (byte-format-identical to what the pre-migration bin wrote). Kinds
/// without an artifact return `None`.
pub fn assemble_artifact(spec: &ScenarioSpec, rows: &[TrialRecord]) -> Option<String> {
    match spec.kind.as_str() {
        "user_scaling" => {
            let clients = crate::scaling::CLIENTS_PER_REGION;
            let extra = format!("  \"clients_per_region\": {clients},\n");
            curve_artifact("user_scaling_curve", spec, &extra, rows)
        }
        "request_pipeline" => pipeline::assemble(spec, rows),
        "lifeline" => lifeline::assemble(rows),
        "campaign_soak" => campaign::assemble(spec, rows),
        "rm_scaling" => curve_artifact("rm_scaling_curve", spec, "", rows),
        "rm_profile" => curve_artifact("rm_profile", spec, "", rows),
        _ => None,
    }
}

/// A committed curve artifact: the `bench` name, the spec's first seed,
/// any `extra` header lines, then one `points` entry per row fragment in
/// row order, one line each.
fn curve_artifact(
    bench: &str,
    spec: &ScenarioSpec,
    extra: &str,
    rows: &[TrialRecord],
) -> Option<String> {
    let mut json = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"seed\": {},\n{extra}  \"points\": [\n",
        spec.seeds.first().copied().unwrap_or(17),
    );
    let fragments: Vec<&str> = rows.iter().filter_map(|r| r.fragment.as_deref()).collect();
    for (i, frag) in fragments.iter().enumerate() {
        json.push_str("    ");
        json.push_str(frag);
        json.push_str(if i + 1 < fragments.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    Some(json)
}

/// Extract per-variant baseline metrics from a committed artifact, for
/// `wall_regression` gates.
pub fn baseline_metrics(spec: &ScenarioSpec, artifact: &Json) -> Result<Baseline, String> {
    match spec.kind.as_str() {
        "user_scaling" => {
            curve_baseline(spec, artifact, &["wall_ms_sequential", "wall_ms_parallel"])
        }
        "request_pipeline" => pipeline::baseline(artifact),
        "rm_scaling" => curve_baseline(spec, artifact, &["wall_ms"]),
        other => Err(format!("kind '{other}' has no baseline extractor")),
    }
}

/// Baseline from a curve artifact: match each spec variant to the
/// committed point with the same `n` and expose its `keys`.
fn curve_baseline(spec: &ScenarioSpec, artifact: &Json, keys: &[&str]) -> Result<Baseline, String> {
    let points = artifact
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("baseline has no points array")?;
    let mut out = Baseline::new();
    for v in spec.effective_variants() {
        let n = spec.params.merged(&v.overrides).u64("n", 0);
        let Some(point) = points
            .iter()
            .find(|p| p.get("n").and_then(Json::as_u64) == Some(n))
        else {
            continue; // gate reports the missing variant as an explicit error
        };
        let m = keys
            .iter()
            .filter_map(|&k| Some((k.to_string(), point.get(k).and_then(Json::as_f64)?)))
            .collect();
        out.insert(v.name.clone(), m);
    }
    Ok(out)
}

/// Translate a spec-level declarative fault schedule into simnet faults
/// against a testbed's site list. Applied *in addition to* whatever
/// seeded faults the scenario kind generates itself.
pub fn spec_faults(faults: &[FaultSpec], sites: &[Site]) -> Result<Vec<Fault>, String> {
    let site_node = |i: usize| {
        sites.get(i).map(|s| s.node).ok_or(format!(
            "fault site {i} out of range ({} sites)",
            sites.len()
        ))
    };
    faults
        .iter()
        .map(|f| {
            Ok(match *f {
                FaultSpec::NodeDown { at_s, for_s, site } => Fault::new(
                    SimTime::from_secs(at_s),
                    SimDuration::from_secs(for_s),
                    FaultKind::NodeDown(site_node(site)?),
                ),
                FaultSpec::NameServiceDown { at_s, for_s } => Fault::new(
                    SimTime::from_secs(at_s),
                    SimDuration::from_secs(for_s),
                    FaultKind::NameServiceDown,
                ),
                FaultSpec::WireCorrupt { at_s, for_s, site } => Fault::new(
                    SimTime::from_secs(at_s),
                    SimDuration::from_secs(for_s),
                    FaultKind::WireCorrupt(site_node(site)?),
                ),
            })
        })
        .collect()
}

/// Filled by a campaign's completion callback.
pub type CampaignSlot = Rc<RefCell<Option<CampaignOutcome>>>;

/// Site the A16/A17 campaigns replicate to (the OC-3 portal).
const CAMPAIGN_TARGET_SITE: usize = 4;

/// The replication campaign behind `rm_scaling` and `rm_profile`: `n`
/// single-step files of dataset `ds` published at the two OC-12 sites
/// (1 and 3), NWS warmed up to t=100 s, the spec's faults injected, and
/// campaign `name` over the whole collection to the portal, checkpointing
/// to `ckpt` (removed first), scheduled to start at t=105 s. `configure_rm`
/// runs before the NWS warm-up, `configure_spec` just before scheduling.
/// Reads the `bytes_per_file`, `max_active`, `batch_files` (0 = one round
/// of all `n`) and `checkpoint_every_s` parameters.
pub fn campaign_testbed(
    ctx: &TrialCtx,
    ds: &str,
    name: &str,
    n: usize,
    ckpt: &Path,
    configure_rm: impl FnOnce(&mut RequestManager),
    configure_spec: impl FnOnce(&mut CampaignSpec),
) -> Result<(EsgTestbed, CampaignSlot), String> {
    let p = &ctx.params;
    let batch = match p.usize("batch_files", 0) {
        0 => n,
        b => b,
    };

    let mut tb = esg_core::esg_testbed(ctx.seed);
    tb.publish_dataset(ds, n, 1, p.u64("bytes_per_file", 1_000_000), &[1, 3]);
    {
        let rm = &mut tb.sim.world.rm;
        rm.scheduler.max_active_per_request = p.usize("max_active", 24);
        configure_rm(rm);
    }
    tb.start_nws(SimDuration::from_secs(25));
    tb.sim.run_until(SimTime::from_secs(100));

    let faults = spec_faults(&ctx.spec.faults, &tb.sites)?;
    inject_all(&mut tb.sim, &faults);

    let coll = tb
        .sim
        .world
        .metadata
        .collection_of(ds)
        .map_err(|e| format!("collection_of: {e}"))?;
    let target = tb.sites[CAMPAIGN_TARGET_SITE].host.clone();
    let _ = std::fs::remove_file(ckpt);

    let mut spec = CampaignSpec::new(name, coll, target);
    spec.batch_files = batch;
    spec.checkpoint = Some(ckpt.to_path_buf());
    spec.checkpoint_every = SimDuration::from_secs(p.u64("checkpoint_every_s", 1));
    configure_spec(&mut spec);
    let outcome: CampaignSlot = Rc::new(RefCell::new(None));
    let sink = Rc::clone(&outcome);
    tb.sim.schedule_at(SimTime::from_secs(105), move |sim| {
        start_campaign(sim, spec, move |_, o| *sink.borrow_mut() = Some(o));
    });
    Ok((tb, outcome))
}
