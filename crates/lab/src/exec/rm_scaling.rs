//! `rm_scaling` executor: one trial = one point of the A16
//! files-per-round scaling curve — a single replication campaign of `n`
//! single-step files, timed around the `run_until` that drives it
//! (best-of-`repeats`), with its trace, delivery manifest and checkpoint
//! journal hashed so every committed point doubles as a golden pin.

use super::TrialCtx;
use crate::journal::{MetricValue, TrialKey, TrialRecord};
use esg_reqman::CampaignOutcome;
use esg_simnet::SimTime;

/// The campaign's source dataset, replicated at two OC-12 sites so
/// admission has replicas to spread over.
const DS: &str = "pcm_rmscale.b06";

/// One timed campaign's harvest.
struct CampaignRun {
    wall_ms: f64,
    outcome: CampaignOutcome,
    trace_sha256: String,
    journal_sha256: String,
}

fn run_campaign(ctx: &TrialCtx, n: usize) -> Result<CampaignRun, String> {
    let ckpt = std::env::temp_dir().join(format!(
        "esg-lab-{}-{}-s{}-r{}.ckpt",
        ctx.spec.name, ctx.variant, ctx.seed, ctx.rep
    ));
    let (mut tb, outcome) = super::campaign_testbed(ctx, DS, "rm-scale", n, &ckpt, |_| {}, |_| {})?;

    let horizon = SimTime::from_secs(ctx.params.u64("horizon_s", 6000));
    let wall = std::time::Instant::now();
    tb.sim.run_until(horizon);
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    let outcome = outcome
        .borrow_mut()
        .take()
        .ok_or_else(|| format!("campaign did not finish by horizon (n={n})"))?;
    let journal =
        std::fs::read_to_string(&ckpt).map_err(|e| format!("read {}: {e}", ckpt.display()))?;
    let _ = std::fs::remove_file(&ckpt);
    Ok(CampaignRun {
        wall_ms,
        outcome,
        trace_sha256: crate::sha_hex(&tb.sim.world.rm.log.to_ulm()),
        journal_sha256: crate::sha_hex(&journal),
    })
}

pub fn run(ctx: &TrialCtx) -> Result<TrialRecord, String> {
    let p = &ctx.params;
    let n = p.usize("n", 100);
    let repeats = p.usize("repeats", 1);

    // Best-of wall; the sim is deterministic, so every repeat harvests
    // identical stats.
    let mut best = run_campaign(ctx, n)?;
    for _ in 1..repeats {
        best.wall_ms = best.wall_ms.min(run_campaign(ctx, n)?.wall_ms);
    }
    let o = &best.outcome;

    let counts = [
        ("n", n),
        ("files_total", o.files_total),
        ("files_delivered", o.files_delivered),
        ("rounds", o.rounds),
    ];
    let shas = [
        ("trace_sha256", &best.trace_sha256),
        ("manifest_sha256", &o.manifest_sha256),
        ("journal_sha256", &best.journal_sha256),
    ];
    let metrics = counts
        .iter()
        .map(|&(k, v)| (k.to_string(), MetricValue::Num(v as f64)))
        .chain(
            shas.iter()
                .map(|&(k, v)| (k.to_string(), MetricValue::Str(v.clone()))),
        )
        .collect();
    let frag = format!(
        concat!(
            "{{\"n\": {}, \"files_delivered\": {}, \"rounds\": {}, \"wall_ms\": {:.3}, ",
            "\"trace_sha256\": \"{}\", \"manifest_sha256\": \"{}\", \"journal_sha256\": \"{}\"}}"
        ),
        n, o.files_delivered, o.rounds, best.wall_ms, shas[0].1, shas[1].1, shas[2].1,
    );

    Ok(TrialRecord {
        key: TrialKey {
            variant: ctx.variant.clone(),
            seed: ctx.seed,
            rep: ctx.rep,
        },
        metrics,
        timing: vec![("wall_ms".into(), best.wall_ms)],
        fragment: Some(frag),
        aux: Vec::new(),
    })
}
