//! `user_scaling` executor: one trial = one point of the A10/A14 flow
//! scaling curve, running the sequential reference solver and the
//! parallel scratch-arena solver on the same seeded workload (plus the
//! full-recompute trace ablation where affordable), bitwise
//! equivalence-checked with in-run oracle probes — exactly
//! `scaling::run_curve_point`, which the pre-migration bin also called.

use super::TrialCtx;
use crate::journal::{MetricValue, TrialRecord};
use crate::scaling::{run_curve_point, trace_sha256_hex, PointReport};
use std::fmt::Write as _;

pub fn run(ctx: &TrialCtx) -> Result<TrialRecord, String> {
    let p = &ctx.params;
    let n = p.usize("n", 1200);
    let regions = p.usize("regions", 32);
    let full_ablation = p.bool("full_ablation", false);
    let oracle_probes = p.usize("oracle_probes", 8);
    let repeats = p.usize("repeats", 3);
    if !ctx.spec.faults.is_empty() {
        return Err("user_scaling does not take a spec fault schedule".into());
    }

    // run_curve_point panics on any equivalence violation; reaching the
    // return means every arm and every oracle probe matched bitwise.
    let point = run_curve_point(n, regions, ctx.seed, full_ablation, oracle_probes, repeats);

    let mut metrics = vec![
        ("n".to_string(), MetricValue::Num(point.n as f64)),
        (
            "regions".to_string(),
            MetricValue::Num(point.regions as f64),
        ),
        ("equivalent".to_string(), MetricValue::Num(1.0)),
        (
            "oracle_probes".to_string(),
            MetricValue::Num(point.par.oracle_probes_run as f64),
        ),
        (
            "recompute_passes".to_string(),
            MetricValue::Num(point.par.stats.recompute_passes as f64),
        ),
        (
            "components_solved".to_string(),
            MetricValue::Num(point.par.stats.components_solved as f64),
        ),
        (
            "flow_solves".to_string(),
            MetricValue::Num(point.par.stats.flow_solves as f64),
        ),
        (
            "parallel_batches".to_string(),
            MetricValue::Num(point.par.stats.parallel_batches as f64),
        ),
        (
            "peak_concurrent_flows".to_string(),
            MetricValue::Num(point.par.peak_concurrent as f64),
        ),
        (
            "trace_sha256".to_string(),
            MetricValue::Str(trace_sha256_hex(&point.par)),
        ),
        (
            "solver_parallel".to_string(),
            MetricValue::Str(point.par.solver.clone()),
        ),
    ];
    if point.full.is_some() {
        metrics.push(("full_ablation".to_string(), MetricValue::Num(1.0)));
    }

    let mut timing = vec![
        (
            "wall_ms_sequential".to_string(),
            point.seq.wall.as_secs_f64() * 1e3,
        ),
        (
            "wall_ms_parallel".to_string(),
            point.par.wall.as_secs_f64() * 1e3,
        ),
        (
            "peak_rss_kb_sequential".to_string(),
            point.seq.peak_rss_kb.unwrap_or(0) as f64,
        ),
        (
            "peak_rss_kb_parallel".to_string(),
            point.par.peak_rss_kb.unwrap_or(0) as f64,
        ),
    ];
    if let Some(f) = &point.full {
        timing.push((
            "wall_ms_full_recompute".to_string(),
            f.wall.as_secs_f64() * 1e3,
        ));
    }

    Ok(TrialRecord {
        key: crate::journal::TrialKey {
            variant: ctx.variant.clone(),
            seed: ctx.seed,
            rep: ctx.rep,
        },
        metrics,
        timing,
        fragment: Some(json_point(&point)),
        aux: vec![],
    })
}

/// One curve point as a single JSON line — byte-format-identical to the
/// pre-migration bin (keeps the committed file greppable and lets the
/// regression check stay dependency-free).
fn json_point(p: &PointReport) -> String {
    let mut s = String::new();
    write!(
        s,
        concat!(
            "{{\"n\": {}, \"regions\": {}, ",
            "\"wall_ms_sequential\": {:.3}, \"wall_ms_parallel\": {:.3}, "
        ),
        p.n,
        p.regions,
        p.seq.wall.as_secs_f64() * 1e3,
        p.par.wall.as_secs_f64() * 1e3,
    )
    .unwrap();
    match &p.full {
        Some(f) => write!(
            s,
            "\"wall_ms_full_recompute\": {:.3}, ",
            f.wall.as_secs_f64() * 1e3
        ),
        None => write!(s, "\"wall_ms_full_recompute\": null, "),
    }
    .unwrap();
    write!(
        s,
        concat!(
            "\"speedup_parallel_vs_sequential\": {:.3}, ",
            "\"peak_rss_kb_sequential\": {}, \"peak_rss_kb_parallel\": {}, ",
            "\"solver_parallel\": \"{}\", \"oracle_probes\": {}, ",
            "\"recompute_passes\": {}, \"components_solved\": {}, ",
            "\"flow_solves\": {}, \"parallel_batches\": {}, ",
            "\"peak_concurrent_flows\": {}, \"equivalent\": true, ",
            "\"trace_sha256\": \"{}\"}}"
        ),
        p.seq.wall.as_secs_f64() / p.par.wall.as_secs_f64().max(1e-9),
        p.seq.peak_rss_kb.unwrap_or(0),
        p.par.peak_rss_kb.unwrap_or(0),
        p.par.solver,
        p.par.oracle_probes_run,
        p.par.stats.recompute_passes,
        p.par.stats.components_solved,
        p.par.stats.flow_solves,
        p.par.stats.parallel_batches,
        p.par.peak_concurrent,
        trace_sha256_hex(&p.par),
    )
    .unwrap();
    s
}
