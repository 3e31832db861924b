//! The repository benchmark: one command that drives the ESG-I stack
//! end to end on one workload and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign|interactive|fanout --seed N --seconds S --trace 0|1
//! ```
//!
//! A run repeats the workload (set-up, timed run, harvest) until `S`
//! seconds have passed and reports medians. `--trace 0` prints the
//! end-to-end metrics with tracing off; `--trace 1` alternates untraced
//! and traced repetitions and prints the per-layer metrics. The last line
//! of standard output is one JSON object; the line before it records the
//! run's provenance. A correctness failure exits with code 1. See
//! `perfbench/README.md` for the workloads and the metric map.

mod layers;
mod stats;
mod workloads;

use layers::{add_file_probe, catalog_layers, traced_layers, CatalogProbe};
use stats::{median, peak_rss_mb, quantile, reset_peak_rss};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{published_catalog, setup, SimResult, Sizes, Workload};

/// A named metric with its unit and value.
type Metric = (&'static str, &'static str, f64);

/// Fewest repetitions of each kind a run makes, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Set-ups timed per repetition.
const SETUPS_PER_REP: usize = 3;

/// One repetition of a workload.
struct Rep {
    /// One entry per set-up.
    setup_s: Vec<f64>,
    wall_s: f64,
    peak_rss_mb: f64,
    sim: SimResult,
    /// Per-layer metrics, on traced repetitions.
    layers: Vec<Metric>,
}

/// Set up, run and harvest `workload` once. `traced` turns the subsystem
/// profiler on around the run; `probe` also times the catalog layer.
fn one_rep(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    scratch: &Path,
    traced: bool,
    probe: bool,
) -> Rep {
    // Set up several times and keep the last bed: set-up is short, so one
    // sample per repetition would leave its median noisy.
    let mut setup_s = Vec::with_capacity(SETUPS_PER_REP);
    let mut bed = None;
    for _ in 0..SETUPS_PER_REP {
        drop(bed.take());
        reset_peak_rss();
        let t = Instant::now();
        bed = Some(setup(workload, seed, sizes, scratch));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut bed = bed.expect("at least one set-up");

    let mut catalog = CatalogProbe::default();
    if probe {
        if let Some((sim, coll)) = bed.esg() {
            catalog = CatalogProbe::run(&sim.world.rm.catalog, coll);
        }
    }

    if traced {
        esg_simnet::profile::start();
    }
    let t = Instant::now();
    bed.run();
    let wall_s = t.elapsed().as_secs_f64();
    let report = traced.then(esg_simnet::profile::stop);
    let peak_rss_mb = peak_rss_mb();

    let (sim, journal_lines) = bed.harvest();
    let mut layers = Vec::new();
    if let Some(report) = &report {
        layers = traced_layers(&bed, report, journal_lines);
        layers.push(("netlogger.events", "count", sim.trace_events as f64));
        layers.push(("netlogger.ulm_bytes", "B", sim.trace_ulm_bytes as f64));
    }
    if probe {
        layers.extend(probe_catalog(&mut bed, workload, seed, catalog));
    }
    eprintln!(
        "perfbench: {} seed {seed} traced {traced}: setup {:.4} s, run {wall_s:.4} s, peak {peak_rss_mb:.1} MB",
        workload.name(),
        median(&setup_s),
    );
    Rep {
        setup_s,
        wall_s,
        peak_rss_mb,
        sim,
        layers,
    }
}

/// The catalog half of the traced run: lookups and directory searches
/// after set-up (`after_setup`) and again after the run, the write path,
/// and the same lookups on a catalog one third the size. All zero on a
/// workload without a catalog.
fn probe_catalog(
    bed: &mut workloads::Bed,
    workload: Workload,
    seed: u64,
    after_setup: CatalogProbe,
) -> Vec<Metric> {
    let Some((sim, coll)) = bed.esg_mut() else {
        return catalog_layers(&CatalogProbe::default(), &[], 0, 0.0);
    };
    let coll = coll.to_string();
    let catalog = &mut sim.world.rm.catalog;
    let files = after_setup.lookup_us.len();
    let third = files.div_ceil(3);
    let (small, small_coll) =
        published_catalog(workload, seed, third).expect("an ESG workload has a catalog");
    let small = CatalogProbe::run(&small.sim.world.rm.catalog, &small_coll);
    let scaling = (after_setup.lookup_total_s() / small.lookup_total_s().max(1e-12))
        / (files as f64 / third as f64);

    let mut probe = after_setup;
    probe.extend(CatalogProbe::run(catalog, &coll));
    let add_us = add_file_probe(catalog, &coll);
    catalog_layers(&probe, &add_us, catalog.directory().len(), scaling)
}

/// What a whole run measured.
struct Run {
    reps: Vec<Rep>,
    /// Traced repetitions (empty with tracing off).
    traced: Vec<Rep>,
    alloc_workers: usize,
}

/// Repeat the workload for `seconds`, and at least [`MIN_REPS`] times. With
/// `trace` each untraced repetition is followed by a traced one, the first
/// of which also probes the catalog.
fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: &Sizes,
    scratch: &Path,
) -> Run {
    let start = Instant::now();
    let mut run = Run {
        reps: Vec::new(),
        traced: Vec::new(),
        alloc_workers: match esg_simnet::SolverConfig::default().mode {
            esg_simnet::SolverMode::Sequential => 1,
            esg_simnet::SolverMode::Parallel { workers, .. } => workers,
        },
    };
    while run.reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        run.reps
            .push(one_rep(workload, seed, sizes, scratch, false, false));
        if trace {
            let probe = run.traced.is_empty();
            run.traced
                .push(one_rep(workload, seed, sizes, scratch, true, probe));
        }
    }
    run
}

/// Where a run's campaign journals go: a directory of the process's own
/// under `.perfbench_run` at the root of the checkout.
const SCRATCH: &str = ".perfbench_run";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits one level below the repository root")
        .to_path_buf()
}

impl Run {
    fn all(&self) -> impl Iterator<Item = &Rep> {
        self.reps.iter().chain(&self.traced)
    }

    /// Every repetition saw the same simulation, traced or not, and no
    /// delivered unit disagrees with the catalog.
    fn correct(&self) -> bool {
        let first = &self.reps[0].sim;
        self.all().all(|r| r.sim == *first) && first.corrupt == 0
    }

    fn sim(&self) -> &SimResult {
        &self.reps[0].sim
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let of = |f: fn(&Rep) -> f64| median(&self.reps.iter().map(f).collect::<Vec<_>>());
        let sim = self.sim();
        let wall_s = of(|r| r.wall_s);
        let delivered = (sim.attempted - sim.failed) as f64;
        vec![
            ("wall_s", "s", wall_s),
            (
                "setup_s",
                "s",
                median(
                    &self
                        .reps
                        .iter()
                        .flat_map(|r| r.setup_s.clone())
                        .collect::<Vec<_>>(),
                ),
            ),
            ("peak_rss_mb", "MB", of(|r| r.peak_rss_mb)),
            ("items_per_s", "1/s", delivered / wall_s),
            ("sim_makespan_s", "s", sim.makespan_s),
            (
                "sim_goodput_mb_s",
                "MB/s",
                sim.payload_bytes as f64 / 1e6 / sim.makespan_s,
            ),
            ("latency_p50_s", "s", quantile(&sim.latencies_s, 0.5)),
            ("latency_p99_s", "s", quantile(&sim.latencies_s, 0.99)),
        ]
    }

    /// Per-layer metrics: medians of the traced repetitions' values (the
    /// counts repeat exactly, so their median is the count), the catalog
    /// probe of the first traced repetition, and the cost of tracing.
    fn per_layer(&self) -> Vec<Metric> {
        let traced = &self.traced;
        let mut out: Vec<Metric> = traced[0]
            .layers
            .iter()
            .map(|&(name, unit, _)| {
                let vals: Vec<f64> = traced
                    .iter()
                    .filter_map(|r| r.layers.iter().find(|m| m.0 == name).map(|m| m.2))
                    .collect();
                (name, unit, median(&vals))
            })
            .collect();
        let wall = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        out.push((
            "netlogger.trace_overhead_frac",
            "frac",
            wall(traced) / wall(&self.reps) - 1.0,
        ));
        let sim = self.sim();
        out.push(("failed_frac", "frac", failed_frac(sim)));
        out.push(("latency.samples", "count", sim.latencies_s.len() as f64));
        out
    }
}

fn failed_frac(sim: &SimResult) -> f64 {
    sim.failed as f64 / sim.attempted.max(1) as f64
}

/// Render one metric list as the `metrics` object of the result line.
fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The commit the sources came from, read from `.git` without running
/// git; `none` outside a git checkout.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "none".into()
        } else {
            head.into()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "none".into())
}

/// sha256 over the simulator's sources (`crates/`, the root manifest and
/// lock file): identifies the program when there is no git checkout.
fn source_sha256(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut buf = Vec::new();
    for f in &files {
        let body = std::fs::read(f).unwrap_or_default();
        let rel = f.strip_prefix(root).unwrap_or(f);
        buf.extend_from_slice(format!("{} {}\n", rel.display(), body.len()).as_bytes());
        buf.extend_from_slice(&body);
    }
    esg_gsi::sha256(&buf)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| bad(&"expected campaign, interactive or fanout"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = repo_root();
    let scratch = root.join(SCRATCH).join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let run = measure(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &Sizes::FULL,
        &scratch,
    );
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(root.join(SCRATCH));
    let sim = run.sim();
    let correct = run.correct();
    let metrics = if args.trace {
        run.per_layer()
    } else {
        run.end_to_end()
    };
    let reps = run.all().count();
    println!(
        concat!(
            "{{\"row\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, ",
            "\"reps\": {}, \"nproc\": {}, \"alloc_workers\": {}, ",
            "\"git_rev\": \"{}\", \"source_sha256\": \"{}\", ",
            "\"trace_sha256\": \"{}\", \"failed_frac\": {:?}, \"latency_samples\": {}}}}}"
        ),
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        reps,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        run.alloc_workers,
        git_rev(&root),
        source_sha256(&root),
        sim.trace_sha256,
        failed_frac(sim),
        sim.latencies_s.len(),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.all().map(|r| r.sim.attempted).sum::<usize>(),
        run.all().map(|r| r.sim.failed).sum::<usize>(),
        metrics_json(&metrics),
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: outputs failed the correctness check");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_simnet::prelude::{inject_all, Fault, FaultKind};
    use esg_simnet::{SimDuration, SimTime};
    use workloads::Bed;

    const TINY: Sizes = Sizes {
        campaign_files: 30,
        interactive_requests: 60,
        fanout_flows: 64,
    };

    /// A scratch directory of one test's own, removed when dropped.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(name: &str) -> Scratch {
            let dir = repo_root().join(SCRATCH).join(format!("test-{name}"));
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let start = json.find(&format!("\"{section}\"")).unwrap();
        let body = &json[start..start + json[start..].find(']').unwrap()];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\"")).unwrap() + key.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').unwrap() + 1;
            rest[open..open + rest[open..].find('"').unwrap()].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn every_declared_metric_is_emitted_with_its_unit() {
        let dir = Scratch::new("names");
        for w in Workload::ALL {
            let run = measure(w, 3, 0.0, true, &TINY, &dir.0);
            assert!(run.correct(), "{w:?}");
            assert_eq!(emitted(&run.end_to_end()), declared("end_to_end"), "{w:?}");
            assert_eq!(emitted(&run.per_layer()), declared("per_layer"), "{w:?}");
        }
    }

    #[test]
    fn traced_and_untraced_runs_see_the_same_simulation() {
        let dir = Scratch::new("traced");
        for w in Workload::ALL {
            let run = measure(w, 5, 0.0, true, &TINY, &dir.0);
            let untraced = &run.reps[0].sim;
            assert!(run.traced.iter().all(|r| r.sim == *untraced), "{w:?}");
            assert_eq!(untraced.failed, 0, "{w:?}");
            assert_eq!(untraced.latencies_s.len(), untraced.attempted, "{w:?}");
        }
    }

    #[test]
    fn an_outage_of_every_source_raises_failed_frac() {
        let dir = Scratch::new("outage");
        let mut bed = setup(Workload::Campaign, 7, &TINY, &dir.0);
        let Bed::Campaign(b) = &mut bed else {
            unreachable!()
        };
        let faults: Vec<Fault> = [1, 3]
            .iter()
            .map(|&s| {
                let node = b.tb.sites[s].node;
                Fault::new(
                    SimTime::from_secs(101),
                    SimDuration::from_hours(10),
                    FaultKind::NodeDown(node),
                )
            })
            .collect();
        inject_all(&mut b.tb.sim, &faults);
        bed.run();
        let (sim, _) = bed.harvest();
        assert_eq!(sim.corrupt, 0);
        assert!(failed_frac(&sim) > 0.0, "{sim:?}");
    }

    #[test]
    fn a_digest_that_disagrees_with_the_catalog_is_caught() {
        let dir = Scratch::new("digest");
        let mut bed = setup(Workload::Campaign, 9, &TINY, &dir.0);
        bed.run();
        let Bed::Campaign(b) = &bed else {
            unreachable!()
        };
        let journal = std::fs::read_to_string(b.checkpoint()).unwrap();
        assert_eq!(b.check(&journal).corrupt, 0);
        let line = journal
            .lines()
            .find(|l| l.starts_with("settled "))
            .expect("a settled file");
        let digest = line
            .split("digest=")
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap();
        let flipped = journal.replacen(digest, &"0".repeat(digest.len()), 1);
        let sim = b.check(&flipped);
        assert_eq!(sim.corrupt, 1);
        assert_eq!(sim.failed, 1);
    }

    #[test]
    fn fanout_is_the_scaling_harness_workload() {
        let dir = Scratch::new("fanout");
        let mut bed = setup(Workload::Fanout, 11, &TINY, &dir.0);
        bed.run();
        let (sim, _) = bed.harvest();
        let regions = TINY.fanout_flows / 32;
        let lab = esg_lab::scaling::run_variant(TINY.fanout_flows, regions, 11, false);
        assert_eq!(sim.trace_sha256, esg_lab::scaling::trace_sha256_hex(&lab));
    }
}
