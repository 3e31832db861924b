//! Per-layer measurements for the traced run.
//!
//! Two sources: benchmark-side timing spans around direct calls into the
//! replica catalog and its directory, and what the simulator already
//! exposes publicly — the `esg_simnet::profile` subsystem profiler, the
//! request manager's metrics registry, the GridFTP service counters and
//! the allocator's work counters.

use crate::stats::quantile;
use crate::workloads::{collection_dn, Bed};
use crate::Metric;
use esg_directory::{Filter, Scope};
use esg_gridftp::{GridFtpSim, GridUrl};
use esg_replica::ReplicaCatalog;
use esg_simnet::profile::{self, ProfileReport};
use std::hint::black_box;
use std::time::Instant;

/// Per-call host times of one catalog probe pass, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct CatalogProbe {
    pub lookup_us: Vec<f64>,
    pub search_us: Vec<f64>,
}

impl CatalogProbe {
    /// Time `lookup_replicas` and the directory search it issues, once per
    /// logical file of `collection`.
    pub fn run(catalog: &ReplicaCatalog, collection: &str) -> CatalogProbe {
        let files = catalog
            .logical_files(collection)
            .expect("probed collection exists");
        let base = collection_dn(collection);
        let mut probe = CatalogProbe::default();
        for f in &files {
            let t = Instant::now();
            let hits = catalog.lookup_replicas(collection, f).expect("lookup");
            probe.lookup_us.push(t.elapsed().as_secs_f64() * 1e6);
            assert!(!hits.is_empty(), "every published file has a replica");
            black_box(hits);

            // The search `lookup_replicas` issues.
            let filter = Filter::And(vec![
                Filter::eq("objectclass", "GlobusReplicaLocation"),
                Filter::eq("filename", f.as_str()),
            ]);
            let t = Instant::now();
            let hits = catalog.directory().search(&base, Scope::OneLevel, &filter);
            probe.search_us.push(t.elapsed().as_secs_f64() * 1e6);
            black_box(hits);
        }
        probe
    }

    pub fn extend(&mut self, other: CatalogProbe) {
        self.lookup_us.extend(other.lookup_us);
        self.search_us.extend(other.search_us);
    }

    pub fn lookup_total_s(&self) -> f64 {
        self.lookup_us.iter().sum::<f64>() * 1e-6
    }
}

/// Time `add_file_to_location` for every logical file of `collection`,
/// adding each to a fresh probe location. Mutates the catalog: call only
/// after the run has been harvested.
pub fn add_file_probe(catalog: &mut ReplicaCatalog, collection: &str) -> Vec<f64> {
    let files = catalog
        .logical_files(collection)
        .expect("probed collection exists");
    let url = GridUrl::new("probe.invalid", "/perfbench");
    catalog
        .register_location(collection, "perfbench-probe", &url, &[])
        .expect("probe location is new");
    files
        .iter()
        .map(|f| {
            let t = Instant::now();
            catalog
                .add_file_to_location(collection, "perfbench-probe", f)
                .expect("probe location exists");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Profiler, allocator, RM and GridFTP metrics of one traced repetition.
/// The RM and GridFTP ones read 0 on a workload without an ESG world.
pub fn traced_layers(bed: &Bed, report: &ProfileReport, journal_lines: u64) -> Vec<Metric> {
    let alloc = bed.alloc_stats();
    let world = bed.esg().map(|(sim, _)| &sim.world);
    let counter = |name: &str| world.map_or(0, |w| w.rm.metrics.counter(name));
    let gridftp = |f: fn(&GridFtpSim) -> u64| world.map_or(0, |w| f(&w.gridftp));
    let started = gridftp(|g| g.transfers_started);
    let cache_hits = gridftp(|g| g.cache_hits);
    vec![
        (
            "simnet.kernel.self_s",
            "s",
            report.self_s_of(profile::KERNEL),
        ),
        (
            "simnet.kernel.events",
            "count",
            report.count_of("kernel.events") as f64,
        ),
        (
            "simnet.allocator.self_s",
            "s",
            report.self_s_of(profile::ALLOCATOR),
        ),
        (
            "simnet.alloc.flow_solves",
            "count",
            alloc.flow_solves as f64,
        ),
        (
            "simnet.alloc.components_solved",
            "count",
            alloc.components_solved as f64,
        ),
        (
            "simnet.alloc.route_cache_hit_frac",
            "frac",
            ratio(
                alloc.route_cache_hits,
                alloc.route_cache_hits + alloc.route_cache_misses,
            ),
        ),
        ("reqman.rm.self_s", "s", report.self_s_of(profile::RM)),
        (
            "reqman.events.self_s",
            "s",
            report.self_s_of(profile::EVENTS),
        ),
        (
            "reqman.journal.self_s",
            "s",
            report.self_s_of(profile::JOURNAL),
        ),
        ("journal.lines", "count", journal_lines as f64),
        (
            "gridftp.net_poll.self_s",
            "s",
            report.self_s_of(profile::NET_POLL),
        ),
        (
            "gridftp.net_poll.calls",
            "count",
            report.count_of("net_poll.calls") as f64,
        ),
        (
            "rm.sched.admitted",
            "count",
            counter("rm.sched.admitted") as f64,
        ),
        (
            "rm.sched.deferred",
            "count",
            counter("rm.sched.deferred") as f64,
        ),
        ("rm.failovers", "count", counter("rm.failovers") as f64),
        (
            "reqman.useful_frac",
            "frac",
            ratio(counter("rm.files.completed"), started),
        ),
        ("gridftp.transfers_started", "count", started as f64),
        (
            "gridftp.transfers_completed",
            "count",
            gridftp(|g| g.transfers_completed) as f64,
        ),
        (
            "gridftp.channel_cache_hit_frac",
            "frac",
            ratio(cache_hits, cache_hits + gridftp(|g| g.handshakes_performed)),
        ),
        (
            "storage.stage_wait_s",
            "s",
            world.map_or(0.0, |w| {
                w.rm.metrics.value("rm.phase.stage_s.sum").unwrap_or(0.0)
            }),
        ),
        (
            "rm.sched.prestaged",
            "count",
            counter("rm.sched.prestaged") as f64,
        ),
    ]
}

/// Catalog metrics from the probes of one traced rep. `scaling` is the
/// ratio of probe times at full and one-third size over the size ratio.
pub fn catalog_layers(
    probe: &CatalogProbe,
    add_us: &[f64],
    entries: usize,
    scaling: f64,
) -> Vec<Metric> {
    vec![
        (
            "replica.lookup_us.p50",
            "us",
            quantile(&probe.lookup_us, 0.5),
        ),
        (
            "replica.lookup_us.p99",
            "us",
            quantile(&probe.lookup_us, 0.99),
        ),
        (
            "directory.search_us.p50",
            "us",
            quantile(&probe.search_us, 0.5),
        ),
        ("replica.add_file_us.p50", "us", quantile(add_us, 0.5)),
        ("directory.entries", "count", entries as f64),
        ("replica.lookup_scaling", "ratio", scaling),
    ]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
