//! The three workloads: how each is set up, driven and checked.
//!
//! Every workload is split into a timed set-up (`setup_*`), one timed
//! `run_until` ([`Bed::run`]) and an untimed harvest ([`Bed::harvest`])
//! that recomputes delivery from the simulator's public state and checks
//! it against the replica catalog.

use esg_core::{esg_testbed, EsgSim, EsgTestbed};
use esg_directory::Dn;
use esg_netlogger::{LogEvent, NetLog, Value};
use esg_reqman::{start_campaign, submit_request, CampaignOutcome, CampaignSpec};
use esg_simnet::prelude::{inject_all, Fault, FaultKind};
use esg_simnet::{FlowSpec, Node, NodeId, Sim, SimDuration, SimTime, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Campaign,
    Interactive,
    Fanout,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Campaign, Workload::Interactive, Workload::Fanout];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Interactive => "interactive",
            Workload::Fanout => "fanout",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Work items per workload: files, requests and flows.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub campaign_files: usize,
    pub interactive_requests: usize,
    pub fanout_flows: usize,
}

impl Sizes {
    /// The sizes the benchmark measures.
    pub const FULL: Sizes = Sizes {
        campaign_files: 3000,
        interactive_requests: 12_000,
        fanout_flows: 20_000,
    };
}

/// The NWS warm-up every ESG workload runs during set-up.
const WARMUP: SimTime = SimTime(100_000_000_000);
const NWS_PERIOD_S: u64 = 25;

const CAMPAIGN_DS: &str = "pcm_perfbench.b06";
const CAMPAIGN_FILE_BYTES: u64 = 1_000_000;
/// Both replicas sit at OC-12 sites (LLNL, ANL).
const CAMPAIGN_SOURCES: [usize; 2] = [1, 3];
/// The OC-3 portal the campaign pulls into.
const CAMPAIGN_TARGET: usize = 4;
const CAMPAIGN_MAX_ACTIVE: usize = 24;
const CAMPAIGN_START: SimTime = SimTime(105_000_000_000);
const CAMPAIGN_HORIZON: SimTime = SimTime(6_000_000_000_000);

const INTERACTIVE_DS: &str = "pcm_hot.b06";
const INTERACTIVE_FILES: usize = 24;
const INTERACTIVE_FILE_BYTES: u64 = 2_000_000;
/// Five replica sites, the HPSS/HRM site among them.
const INTERACTIVE_SITES: [usize; 5] = [0, 1, 2, 3, 4];
const INTERACTIVE_WINDOW_S: u64 = 3600;
const INTERACTIVE_FAULTS: usize = 96;
const INTERACTIVE_FAULT_SEED: u64 = 0xD1CE_5EED_0BAD_F00D;
const INTERACTIVE_HORIZON: SimTime = SimTime(5_000_000_000_000);

const FANOUT_FLOWS_PER_REGION: usize = 32;
const FANOUT_CLIENTS_PER_REGION: usize = 4;
const FANOUT_HORIZON: SimTime = SimTime(100_000_000_000_000);

/// What one run delivered, recomputed from public state after the run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Units attempted: files, requests or flows.
    pub attempted: usize,
    /// Units not delivered intact.
    pub failed: usize,
    /// Units the program reported delivered whose bytes disagree with the
    /// catalog's size or digest. Any such unit makes the run incorrect.
    pub corrupt: usize,
    /// Sim seconds from submit to completion, one per delivered unit.
    pub latencies_s: Vec<f64>,
    /// Sim seconds from the first submit to the last completion.
    pub makespan_s: f64,
    /// Payload bytes delivered intact.
    pub payload_bytes: u64,
    /// sha256 of the run's NetLogger trace in ULM form.
    pub trace_sha256: String,
    /// Events and ULM bytes of that trace.
    pub trace_events: u64,
    pub trace_ulm_bytes: u64,
}

/// A workload after set-up, ready for its timed run.
pub enum Bed {
    Campaign(CampaignBed),
    Interactive(InteractiveBed),
    Fanout(FanoutBed),
}

pub struct CampaignBed {
    pub tb: EsgTestbed,
    collection: String,
    location: String,
    ckpt: PathBuf,
    outcome: Rc<RefCell<Option<CampaignOutcome>>>,
}

pub struct InteractiveBed {
    tb: EsgTestbed,
    collection: String,
    requests: usize,
}

pub struct FanoutBed {
    sim: Sim<FanoutWorld>,
    starts: Vec<(SimTime, f64)>,
}

#[derive(Default)]
struct FanoutWorld {
    log: NetLog,
    completions: Vec<(usize, SimTime)>,
}

/// A workload's catalog as published, with `files` files: what the
/// superlinearity probe builds at one third of the measured size.
pub fn published_catalog(
    workload: Workload,
    seed: u64,
    files: usize,
) -> Option<(EsgTestbed, String)> {
    match workload {
        Workload::Campaign => Some(campaign_testbed(seed, files)),
        Workload::Interactive => Some(interactive_testbed(seed, files)),
        Workload::Fanout => None,
    }
}

/// Build `workload` at `sizes` for `seed`. `scratch` is a directory the
/// campaign's checkpoint journal may be written to.
pub fn setup(workload: Workload, seed: u64, sizes: &Sizes, scratch: &std::path::Path) -> Bed {
    match workload {
        Workload::Campaign => Bed::Campaign(setup_campaign(seed, sizes.campaign_files, scratch)),
        Workload::Interactive => {
            Bed::Interactive(setup_interactive(seed, sizes.interactive_requests))
        }
        Workload::Fanout => Bed::Fanout(setup_fanout(seed, sizes.fanout_flows)),
    }
}

fn warm_testbed(seed: u64, ds: &str, files: usize, bytes: u64, sites: &[usize]) -> EsgTestbed {
    let mut tb = esg_testbed(seed);
    tb.publish_dataset(ds, files, 1, bytes, sites);
    tb.start_nws(SimDuration::from_secs(NWS_PERIOD_S));
    tb
}

fn collection_of(tb: &EsgTestbed, ds: &str) -> String {
    tb.sim
        .world
        .metadata
        .collection_of(ds)
        .expect("dataset was published during set-up")
}

/// The testbed a campaign of `files` files runs on, before warm-up. The
/// seed sets the file size, within 2% above [`CAMPAIGN_FILE_BYTES`]: the
/// campaign has no other random input.
fn campaign_testbed(seed: u64, files: usize) -> (EsgTestbed, String) {
    let jitter = StdRng::seed_from_u64(seed).gen_range(0..CAMPAIGN_FILE_BYTES / 50);
    let tb = warm_testbed(
        seed,
        CAMPAIGN_DS,
        files,
        CAMPAIGN_FILE_BYTES + jitter,
        &CAMPAIGN_SOURCES,
    );
    let coll = collection_of(&tb, CAMPAIGN_DS);
    (tb, coll)
}

fn setup_campaign(seed: u64, files: usize, scratch: &std::path::Path) -> CampaignBed {
    let (mut tb, collection) = campaign_testbed(seed, files);
    tb.sim.world.rm.scheduler.max_active_per_request = CAMPAIGN_MAX_ACTIVE;
    tb.sim.run_until(WARMUP);

    static BEDS: AtomicUsize = AtomicUsize::new(0);
    let bed = BEDS.fetch_add(1, Ordering::Relaxed);
    let ckpt = scratch.join(format!("campaign-{bed}.ckpt"));
    let _ = std::fs::remove_file(&ckpt);
    let mut spec = CampaignSpec::new(
        "perfbench",
        collection.clone(),
        tb.sites[CAMPAIGN_TARGET].host.clone(),
    );
    spec.batch_files = files;
    spec.checkpoint = Some(ckpt.clone());
    spec.checkpoint_every = SimDuration::from_secs(1);
    let location = spec.location_name.clone();
    let outcome = Rc::new(RefCell::new(None));
    let sink = Rc::clone(&outcome);
    tb.sim.schedule_at(CAMPAIGN_START, move |sim| {
        start_campaign(sim, spec, move |_, o| *sink.borrow_mut() = Some(o));
    });
    CampaignBed {
        tb,
        collection,
        location,
        ckpt,
        outcome,
    }
}

/// The interactive testbed with `files` hot files, before warm-up and
/// requests.
fn interactive_testbed(seed: u64, files: usize) -> (EsgTestbed, String) {
    let tb = warm_testbed(
        seed,
        INTERACTIVE_DS,
        files,
        INTERACTIVE_FILE_BYTES,
        &INTERACTIVE_SITES,
    );
    let coll = collection_of(&tb, INTERACTIVE_DS);
    (tb, coll)
}

fn setup_interactive(seed: u64, requests: usize) -> InteractiveBed {
    let (mut tb, collection) = interactive_testbed(seed, INTERACTIVE_FILES);
    tb.sim.run_until(WARMUP);
    // The fault schedule is part of the scenario, like the topology: it
    // is the same for every seed, so the tail of the latency distribution
    // measures how the stack rides out one fixed set of outages. The seed
    // draws the user traffic.
    let mut rng = StdRng::seed_from_u64(INTERACTIVE_FAULT_SEED);

    let window = (WARMUP.0 / 1_000_000_000)..(WARMUP.0 / 1_000_000_000 + INTERACTIVE_WINDOW_S);
    let faults: Vec<Fault> = (0..INTERACTIVE_FAULTS)
        .map(|_| {
            let at = SimTime::from_secs(rng.gen_range(window.clone()));
            let duration = SimDuration::from_secs(rng.gen_range(5u64..20));
            let kind = if rng.gen_bool(0.3) {
                FaultKind::NameServiceDown
            } else {
                let site = INTERACTIVE_SITES[rng.gen_range(0..INTERACTIVE_SITES.len())];
                FaultKind::NodeDown(tb.sites[site].node)
            };
            Fault::new(at, duration, kind)
        })
        .collect();
    inject_all(&mut tb.sim, &faults);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x1A7E_4AC7_1BE5_EED5);
    let names: Vec<String> = tb
        .sim
        .world
        .metadata
        .all_files(INTERACTIVE_DS)
        .expect("dataset was published during set-up")
        .iter()
        .map(|f| f.name.clone())
        .collect();
    // Open loop: arrivals are uniform over the window whatever the
    // completions do.
    let client = tb.client;
    let start_ns = WARMUP.0;
    let window_ns = INTERACTIVE_WINDOW_S * 1_000_000_000;
    for _ in 0..requests {
        let at = SimTime(start_ns + rng.gen_range(0..window_ns));
        let k = rng.gen_range(1usize..=3);
        let files: Vec<(String, String)> = (0..k)
            .map(|_| {
                let name = &names[rng.gen_range(0..names.len())];
                (collection.clone(), name.clone())
            })
            .collect();
        tb.sim.schedule_at(at, move |sim| {
            submit_request(sim, client, files, |s, o| s.world.outcomes.push(o));
        });
    }
    InteractiveBed {
        tb,
        collection,
        requests,
    }
}

/// The A14 region fan-out: `flows / 32` regions, each a server feeding
/// four clients through a shared 1 Gb/s uplink, with every flow started
/// inside the first 20 s so the whole population is active at once.
fn setup_fanout(seed: u64, flows: usize) -> FanoutBed {
    let regions = flows.div_ceil(FANOUT_FLOWS_PER_REGION).max(1);
    let mut topo = Topology::new();
    let mut servers = Vec::with_capacity(regions);
    let mut clients: Vec<Vec<NodeId>> = Vec::with_capacity(regions);
    for r in 0..regions {
        let sv = topo.add_node(Node::host(format!("server{r}")));
        let rt = topo.add_node(Node::router(format!("router{r}")));
        topo.add_link(sv, rt, 125e6, SimDuration::from_millis(10));
        let cls = (0..FANOUT_CLIENTS_PER_REGION)
            .map(|c| {
                let cl = topo.add_node(Node::host(format!("client{r}.{c}")));
                topo.add_link(rt, cl, 77.75e6, SimDuration::from_millis(5));
                cl
            })
            .collect();
        servers.push(sv);
        clients.push(cls);
    }
    let mut sim = Sim::new(topo, FanoutWorld::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut starts = Vec::with_capacity(flows);
    for i in 0..flows {
        let region = i % regions;
        let src = servers[region];
        let dst = clients[region][rng.gen_range(0usize..FANOUT_CLIENTS_PER_REGION)];
        let at = SimTime::ZERO + SimDuration::from_millis(rng.gen_range(0u64..20_000));
        let size = 150e6 + rng.gen_range(0u64..400_000_000) as f64;
        starts.push((at, size));
        sim.schedule_at(at, move |s| {
            let now = s.net.now();
            s.world.log.push(
                LogEvent::new(now, "flow.start")
                    .field("flow", i)
                    .field("bytes", size),
            );
            s.start_flow(
                FlowSpec::new(src, dst, size).window(2e6).memory_to_memory(),
                move |s2| {
                    let now = s2.now();
                    s2.world.completions.push((i, now));
                    s2.world.log.push(
                        LogEvent::new(now, "flow.complete")
                            .field("flow", i)
                            .field("bytes", size),
                    );
                },
            )
            .expect("regions are always routable");
        });
    }
    FanoutBed { sim, starts }
}

fn sha_hex(data: &str) -> String {
    esg_gsi::sha256(data.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn trace_fields(log: &NetLog) -> (String, u64, u64) {
    let ulm = log.to_ulm();
    (sha_hex(&ulm), log.len() as u64, ulm.len() as u64)
}

impl Bed {
    /// The timed phase: drive the simulation to the workload's horizon.
    pub fn run(&mut self) {
        match self {
            Bed::Campaign(b) => b.tb.sim.run_until(CAMPAIGN_HORIZON),
            Bed::Interactive(b) => b.tb.sim.run_until(INTERACTIVE_HORIZON),
            Bed::Fanout(b) => b.sim.run_until(FANOUT_HORIZON),
        }
    }

    /// The ESG simulation, for the workloads that have one.
    pub fn esg(&self) -> Option<(&EsgSim, &str)> {
        match self {
            Bed::Campaign(b) => Some((&b.tb.sim, &b.collection)),
            Bed::Interactive(b) => Some((&b.tb.sim, &b.collection)),
            Bed::Fanout(_) => None,
        }
    }

    pub fn esg_mut(&mut self) -> Option<(&mut EsgSim, &str)> {
        match self {
            Bed::Campaign(b) => Some((&mut b.tb.sim, &b.collection)),
            Bed::Interactive(b) => Some((&mut b.tb.sim, &b.collection)),
            Bed::Fanout(_) => None,
        }
    }

    pub fn alloc_stats(&self) -> esg_simnet::AllocStats {
        match self {
            Bed::Campaign(b) => b.tb.sim.net.alloc_stats(),
            Bed::Interactive(b) => b.tb.sim.net.alloc_stats(),
            Bed::Fanout(b) => b.sim.net.alloc_stats(),
        }
    }

    /// Recompute what the run delivered and check it. Also returns the
    /// campaign journal's line count (0 for the other workloads).
    pub fn harvest(&self) -> (SimResult, u64) {
        match self {
            Bed::Campaign(b) => b.harvest(),
            Bed::Interactive(b) => (b.harvest(), 0),
            Bed::Fanout(b) => (b.harvest(), 0),
        }
    }
}

impl Drop for CampaignBed {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.ckpt);
    }
}

/// Parse the checkpoint journal's `settled` lines into
/// `file -> (size, digest, done)`; a later line for a file overrides.
fn settled_files(journal: &str) -> HashMap<String, (u64, String, bool)> {
    let mut out = HashMap::new();
    for line in journal.lines() {
        let mut toks = line.split(' ');
        if toks.next() != Some("settled") {
            continue;
        }
        let kv: HashMap<&str, &str> = toks.filter_map(|t| t.split_once('=')).collect();
        let (Some(file), Some(size), Some(digest), Some(status)) = (
            kv.get("file"),
            kv.get("size").and_then(|s| s.parse::<u64>().ok()),
            kv.get("digest"),
            kv.get("status"),
        ) else {
            continue;
        };
        out.insert(
            file.to_string(),
            (size, digest.to_string(), *status == "done"),
        );
    }
    out
}

fn location_dn(collection: &str, location: &str) -> Dn {
    Dn::parse(&format!(
        "loc={location}, lc={collection}, rc=ESG Replica Catalog, o=Grid"
    ))
    .expect("catalog DNs are well formed")
}

pub fn collection_dn(collection: &str) -> Dn {
    Dn::parse(&format!("lc={collection}, rc=ESG Replica Catalog, o=Grid"))
        .expect("catalog DNs are well formed")
}

impl CampaignBed {
    #[cfg(test)]
    pub fn checkpoint(&self) -> &std::path::Path {
        &self.ckpt
    }

    fn harvest(&self) -> (SimResult, u64) {
        let journal = std::fs::read_to_string(&self.ckpt).unwrap_or_default();
        let journal_lines = journal.lines().count() as u64;
        (self.check(&journal), journal_lines)
    }

    /// Delivery check against the catalog: a file is intact when the
    /// journal settled it done with the catalog's size and digest, and the
    /// catalog lists it at the campaign's target location.
    pub fn check(&self, journal: &str) -> SimResult {
        let sim = &self.tb.sim;
        let catalog = &sim.world.rm.catalog;
        let files = catalog
            .logical_files(&self.collection)
            .expect("collection exists");
        let settled = settled_files(journal);
        let at_target: HashSet<&str> = catalog
            .directory()
            .get(&location_dn(&self.collection, &self.location))
            .map(|e| e.values("filename").iter().map(String::as_str).collect())
            .unwrap_or_default();
        let outcome = self.outcome.borrow();
        let (mut failed, mut corrupt, mut payload) = (0, 0, 0u64);
        for f in &files {
            let size = catalog.file_size(&self.collection, f).expect("file exists");
            let digest = catalog.file_digest(&self.collection, f);
            match settled.get(f.as_str()) {
                Some((s, d, true)) => {
                    if *s == size && Some(d) == digest.as_ref() && at_target.contains(f.as_str()) {
                        payload += size;
                    } else {
                        corrupt += 1;
                        failed += 1;
                    }
                }
                _ => failed += 1,
            }
        }
        let log = &sim.world.rm.log;
        let (latencies_s, makespan_s) = match outcome.as_ref() {
            Some(o) => {
                let lat = log
                    .named("rm.file.complete")
                    .map(|e| e.time.since(o.started).as_secs_f64())
                    .collect();
                (lat, o.finished.since(o.started).as_secs_f64())
            }
            None => {
                failed = files.len();
                (Vec::new(), 0.0)
            }
        };
        let (trace_sha256, trace_events, trace_ulm_bytes) = trace_fields(log);
        SimResult {
            attempted: files.len(),
            failed,
            corrupt,
            latencies_s,
            makespan_s,
            payload_bytes: payload,
            trace_sha256,
            trace_events,
            trace_ulm_bytes,
        }
    }
}

impl InteractiveBed {
    /// A request is delivered intact when it completed and every one of
    /// its files arrived whole and was verified against the catalog
    /// digest.
    fn harvest(&self) -> SimResult {
        let world = &self.tb.sim.world;
        let catalog = &world.rm.catalog;
        let log = &world.rm.log;
        let mut verified: HashMap<(u64, &str), Vec<&str>> = HashMap::new();
        for e in log.named("integrity.file.verified") {
            if let (Some(Value::Int(r)), Some(Value::Str(f)), Some(Value::Str(d))) =
                (e.get("request"), e.get("file"), e.get("digest"))
            {
                verified.entry((*r as u64, f)).or_default().push(d);
            }
        }
        let (mut failed, mut corrupt, mut payload) = (0, 0, 0u64);
        let mut latencies_s = Vec::with_capacity(world.outcomes.len());
        let (mut first, mut last) = (SimTime::MAX, SimTime::ZERO);
        for o in &world.outcomes {
            let mut intact = true;
            let mut bytes = 0;
            for f in &o.files {
                let size = catalog.file_size(&self.collection, &f.name).ok();
                let digest = catalog.file_digest(&self.collection, &f.name);
                if !f.done {
                    intact = false;
                    continue;
                }
                let proof = verified
                    .get_mut(&(o.id, f.name.as_str()))
                    .and_then(|v| v.pop());
                if Some(f.size) != size || f.bytes_done != f.size || proof != digest.as_deref() {
                    corrupt += 1;
                    intact = false;
                    continue;
                }
                bytes += f.size;
            }
            first = first.min(o.started);
            last = last.max(o.finished);
            if intact {
                payload += bytes;
                latencies_s.push(o.finished.since(o.started).as_secs_f64());
            } else {
                failed += 1;
            }
        }
        failed += self.requests.saturating_sub(world.outcomes.len());
        let (trace_sha256, trace_events, trace_ulm_bytes) = trace_fields(log);
        SimResult {
            attempted: self.requests,
            failed,
            corrupt,
            latencies_s,
            makespan_s: last.since(first).as_secs_f64(),
            payload_bytes: payload,
            trace_sha256,
            trace_events,
            trace_ulm_bytes,
        }
    }
}

impl FanoutBed {
    /// A flow is delivered when its completion fired exactly once.
    fn harvest(&self) -> SimResult {
        let w = &self.sim.world;
        let mut seen = vec![false; self.starts.len()];
        let (mut corrupt, mut payload) = (0, 0u64);
        let mut latencies_s = Vec::with_capacity(w.completions.len());
        let mut last = SimTime::ZERO;
        for &(i, t) in &w.completions {
            if std::mem::replace(&mut seen[i], true) {
                corrupt += 1;
                continue;
            }
            let (start, size) = self.starts[i];
            latencies_s.push(t.since(start).as_secs_f64());
            payload += size as u64;
            last = last.max(t);
        }
        let first = self
            .starts
            .iter()
            .map(|s| s.0)
            .min()
            .unwrap_or(SimTime::ZERO);
        let delivered = seen.iter().filter(|&&s| s).count();
        let (trace_sha256, trace_events, trace_ulm_bytes) = trace_fields(&w.log);
        SimResult {
            attempted: self.starts.len(),
            failed: self.starts.len() - delivered,
            corrupt,
            latencies_s,
            makespan_s: last.since(first).as_secs_f64(),
            payload_bytes: payload,
            trace_sha256,
            trace_events,
            trace_ulm_bytes,
        }
    }
}
