//! The workloads: set-up, the measured closed loop, and the checks.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use q_core::{Feedback, FeedbackRequest, GraphSnapshot, QConfig, SnapshotInfo};
use q_serve::wire;
use q_serve::{HttpClient, QServe};

use crate::check;
use crate::corpus::{self, connect};
use crate::gen::{self, NewSource, Rng, Zipf};
use crate::layers;
use crate::probe;
use crate::stats::{median, ms, proc_mib, quantile};
use crate::trace::Tracer;

/// Server worker threads and the most client connections any workload
/// opens (the two-core reference machine's `nproc`).
pub const THREADS: usize = 2;
/// Cold queries per second of `--seconds`: the run's fixed query count, set
/// from the measured cold rate (4.4–5.2 queries/s on the reference machine),
/// so the query loop lasts about `--seconds` (200 queries at 40 s: enough
/// for ten samples beyond the 95th percentile).
const COLD_QUERIES_PER_SECOND: u64 = 5;
/// Generated queries added to the 16 GBCO trials in the warm set, and the
/// Zipf exponent of the warm draws. Both are assumptions, not measured
/// traffic: see "Warm traffic" in `qbench/README.md`.
const WARM_EXTRA: usize = 32;
const WARM_ZIPF: f64 = 1.1;
/// Requests per warm round, and rounds per connection per second of
/// `--seconds`: the run's fixed request count, set from the measured warm rate (4200–5500 requests/s on the
/// reference machine), so the loop lasts about `--seconds`.
const ROUND: usize = 32;
const WARM_ROUNDS_PER_SECOND: u64 = 72;
/// One response in this many is kept for checks.
const KEEP_EVERY: usize = 97;
/// Rows of each ingested source.
pub const SOURCE_ROWS: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdMiss100x,
    WarmHit10x,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "cold_miss_100x" => Some(Workload::ColdMiss100x),
            "warm_hit_10x" => Some(Workload::WarmHit10x),
            _ => None,
        }
    }

    fn tier(self) -> usize {
        match self {
            Workload::ColdMiss100x => corpus::TIER_100X,
            Workload::WarmHit10x => corpus::TIER_10X,
        }
    }

    /// Set-ups per run; `setup_s` is their median.
    fn setup_reps(self) -> usize {
        match self {
            Workload::ColdMiss100x => 3,
            Workload::WarmHit10x => 15,
        }
    }

    /// Restores per run; the per-layer `snap.boot_ms` is their median.
    fn boot_reps(self) -> usize {
        match self {
            Workload::ColdMiss100x => 7,
            Workload::WarmHit10x => 31,
        }
    }

    fn scale(self) -> layers::Scale {
        match self {
            Workload::ColdMiss100x => layers::LARGE,
            Workload::WarmHit10x => layers::SMALL,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; the run is correct when this stays empty.
    pub problems: Vec<String>,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub trace: Option<String>,
}

/// What the untraced run measured, also handed to the traced layer pass.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub corpus_s: Vec<f64>,
    pub build_s: Vec<f64>,
    pub save_ms: Vec<f64>,
    pub load_ms: Vec<f64>,
    pub boot_ms: Vec<f64>,
    pub info: SnapshotInfo,
    /// `VmHWM` after the measured loop, before any traced publish.
    pub peak_rss_mib: f64,
    pub query_ms: Vec<f64>,
    pub query_wall: Duration,
    pub lookups: u64,
    pub hits: u64,
    pub publishes: Publishes,
}

/// One publish step.
#[derive(Debug, Clone)]
pub enum Step {
    Ingest(NewSource),
    Feedback(Vec<String>),
}

/// What the publishes of a run saw, one entry per publish.
#[derive(Debug, Default)]
pub struct Publishes {
    pub ingest_ms: Vec<f64>,
    pub feedback_ms: Vec<f64>,
    pub settle_ms: Vec<f64>,
    pub cache_kept: Vec<f64>,
    pub cache_parked: Vec<f64>,
    pub cache_dropped: Vec<f64>,
    pub lane_kept: Vec<f64>,
    pub lane_repriced: Vec<f64>,
    pub lane_dropped: Vec<f64>,
    pub rss_mib: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

pub fn post(
    client: &mut HttpClient,
    path: &str,
    body: &str,
) -> Result<(u16, String, Instant, Instant), String> {
    let start = Instant::now();
    let response = client
        .request("POST", path, Some(body))
        .map_err(|e| format!("POST {path}: {e}"))?;
    Ok((response.status, response.body, start, Instant::now()))
}

pub fn query_body(keywords: &[String]) -> String {
    wire::encode_query(&gen::request(keywords)).encode()
}

/// The `"cache"` field of a query response, read without decoding it.
fn cache_status(body: &str) -> &str {
    const KEY: &str = "\"cache\":\"";
    body.find(KEY)
        .and_then(|at| {
            let rest = &body[at + KEY.len()..];
            rest.find('"').map(|end| &rest[..end])
        })
        .unwrap_or("")
}

/// One closed-loop connection: it takes rounds from `next` until `rounds`
/// are taken, and sends each round's `ROUND` Zipf-skewed draws over
/// `bodies`, drawn from the round's own stream of the seed (so the run's
/// requests do not depend on which connection sends them, and both
/// connections work until the end). Every `KEEP_EVERY`-th response is kept
/// for checks after the run.
struct Loop {
    latencies_ms: Vec<f64>,
    hits: u64,
    failed: u64,
    kept: Vec<(usize, String)>,
    wall: Duration,
}

fn closed_loop(
    server: &QServe,
    bodies: &[String],
    seed: u64,
    next: &AtomicU64,
    rounds: u64,
) -> Result<Loop, String> {
    let zipf = Zipf::new(bodies.len(), WARM_ZIPF);
    let mut client = connect(server.addr())?;
    let mut out = Loop {
        latencies_ms: Vec::new(),
        hits: 0,
        failed: 0,
        kept: Vec::new(),
        wall: Duration::ZERO,
    };
    let began = Instant::now();
    let mut sent = 0usize;
    loop {
        let round = next.fetch_add(1, Ordering::Relaxed);
        if round >= rounds {
            break;
        }
        let mut rng = Rng::new(seed, 100 + round);
        for _ in 0..ROUND {
            let i = zipf.sample(&mut rng);
            let (status, body, t0, t1) = post(&mut client, "/query", &bodies[i])?;
            out.latencies_ms.push(ms(t1 - t0));
            if status != 200 {
                out.failed += 1;
            } else if matches!(cache_status(&body), "hit" | "revalidated") {
                out.hits += 1;
            }
            if sent.is_multiple_of(KEEP_EVERY) {
                out.kept.push((i, body));
            }
            sent += 1;
        }
    }
    out.wall = began.elapsed();
    Ok(out)
}

/// Send one publish, wait for the re-validation lane to settle, and check
/// what it published.
pub fn publish(
    server: &QServe,
    client: &mut HttpClient,
    step: &Step,
    config: &QConfig,
    log: &mut Publishes,
) -> Result<(), String> {
    let engine = server.engine();
    log.attempted += 1;
    match step {
        Step::Ingest(source) => {
            let sources_before = engine.snapshot().catalog().sources().len();
            let body = wire::encode_ingest(&source.spec).encode();
            let (status, text, t0, t1) = post(client, "/ingest", &body)?;
            if status != 200 {
                log.failed += 1;
                return Ok(());
            }
            log.ingest_ms.push(ms(t1 - t0));
            settle(server, log);
            let response = q_serve::json::parse(text.as_bytes())
                .ok()
                .and_then(|j| wire::decode_ingest_response(&j).ok())
                .ok_or("ingest response does not decode")?;
            log.cache_kept.push(response.cache_kept as f64);
            log.cache_parked.push(response.cache_parked as f64);
            log.cache_dropped.push(response.cache_dropped as f64);
            let snapshot = engine.snapshot();
            if let Err(problem) = check_ingest(&snapshot, config, source, sources_before) {
                log.problems.push(problem);
            }
        }
        Step::Feedback(keywords) => {
            let before = engine
                .snapshot()
                .answer(config, &gen::request(keywords))
                .map_err(|e| format!("{keywords:?}: {e}"))?;
            let request = FeedbackRequest::on_keywords(
                keywords.iter().cloned(),
                Feedback::Correct { answer: 0 },
            );
            let body = wire::encode_feedback(&request).encode();
            let (status, _, t0, t1) = post(client, "/feedback", &body)?;
            if status != 200 {
                log.failed += 1;
                return Ok(());
            }
            log.feedback_ms.push(ms(t1 - t0));
            settle(server, log);
            let after = engine
                .snapshot()
                .answer(config, &gen::request(keywords))
                .map_err(|e| format!("{keywords:?}: {e}"))?;
            if let Err(problem) = check_feedback(keywords, &before, &after) {
                log.problems.push(problem);
            }
        }
    }
    log.rss_mib.push(proc_mib("VmRSS"));
    Ok(())
}

fn settle(server: &QServe, log: &mut Publishes) {
    let engine = server.engine();
    let before = engine.revalidation_stats();
    let start = Instant::now();
    engine.flush_revalidation();
    log.settle_ms.push(ms(start.elapsed()));
    let after = engine.revalidation_stats();
    log.lane_kept.push((after.kept - before.kept) as f64);
    log.lane_repriced
        .push((after.repriced - before.repriced) as f64);
    log.lane_dropped
        .push((after.dropped - before.dropped) as f64);
}

/// After an ingest the catalog holds one more source, and the keywords only
/// the new source contains return answers from its relation.
pub fn check_ingest(
    snapshot: &GraphSnapshot,
    config: &QConfig,
    source: &NewSource,
    sources_before: usize,
) -> Result<(), String> {
    let sources = snapshot.catalog().sources().len();
    if sources != sources_before + 1 {
        return Err(format!(
            "{}: source count went {sources_before} -> {sources}",
            source.relation
        ));
    }
    let relation = snapshot
        .catalog()
        .relation_by_name(&source.relation)
        .ok_or_else(|| format!("{}: relation missing after ingest", source.relation))?
        .id;
    let view = snapshot
        .answer(config, &gen::request(&source.unique))
        .map_err(|e| format!("{}: {e}", source.relation))?;
    let from_new = view.answers.iter().any(|a| {
        view.queries[a.query_index]
            .query
            .atoms
            .iter()
            .any(|atom| atom.relation == relation)
    });
    if !from_new {
        return Err(format!(
            "{}: keywords {:?} return no answer from the new relation",
            source.relation, source.unique
        ));
    }
    Ok(())
}

/// After `Correct{answer: 0}` the annotated tree ranks no lower.
pub fn check_feedback(
    keywords: &[String],
    before: &q_core::RankedView,
    after: &q_core::RankedView,
) -> Result<(), String> {
    let annotated = before
        .answers
        .first()
        .map(|a| a.query_index)
        .ok_or_else(|| format!("{keywords:?}: feedback target has no answer"))?;
    let edges = &before.queries[annotated].tree.edges;
    match check::rank_of(after, edges) {
        Some(rank) if rank <= annotated => Ok(()),
        Some(rank) => Err(format!(
            "{keywords:?}: annotated tree fell from rank {annotated} to {rank}"
        )),
        None => Err(format!("{keywords:?}: annotated tree left the top-k")),
    }
}

/// The run's inputs, made from the seed and the tier's catalog.
struct Inputs {
    /// Queries the workload sends (cold: each once; warm: Zipf-cycled).
    queries: Vec<Vec<String>>,
    /// Sources and feedback targets for the traced layer pass.
    extra_sources: Vec<NewSource>,
    feedback_targets: Vec<Vec<String>>,
}

impl Inputs {
    fn make(workload: Workload, snapshot: &GraphSnapshot, seed: u64, seconds: u64) -> Self {
        let catalog = snapshot.catalog();
        let queries = match workload {
            Workload::ColdMiss100x => {
                gen::queries(catalog, seed, (COLD_QUERIES_PER_SECOND * seconds) as usize)
            }
            Workload::WarmHit10x => gen::warm_set(catalog, seed, WARM_EXTRA),
        };
        let scale = workload.scale();
        let extra_sources = gen::sources(catalog, seed, scale.sources(), SOURCE_ROWS);
        let trials: Vec<Vec<String>> = q_datasets::gbco_trials()
            .into_iter()
            .map(|t| t.keywords)
            .collect();
        let mut rng = Rng::new(seed, 3);
        let feedback_targets = (0..scale.feedback_targets())
            .map(|_| trials[rng.below(trials.len())].clone())
            .collect();
        Inputs {
            queries,
            extra_sources,
            feedback_targets,
        }
    }
}

/// Queries whose answers are compared between the built snapshot and the
/// one restored from disk.
const IDENTITY_SAMPLE: usize = 6;

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    dir: &Path,
) -> Result<Report, String> {
    let config = QConfig::default();
    let path = dir.join("tier.qsnap");
    let mut report = Report::default();

    // Set-up: build the tier and persist it, several times; the last one
    // supplies the inputs and the saved file.
    let (mut setup_s, mut corpus_s, mut build_s, mut save_ms) = (vec![], vec![], vec![], vec![]);
    let mut last = None;
    for _ in 0..workload.setup_reps() {
        // Free the previous tier before building the next one.
        drop(last.take());
        let start = Instant::now();
        let set_up = corpus::set_up(workload.tier(), &path)?;
        setup_s.push(start.elapsed().as_secs_f64());
        corpus_s.push(set_up.built.corpus.as_secs_f64());
        build_s.push(set_up.built.build.as_secs_f64());
        save_ms.push(ms(set_up.save));
        last = Some(set_up);
    }
    let set_up = last.expect("at least one set-up");
    let inputs = Inputs::make(workload, &set_up.built.snapshot, seed, seconds);
    let identity: Vec<String> = inputs.queries[..IDENTITY_SAMPLE]
        .iter()
        .map(|q| {
            set_up
                .built
                .snapshot
                .answer(&config, &gen::request(q))
                .map(|v| wire::encode_result(&v))
                .map_err(|e| format!("{q:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let info = set_up.info;
    drop(set_up.built);

    // Boot from the persisted file, several times; the last server stays up.
    let (mut boot_ms, mut load_ms) = (vec![], vec![]);
    let mut server = None;
    for _ in 0..workload.boot_reps() {
        if let Some(previous) = server.take() {
            corpus::stop(previous);
        }
        let booted = corpus::boot(&path, THREADS)?;
        boot_ms.push(ms(booted.boot));
        load_ms.push(ms(booted.load));
        server = Some(booted.server);
    }
    let server = server.expect("at least one boot");
    let bodies: Vec<String> = inputs.queries.iter().map(|q| query_body(q)).collect();

    let mut measured = Measured {
        setup_s,
        corpus_s,
        build_s,
        save_ms,
        load_ms,
        boot_ms,
        info,
        peak_rss_mib: 0.0,
        query_ms: Vec::new(),
        query_wall: Duration::ZERO,
        lookups: 0,
        hits: 0,
        publishes: Publishes::default(),
    };
    let result = measure(
        workload,
        seed,
        seconds,
        &server,
        &config,
        &inputs,
        &bodies,
        &identity,
        &mut measured,
        &mut report,
    );
    let result = result.and_then(|()| {
        measured.peak_rss_mib = proc_mib("VmHWM");
        if traced {
            let mut tracer = Tracer::default();
            let context = layers::Context {
                server: &server,
                config: &config,
                queries: &inputs.queries,
                sources: &inputs.extra_sources,
                feedback_targets: &inputs.feedback_targets,
                scale: workload.scale(),
            };
            let extra = layers::run(&context, &mut tracer, &mut measured)?;
            report.problems.extend(extra);
            report.per_layer = layers::metrics(&tracer, &measured, &server);
            report.trace = Some(tracer.dump());
        }
        Ok(())
    });
    corpus::stop(server);
    result?;
    report.end_to_end = end_to_end(&measured);

    // The fixed publish probe, on a fresh server from the same snapshot. It
    // runs on the 10× tier only: its 16 feedbacks and one ingest take about
    // 2 s there and 14 s at 100×, where the same two faults show.
    if workload == Workload::WarmHit10x {
        let probe = probe::run(&path, &config)?;
        report.attempted += probe.attempted;
        report.failed += probe.failures.len() as u64;
        report.failures.extend(probe.failures);
    }
    Ok(report)
}

#[allow(clippy::too_many_arguments)]
fn measure(
    workload: Workload,
    seed: u64,
    seconds: u64,
    server: &QServe,
    config: &QConfig,
    inputs: &Inputs,
    bodies: &[String],
    identity: &[String],
    measured: &mut Measured,
    report: &mut Report,
) -> Result<(), String> {
    // Responses kept for checks: (query index, body).
    let mut kept: Vec<(usize, String)> = Vec::new();

    if workload == Workload::ColdMiss100x {
        let mut client = connect(server.addr())?;
        let start = Instant::now();
        for (i, body) in bodies.iter().enumerate() {
            let (status, text, t0, t1) = post(&mut client, "/query", body)?;
            measured.query_ms.push(ms(t1 - t0));
            measured.lookups += 1;
            report.attempted += 1;
            if status != 200 {
                report.failed += 1;
                continue;
            }
            if cache_status(&text) != "miss" {
                report.problems.push(format!(
                    "{:?}: cold query was not a miss",
                    inputs.queries[i]
                ));
            }
            kept.push((i, text));
        }
        measured.query_wall = start.elapsed();
    } else {
        // Untimed warm-up: every query of the set once, so the cache holds
        // them all.
        let mut client = connect(server.addr())?;
        for (i, body) in bodies.iter().enumerate() {
            let (status, text, _, _) = post(&mut client, "/query", body)?;
            if status != 200 {
                return Err(format!(
                    "{:?}: warm-up query answered {status}",
                    inputs.queries[i]
                ));
            }
            kept.push((i, text));
        }
        drop(client);
        let rounds = WARM_ROUNDS_PER_SECOND * seconds * THREADS as u64;
        let next = AtomicU64::new(0);
        let loops: Vec<Loop> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| s.spawn(|| closed_loop(server, bodies, seed, &next, rounds)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Result<_, _>>()
        })?;
        for l in loops {
            report.attempted += l.latencies_ms.len() as u64;
            report.failed += l.failed;
            measured.lookups += l.latencies_ms.len() as u64;
            measured.hits += l.hits;
            measured.query_ms.extend(l.latencies_ms);
            measured.query_wall = measured.query_wall.max(l.wall);
            kept.extend(l.kept);
        }
        if measured.hits != measured.lookups {
            report.problems.push(format!(
                "warm run: {} of {} lookups missed the cache",
                measured.lookups - measured.hits,
                measured.lookups
            ));
        }
    }

    // Checks, outside the timed loop. Nothing is published during the loop,
    // so every answer comes from the boot snapshot.
    let snapshot = server.engine().snapshot();
    let mut seen: HashMap<usize, String> = HashMap::new();
    for (i, body) in &kept {
        let keywords = &inputs.queries[*i];
        let response = match check::decode(body) {
            Ok(r) => r,
            Err(problem) => {
                report.problems.push(problem);
                continue;
            }
        };
        if let Err(problem) = check::ranked(&response.result, config.max_answers) {
            report.problems.push(problem);
        }
        if response.snapshot != Some(snapshot.id()) {
            report.problems.push(format!(
                "{keywords:?}: response names snapshot {:?}, not the boot snapshot {}",
                response.snapshot,
                snapshot.id()
            ));
            continue;
        }
        let bytes = check::result_bytes(&response);
        // Answers of one query repeat the same bytes; the first of them is
        // replayed against the snapshot (cold: one query in twenty, since
        // each replay is a full miss at the 100× tier).
        if let Some(previous) = seen.get(i) {
            if *previous != bytes {
                report
                    .problems
                    .push(format!("{keywords:?}: repeated answer changed bytes"));
            }
            continue;
        }
        if workload == Workload::WarmHit10x || i % 20 == 0 {
            if let Err(problem) = check::replay(&snapshot, config, keywords, &bytes) {
                report
                    .problems
                    .push(format!("{problem} (cache status {:?})", response.cache));
            }
            let bounds = check::rank1_bounds(&snapshot, config, keywords);
            let served = response.result.query_costs.first().copied();
            if let Err(problem) = check::rank1(keywords, served, bounds) {
                report.problems.push(problem);
            }
        }
        seen.insert(*i, bytes);
    }
    // The restored snapshot answers like the one it was saved from.
    for (i, expected) in identity.iter().enumerate() {
        if seen.get(&i) != Some(expected) {
            report.problems.push(format!(
                "{:?}: restored snapshot answers differently",
                inputs.queries[i]
            ));
        }
    }
    Ok(())
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    vec![
        metric("setup_s", median(&m.setup_s), "s"),
        metric(
            "snapshot_mib",
            m.info.file_bytes as f64 / crate::stats::MIB,
            "MiB",
        ),
        metric("query_p50_ms", quantile(&m.query_ms, 0.50), "ms"),
        metric("query_p95_ms", quantile(&m.query_ms, 0.95), "ms"),
        metric(
            "query_qps",
            m.query_ms.len() as f64 / m.query_wall.as_secs_f64(),
            "1/s",
        ),
        metric("peak_rss_mib", m.peak_rss_mib, "MiB"),
    ]
}
