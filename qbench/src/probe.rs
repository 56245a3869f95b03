//! The publish probe: fixed inputs, the same on every seed, sent to a server
//! freshly booted from the run's snapshot after the measured loop.
//!
//! It caches a query whose keywords keep their original case, ingests a
//! source that contains those keywords, lets the re-validation lane settle
//! and replays the answer served afterwards against the snapshot it names.
//! Then it confirms answer 0 of every GBCO trial in turn (`Correct{answer:
//! 0}`) and checks that the annotated tree ranks no lower. Nothing here
//! depends on the seed, so an operation that fails here fails in every run:
//! such a failure is a fault of the program on a fixed input, counted in
//! `failed` and named on standard error, not a wrong output of the run.

use std::path::Path;

use q_core::QConfig;
use q_datasets::gbco_trials;
use q_serve::QServe;

use crate::check;
use crate::corpus::{self, connect};
use crate::gen;
use crate::workload::{post, publish, query_body, Publishes, Step, SOURCE_ROWS, THREADS};

/// Seed of the probe's one source; any fixed value.
const PROBE_SEED: u64 = 0;

pub struct Probe {
    pub attempted: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
}

pub fn run(path: &Path, config: &QConfig) -> Result<Probe, String> {
    let server = corpus::boot(path, THREADS)?.server;
    let result = probe(&server, config);
    corpus::stop(server);
    result
}

fn probe(server: &QServe, config: &QConfig) -> Result<Probe, String> {
    let mut client = connect(server.addr())?;
    let mut failures = Vec::new();
    let source = gen::sources(
        server.engine().snapshot().catalog(),
        PROBE_SEED,
        1,
        SOURCE_ROWS,
    )
    .remove(0);
    let keywords = source.first_cells.clone();
    let body = query_body(&keywords);

    let (status, _, _, _) = post(&mut client, "/query", &body)?;
    if status != 200 {
        failures.push(format!("{keywords:?}: probe query answered {status}"));
    }
    let mut log = Publishes::default();
    publish(server, &mut client, &Step::Ingest(source), config, &mut log)?;
    let (status, text, _, _) = post(&mut client, "/query", &body)?;
    if status != 200 {
        failures.push(format!("{keywords:?}: probe query answered {status}"));
    } else if let Err(problem) = replay(server, config, &keywords, &text) {
        failures.push(problem);
    }
    for trial in gbco_trials() {
        publish(
            server,
            &mut client,
            &Step::Feedback(trial.keywords),
            config,
            &mut log,
        )?;
    }
    failures.extend(log.problems);
    failures.extend((0..log.failed).map(|_| "a probe publish was refused".to_string()));
    Ok(Probe {
        attempted: 2 + log.attempted,
        failures,
    })
}

/// A served answer's `"result"` bytes equal the answer of the snapshot it
/// names.
fn replay(
    server: &QServe,
    config: &QConfig,
    keywords: &[String],
    body: &str,
) -> Result<(), String> {
    let response = check::decode(body)?;
    let snapshot = response
        .snapshot
        .and_then(|id| server.snapshots().into_iter().find(|s| s.id() == id))
        .ok_or_else(|| {
            format!(
                "{keywords:?}: response names unpublished snapshot {:?}",
                response.snapshot
            )
        })?;
    check::replay(&snapshot, config, keywords, &check::result_bytes(&response))
        .map_err(|problem| format!("{problem} (cache status {:?})", response.cache))
}
