//! Corpus tiers, the persisted snapshot and the `--snapshot-dir` boot path.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use q_core::{GraphSnapshot, LiveServer, QConfig, SnapshotInfo};
use q_datasets::scaling::{expand_with_synthetic_sources, ScalingConfig};
use q_datasets::{gbco_catalog, gbco_trials, GbcoConfig};
use q_graph::SearchGraph;
use q_matchers::MetadataMatcher;
use q_serve::{BootMode, BootStats, HttpClient, QServe, ServeOptions};

/// Synthetic 50-row sources added to the 18-source GBCO seed: 10× and 100×
/// the GBCO federation.
pub const TIER_10X: usize = 180;
pub const TIER_100X: usize = 1800;

pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// One built tier and what building it cost.
pub struct Built {
    pub snapshot: GraphSnapshot,
    /// Catalog, search graph and synthetic expansion.
    pub corpus: Duration,
    /// Keyword index and shard structure (`GraphSnapshot::assemble`).
    pub build: Duration,
}

/// Build a tier exactly as the scale and boot experiments do: the default
/// GBCO corpus grown by `additional` synthetic sources (fixed seed, so a
/// tier is the same corpus on every run).
pub fn build(additional: usize) -> Built {
    let start = Instant::now();
    let mut catalog = gbco_catalog(&GbcoConfig::default());
    let mut graph = SearchGraph::from_catalog(&catalog);
    let scaling = ScalingConfig {
        rows_per_table: 50,
        ..ScalingConfig::default()
    };
    expand_with_synthetic_sources(&mut catalog, &mut graph, additional, &scaling);
    let corpus = start.elapsed();
    let start = Instant::now();
    let snapshot = GraphSnapshot::assemble(catalog, graph, QConfig::default().shards);
    Built {
        snapshot,
        corpus,
        build: start.elapsed(),
    }
}

/// Set-up as the benchmark times it: build the tier and persist it.
pub struct SetUp {
    pub built: Built,
    pub save: Duration,
    pub info: SnapshotInfo,
}

pub fn set_up(additional: usize, path: &Path) -> Result<SetUp, String> {
    let built = build(additional);
    let start = Instant::now();
    let info = built
        .snapshot
        .save(path)
        .map_err(|e| format!("saving the {additional}-source tier: {e}"))?;
    Ok(SetUp {
        built,
        save: start.elapsed(),
        info,
    })
}

/// A served snapshot and what restoring it cost.
pub struct Booted {
    pub server: QServe,
    /// `GraphSnapshot::load` → `LiveServer::from_snapshot` → `QServe::start`
    /// → first answered query.
    pub boot: Duration,
    pub load: Duration,
}

/// Engine set-up as the `q-serve` binary does it: default configuration
/// plus the metadata matcher.
fn engine(snapshot: GraphSnapshot) -> LiveServer {
    let mut engine = LiveServer::from_snapshot(snapshot, QConfig::default());
    engine.add_matcher(Box::new(MetadataMatcher::new()));
    engine
}

/// The fixed first query of every boot (the first GBCO trial), so boot
/// time does not depend on the seed.
pub fn boot_probe() -> Vec<String> {
    gbco_trials()[0].keywords.clone()
}

pub fn boot(path: &Path, threads: usize) -> Result<Booted, String> {
    let start = Instant::now();
    let (snapshot, _) = GraphSnapshot::load(path).map_err(|e| format!("loading snapshot: {e}"))?;
    let load = start.elapsed();
    let server = QServe::start(
        engine(snapshot),
        "127.0.0.1:0",
        ServeOptions {
            threads,
            // A benchmark connection may idle while its peer runs checks or
            // waits for the other connection's round.
            keep_alive_timeout: CLIENT_TIMEOUT,
            boot: BootStats {
                mode: BootMode::Snapshot,
                wall: start.elapsed(),
            },
        },
    )
    .map_err(|e| format!("binding a loopback port: {e}"))?;
    let body = q_serve::wire::encode_query(&crate::gen::request(&boot_probe())).encode();
    let mut client = connect(server.addr())?;
    let response = client
        .request("POST", "/query", Some(&body))
        .map_err(|e| format!("boot probe query: {e}"))?;
    let boot = start.elapsed();
    if response.status != 200 {
        return Err(format!("boot probe answered {}", response.status));
    }
    Ok(Booted { server, boot, load })
}

pub fn connect(addr: SocketAddr) -> Result<HttpClient, String> {
    HttpClient::connect(addr, CLIENT_TIMEOUT).map_err(|e| format!("connecting to {addr}: {e}"))
}

/// Stop a server and wait for every one of its threads.
pub fn stop(server: QServe) {
    server.shutdown();
    server.join();
}
