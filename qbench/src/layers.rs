//! The traced run's layer pass: the benchmark calls each layer's public
//! functions itself, on the run's own snapshot and inputs, inside spans.
//! The program is not instrumented; every span is taken from outside.

use std::sync::Arc;

use q_core::cache::{
    CostTerm, IngestionDelta, QueryCache, QueryKey, RevalidationModel, TreeCostModel,
};
use q_core::translate::{materialize_view, tree_to_query};
use q_core::{Feedback, FeedbackRequest, QConfig, RankedQuery, RankedView};
use q_graph::{
    approx_top_k_detailed_fanned, FeatureVector, QueryGraph, ShardSet, SteinerConfig,
    SteinerScratch,
};
use q_matchers::{MetadataMatcher, SchemaMatcher};
use q_serve::{wire, QServe};
use q_snap::SectionKind;

use crate::corpus::connect;
use crate::gen::{self, NewSource};
use crate::stats::{median, MIB};
use crate::trace::Tracer;
use crate::workload::{metric, publish, Measured, Metric, Step};

/// How much of each layer the pass exercises. Every real publish at the
/// 100× tier re-matches the keywords of every cached entry, so that tier
/// gets a smaller pass.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Queries whose miss path is decomposed (their answers also fill the
    /// cache the decomposed publishes sync).
    miss: usize,
    /// Publishes decomposed step by step (never published).
    publishes: usize,
    /// Feedbacks on GBCO trials decomposed, then applied in-process.
    feedback: usize,
    /// Real ingests, each followed by a real feedback on the new source,
    /// that the pass sends first over the workload's cached entries, for
    /// the cache-verdict, lane and memory metrics. None at the 100× tier:
    /// one real ingest over a cold run's 200 cached entries, with its lane
    /// settling, takes about 45 s of the 180 s a run may last.
    epilogue: usize,
}

pub const SMALL: Scale = Scale {
    miss: 48,
    publishes: 6,
    feedback: 4,
    epilogue: 3,
};
pub const LARGE: Scale = Scale {
    miss: 24,
    publishes: 2,
    feedback: 2,
    epilogue: 0,
};

impl Scale {
    /// Fresh sources the pass needs.
    pub fn sources(self) -> usize {
        self.publishes + self.epilogue
    }

    /// Feedback targets the pass needs.
    pub fn feedback_targets(self) -> usize {
        self.feedback
    }
}

/// In-process hits and matching round trips on resident keys.
const HIT_OPS: usize = 200;
/// Decomposed answers compared byte for byte with `GraphSnapshot::answer`.
const FAITHFUL_SAMPLE: usize = 4;

pub struct Context<'a> {
    pub server: &'a QServe,
    pub config: &'a QConfig,
    pub queries: &'a [Vec<String>],
    pub sources: &'a [NewSource],
    pub feedback_targets: &'a [Vec<String>],
    pub scale: Scale,
}

/// Run the pass; returns failed checks.
pub fn run(
    cx: &Context<'_>,
    tracer: &mut Tracer,
    measured: &mut Measured,
) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    let scale = cx.scale;
    let mut client = connect(cx.server.addr())?;
    let log = &mut measured.publishes;
    for source in &cx.sources[scale.publishes..] {
        publish(
            cx.server,
            &mut client,
            &Step::Ingest(source.clone()),
            cx.config,
            log,
        )?;
        publish(
            cx.server,
            &mut client,
            &Step::Feedback(source.unique.to_vec()),
            cx.config,
            log,
        )?;
    }
    if log.failed > 0 {
        problems.push(format!("{} traced publishes failed", log.failed));
    }
    problems.append(&mut log.problems);
    let mut cache = miss_path(cx, tracer, &mut problems)?;
    wire_and_hits(cx, tracer, &mut problems)?;
    for (i, source) in cx.sources[..scale.publishes].iter().enumerate() {
        decompose_publish(cx, tracer, &mut cache, source, i as u64)?;
    }
    for (i, keywords) in cx.feedback_targets[..scale.feedback].iter().enumerate() {
        decompose_feedback(cx, tracer, keywords, i as u64)?;
    }
    Ok(problems)
}

/// Keyword match → query graph → Steiner search → translate → materialise,
/// as the serving path runs them. Returns a cache holding every answer, the
/// reader's entries for the cache-sync step of the publish decomposition.
fn miss_path(
    cx: &Context<'_>,
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> Result<QueryCache, String> {
    let config = cx.config;
    let snapshot = cx.server.engine().snapshot();
    let (catalog, graph) = (snapshot.catalog(), snapshot.graph());
    let mut cache = QueryCache::default();
    cache.sync_epoch(graph.weight_epoch(), graph);
    let mut scratch = SteinerScratch::default();
    let steiner = SteinerConfig {
        k: config.top_k,
        max_roots: config.steiner.max_roots,
        max_cost: config.steiner.max_cost,
    };
    for (i, keywords) in cx.queries.iter().take(cx.scale.miss).enumerate() {
        let id = i as u64;
        let refs: Vec<&str> = keywords.iter().map(String::as_str).collect();
        let root = tracer.open("miss", None, id);
        let (matches, _) = tracer.span("keyword.match", Some(root), id, || {
            refs.iter()
                .map(|k| {
                    snapshot.shard_set().keyword_matches(
                        snapshot.keyword_index(),
                        k,
                        &config.match_config,
                    )
                })
                .collect::<Vec<_>>()
        });
        for m in &matches {
            tracer.count("keyword.matches", id, m.len() as f64);
        }
        let (query_graph, _) = tracer.span("query_graph.build", Some(root), id, || {
            QueryGraph::build_with_matches(graph, &refs, matches)
        });
        tracer.count("query_graph.nodes", id, query_graph.node_count() as f64);
        let terminals = query_graph.terminals();
        let ((trees, stats), _) = tracer.span("steiner.search", Some(root), id, || {
            approx_top_k_detailed_fanned(
                &query_graph,
                &terminals,
                &steiner,
                &mut scratch,
                config.shard_workers,
            )
        });
        tracer.count("steiner.roots", id, stats.roots_considered as f64);
        tracer.count("steiner.candidates", id, stats.candidates_generated as f64);
        tracer.count("steiner.duplicates", id, stats.duplicates_pruned as f64);
        if stats.candidates_generated > 0 {
            tracer.count(
                "steiner.yield",
                id,
                stats.trees_returned as f64 / stats.candidates_generated as f64,
            );
        }
        let (mut ranked, _) = tracer.span("translate", Some(root), id, || {
            trees
                .into_iter()
                .filter_map(|tree| {
                    tree_to_query(catalog, &query_graph, &tree).map(|query| RankedQuery {
                        cost: tree.cost,
                        tree,
                        query,
                    })
                })
                .collect::<Vec<_>>()
        });
        ranked.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        let (materialized, _) = tracer.span("materialize", Some(root), id, || {
            materialize_view(
                catalog,
                graph,
                &ranked,
                config.column_merge_threshold,
                config.max_answers,
            )
        });
        tracer.close(root);
        let (columns, column_sources, answers) =
            materialized.map_err(|e| format!("{keywords:?}: materialise: {e}"))?;
        tracer.count("materialize.answers", id, answers.len() as f64);

        let model = RevalidationModel {
            trees: ranked
                .iter()
                .map(|rq| {
                    TreeCostModel::new(
                        rq.tree
                            .edges
                            .iter()
                            .map(|e| {
                                if e.index() < graph.edge_count() {
                                    CostTerm::Base(*e)
                                } else {
                                    let edge = query_graph.edge(*e);
                                    CostTerm::Local(if edge.kind.is_fixed_zero() {
                                        FeatureVector::empty()
                                    } else {
                                        edge.features.clone()
                                    })
                                }
                            })
                            .collect(),
                    )
                })
                .collect(),
            budget: config.steiner.max_cost,
            revalidatable: true,
            top_k: config.top_k,
        };
        let view = RankedView {
            keywords: keywords.clone(),
            columns,
            column_sources,
            queries: ranked,
            answers,
        };
        if i < FAITHFUL_SAMPLE {
            let served = snapshot
                .answer(config, &gen::request(keywords))
                .map_err(|e| format!("{keywords:?}: {e}"))?;
            if wire::encode_result(&served) != wire::encode_result(&view) {
                problems.push(format!(
                    "{keywords:?}: decomposed miss path differs from the serving path"
                ));
            }
        }
        cache.insert(QueryKey::from_keywords(&refs), Arc::new(view), model);
    }
    Ok(cache)
}

/// Request decode, in-process hit, response encode, and the client round
/// trip of the same request, on keys resident in the server's cache.
fn wire_and_hits(
    cx: &Context<'_>,
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let engine = cx.server.engine();
    let keys = &cx.queries[..cx.queries.len().min(48)];
    for keywords in keys {
        engine
            .query(&gen::request(keywords))
            .map_err(|e| format!("{keywords:?}: {e}"))?;
    }
    let mut client = connect(cx.server.addr())?;
    for op in 0..HIT_OPS {
        let id = op as u64;
        let keywords = &keys[op % keys.len()];
        let body = wire::encode_query(&gen::request(keywords)).encode();
        let (request, _) = tracer.span("serve.decode", None, id, || {
            wire::parse_body(body.as_bytes()).and_then(|json| wire::decode_query(&json))
        });
        let request = request.map_err(|e| format!("{keywords:?}: decode: {e:?}"))?;
        let (outcome, hit) = tracer.span("cache.hit", None, id, || engine.query(&request));
        let outcome = outcome.map_err(|e| format!("{keywords:?}: {e}"))?;
        if outcome.cache != q_core::CacheStatus::Hit
            && outcome.cache != q_core::CacheStatus::Revalidated
        {
            problems.push(format!("{keywords:?}: resident key missed the cache"));
        }
        let (text, _) = tracer.span("serve.encode", None, id, || {
            wire::encode_query_response(&outcome).encode()
        });
        tracer.count("serve.response_kib", id, text.len() as f64 / 1024.0);
        let (response, trip) = tracer.span("serve.roundtrip", None, id, || {
            client.request("POST", "/query", Some(&body))
        });
        let response = response.map_err(|e| format!("POST /query: {e}"))?;
        if response.status != 200 {
            problems.push(format!(
                "{keywords:?}: hit round trip answered {}",
                response.status
            ));
        }
        let overhead_ms = tracer.duration_ms(trip) - tracer.duration_ms(hit);
        tracer.count("serve.overhead_us", id, overhead_ms * 1e3);
    }
    Ok(())
}

/// One ingest's publish pipeline, step by step, on clones of the current
/// snapshot (nothing is published).
fn decompose_publish(
    cx: &Context<'_>,
    tracer: &mut Tracer,
    reader_cache: &mut QueryCache,
    source: &NewSource,
    id: u64,
) -> Result<(), String> {
    let config = cx.config;
    let base = cx.server.engine().snapshot();
    let root = tracer.open("publish", None, id);
    let (loaded, _) = tracer.span("publish.catalog", Some(root), id, || {
        source.spec.load_incremental(base.catalog())
    });
    let (catalog, new_source) = loaded.map_err(|e| format!("{}: {e}", source.relation))?;
    let matcher = MetadataMatcher::new();
    let (alignments, _) = tracer.span("publish.match", Some(root), id, || {
        matcher.match_source(&catalog, new_source, config.top_y)
    });
    tracer.count("publish.alignments", id, alignments.len() as f64);
    let old_nodes = base.graph().node_count();
    let old_edges = base.graph().edge_count();
    let (graph, _) = tracer.span("publish.graph", Some(root), id, || {
        let mut graph = base.graph().clone();
        graph.add_source(&catalog, new_source);
        for a in &alignments {
            graph.add_association(
                a.new_attribute,
                a.existing_attribute,
                matcher.name(),
                a.confidence,
            );
        }
        graph
    });
    let new_relations = catalog
        .source(new_source)
        .map(|s| s.relations.clone())
        .unwrap_or_default();
    let (keyword_index, _) = tracer.span("publish.keyword_index", Some(root), id, || {
        let mut index = base.keyword_index().clone();
        for relation in &new_relations {
            index.add_relation(&catalog, *relation);
        }
        index
    });
    let (_shards, _) = tracer.span("publish.shard", Some(root), id, || {
        ShardSet::build(&catalog, &graph, &keyword_index, config.shards)
    });
    let bridge_seeds: Vec<(q_graph::NodeId, f64)> = graph.edges()[old_edges..]
        .iter()
        .filter(|e| e.a.index() < old_nodes || e.b.index() < old_nodes)
        .flat_map(|e| {
            let cost = graph.edge_cost(e.id);
            [(e.a, cost), (e.b, cost)]
        })
        .collect();
    let delta = IngestionDelta {
        catalog: &catalog,
        keyword_index: &keyword_index,
        match_config: &config.match_config,
        new_relations: &new_relations,
        graph: &graph,
        bridge_seeds: &bridge_seeds,
        edge_count: graph.edge_count(),
    };
    let mut cache = reader_cache.clone();
    let (sync, _) = tracer.span("publish.cache_sync", Some(root), id, || {
        cache.sync_ingestion(graph.weight_epoch(), &delta)
    });
    tracer.close(root);
    tracer.count("publish.sync_kept", id, sync.kept as f64);
    Ok(())
}

/// One feedback: the parts `LiveServer::feedback` runs that are public,
/// timed on the current snapshot, then the real in-process feedback.
fn decompose_feedback(
    cx: &Context<'_>,
    tracer: &mut Tracer,
    keywords: &[String],
    id: u64,
) -> Result<(), String> {
    let config = cx.config;
    let engine = cx.server.engine();
    let base = engine.snapshot();
    let (answer, answer_span) = tracer.span("feedback.answer", None, id, || {
        base.answer(config, &gen::request(keywords))
    });
    answer.map_err(|e| format!("{keywords:?}: {e}"))?;
    let (clones, clone_span) = tracer.span("feedback.clone", None, id, || {
        (base.catalog().clone(), base.keyword_index().clone())
    });
    drop(clones);
    let (shards, shard_span) = tracer.span("feedback.shard", None, id, || {
        ShardSet::build(
            base.catalog(),
            base.graph(),
            base.keyword_index(),
            config.shards,
        )
    });
    drop(shards);
    drop(base);
    let request =
        FeedbackRequest::on_keywords(keywords.iter().cloned(), Feedback::Correct { answer: 0 });
    let (report, total_span) =
        tracer.span("feedback.total", None, id, || engine.feedback(&request));
    report.map_err(|e| format!("{keywords:?}: feedback: {e}"))?;
    let parts = tracer.duration_ms(answer_span)
        + tracer.duration_ms(clone_span)
        + tracer.duration_ms(shard_span);
    tracer.count(
        "feedback.rest_ms",
        id,
        tracer.duration_ms(total_span) - parts,
    );
    Ok(())
}

/// Median of `values`, or 0 when the layer did no such work in this run.
fn med(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

pub fn metrics(tracer: &Tracer, m: &Measured, server: &QServe) -> Vec<Metric> {
    let span = |name: &str| med(&tracer.durations_ms(name));
    let count = |name: &str| med(&tracer.counts(name));
    let p = &m.publishes;
    let section = |kinds: &[SectionKind]| {
        kinds.iter().map(|k| m.info.kind_bytes(*k)).sum::<u64>() as f64 / MIB
    };
    let rss_per_publish = match (p.rss_mib.first(), p.rss_mib.last()) {
        (Some(first), Some(last)) if p.rss_mib.len() > 1 => {
            (last - first) / (p.rss_mib.len() - 1) as f64
        }
        _ => 0.0,
    };
    let hit_ratio = if m.lookups > 0 {
        m.hits as f64 / m.lookups as f64
    } else {
        0.0
    };
    vec![
        metric("serve.decode_us", span("serve.decode") * 1e3, "us"),
        metric("serve.encode_us", span("serve.encode") * 1e3, "us"),
        metric("serve.response_kib", count("serve.response_kib"), "KiB"),
        metric("serve.overhead_us", count("serve.overhead_us"), "us"),
        metric("cache.hit_us", span("cache.hit") * 1e3, "us"),
        metric("cache.hit_ratio", hit_ratio, "ratio"),
        metric("cache.kept", med(&p.cache_kept), "count"),
        metric("cache.parked", med(&p.cache_parked), "count"),
        metric("cache.dropped", med(&p.cache_dropped), "count"),
        metric("lane.settle_ms", med(&p.settle_ms), "ms"),
        metric("lane.kept", med(&p.lane_kept), "count"),
        metric("lane.repriced", med(&p.lane_repriced), "count"),
        metric("lane.dropped", med(&p.lane_dropped), "count"),
        metric("keyword.match_ms", span("keyword.match"), "ms"),
        metric("keyword.matches", count("keyword.matches"), "count"),
        metric("query_graph.build_ms", span("query_graph.build"), "ms"),
        metric("query_graph.nodes", count("query_graph.nodes"), "count"),
        metric("steiner.search_ms", span("steiner.search"), "ms"),
        metric("steiner.roots", count("steiner.roots"), "count"),
        metric("steiner.candidates", count("steiner.candidates"), "count"),
        metric("steiner.duplicates", count("steiner.duplicates"), "count"),
        metric("steiner.yield", count("steiner.yield"), "ratio"),
        metric("translate.ms", span("translate"), "ms"),
        metric("materialize.ms", span("materialize"), "ms"),
        metric("materialize.answers", count("materialize.answers"), "count"),
        metric("publish.ingest_ms", med(&p.ingest_ms), "ms"),
        metric("publish.catalog_ms", span("publish.catalog"), "ms"),
        metric("publish.graph_ms", span("publish.graph"), "ms"),
        metric(
            "publish.keyword_index_ms",
            span("publish.keyword_index"),
            "ms",
        ),
        metric("publish.match_ms", span("publish.match"), "ms"),
        metric("publish.alignments", count("publish.alignments"), "count"),
        metric("publish.shard_ms", span("publish.shard"), "ms"),
        metric("publish.cache_sync_ms", span("publish.cache_sync"), "ms"),
        metric("feedback.round_trip_ms", med(&p.feedback_ms), "ms"),
        metric("feedback.answer_ms", span("feedback.answer"), "ms"),
        metric("feedback.clone_ms", span("feedback.clone"), "ms"),
        metric("feedback.shard_ms", span("feedback.shard"), "ms"),
        metric("feedback.rest_ms", count("feedback.rest_ms"), "ms"),
        metric("snap.boot_ms", med(&m.boot_ms), "ms"),
        metric("snap.load_ms", med(&m.load_ms), "ms"),
        metric("snap.save_ms", med(&m.save_ms), "ms"),
        metric("snap.keyword_mib", section(&[SectionKind::Keyword]), "MiB"),
        metric("snap.catalog_mib", section(&[SectionKind::Catalog]), "MiB"),
        metric(
            "snap.graph_mib",
            section(&[SectionKind::Graph, SectionKind::GraphCsr]),
            "MiB",
        ),
        metric(
            "snap.shard_mib",
            section(&[
                SectionKind::ShardMeta,
                SectionKind::ShardInterior,
                SectionKind::ShardBoundary,
            ]),
            "MiB",
        ),
        metric(
            "mem.retained_snapshots",
            server.snapshots().len() as f64,
            "count",
        ),
        metric("mem.rss_per_publish_mib", rss_per_publish, "MiB"),
        metric("setup.corpus_s", med(&m.corpus_s), "s"),
        metric("setup.build_s", med(&m.build_s), "s"),
    ]
}
