//! Output checks made apart from the program, or resting on properties the
//! method must have.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use q_core::{GraphSnapshot, QConfig, RankedView};
use q_graph::{NodeId, QueryGraph};
use q_serve::json;
use q_serve::wire::{self, WireQueryResponse, WireView};

/// Decode a `POST /query` response body.
pub fn decode(body: &str) -> Result<WireQueryResponse, String> {
    let json = json::parse(body.as_bytes()).map_err(|e| format!("response is not JSON: {e:?}"))?;
    wire::decode_query_response(&json).map_err(|e| format!("response does not decode: {e:?}"))
}

/// The `"result"` bytes of a decoded response.
pub fn result_bytes(response: &WireQueryResponse) -> String {
    response.result.to_json().encode()
}

/// Ranked costs never decrease, answers arrive in cost order and never
/// exceed `max_answers`.
pub fn ranked(view: &WireView, max_answers: usize) -> Result<(), String> {
    if view.query_costs.windows(2).any(|w| w[1] < w[0]) {
        return Err(format!(
            "{:?}: ranked costs decrease: {:?}",
            view.keywords, view.query_costs
        ));
    }
    if view.answers.windows(2).any(|w| w[1].cost < w[0].cost) {
        return Err(format!("{:?}: answers out of cost order", view.keywords));
    }
    if view.answers.len() > max_answers {
        return Err(format!(
            "{:?}: {} answers exceed max_answers {max_answers}",
            view.keywords,
            view.answers.len()
        ));
    }
    Ok(())
}

/// Served bytes equal the named snapshot's sequential answer.
pub fn replay(
    snapshot: &GraphSnapshot,
    config: &QConfig,
    keywords: &[String],
    served: &str,
) -> Result<(), String> {
    let view = snapshot
        .answer(config, &crate::gen::request(keywords))
        .map_err(|e| format!("{keywords:?}: replay failed: {e}"))?;
    let expected = wire::encode_result(&view);
    if expected != served {
        return Err(format!(
            "{keywords:?}: served result differs from snapshot {}'s answer (served {} vs {})",
            snapshot.id(),
            &served[..served.len().min(300)],
            &expected[..expected.len().min(300)]
        ));
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry(f64, usize);

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source shortest distances over the query graph's edge costs.
pub fn dijkstra(graph: &QueryGraph<'_>, source: NodeId) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; graph.node_count()];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(Entry(0.0, source.index()));
    while let Some(Entry(d, u)) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &(edge, v) in graph.adjacent(NodeId(u as u32)) {
            let next = d + graph.edge_cost(edge);
            if next < dist[v.index()] {
                dist[v.index()] = next;
                heap.push(Entry(next, v.index()));
            }
        }
    }
    dist
}

/// Bounds on the rank-1 cost, from the benchmark's own shortest paths over
/// the query graph the serving path builds: for two keywords both bounds
/// are the keyword-to-keyword distance; for more, the largest pairwise
/// distance below and the cheapest single-root star above.
pub fn rank1_bounds(snapshot: &GraphSnapshot, config: &QConfig, keywords: &[String]) -> (f64, f64) {
    let refs: Vec<&str> = keywords.iter().map(String::as_str).collect();
    let matches = refs
        .iter()
        .map(|k| {
            snapshot
                .shard_set()
                .keyword_matches(snapshot.keyword_index(), k, &config.match_config)
        })
        .collect();
    let graph = QueryGraph::build_with_matches(snapshot.graph(), &refs, matches);
    let dists: Vec<Vec<f64>> = graph
        .terminals()
        .iter()
        .map(|&t| dijkstra(&graph, t))
        .collect();
    let terminals = graph.terminals();
    let mut lower: f64 = 0.0;
    for (i, d) in dists.iter().enumerate() {
        for t in &terminals[i + 1..] {
            lower = lower.max(d[t.index()]);
        }
    }
    let upper = (0..graph.node_count())
        .map(|v| dists.iter().map(|d| d[v]).sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    (lower, upper)
}

/// The served rank-1 cost lies within `bounds` (equal to them for two
/// keywords); an unconnected query must come back empty.
pub fn rank1(keywords: &[String], served: Option<f64>, bounds: (f64, f64)) -> Result<(), String> {
    let (lower, upper) = bounds;
    let tol = 1e-9 * upper.abs().max(1.0);
    match served {
        None if lower.is_infinite() => Ok(()),
        None => Err(format!(
            "{keywords:?}: no answer although the keywords connect at {lower}"
        )),
        Some(cost) if cost >= lower - tol && cost <= upper + tol => Ok(()),
        Some(cost) => Err(format!(
            "{keywords:?}: rank-1 cost {cost} outside [{lower}, {upper}]"
        )),
    }
}

/// Rank of the tree with exactly `edges` in `view`, if present.
pub fn rank_of(view: &RankedView, edges: &[q_graph::EdgeId]) -> Option<usize> {
    view.queries.iter().position(|q| q.tree.edges == edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use q_core::LiveServer;
    use q_datasets::{gbco_catalog, gbco_trials, GbcoConfig};

    fn small() -> (LiveServer, QConfig) {
        let catalog = gbco_catalog(&GbcoConfig {
            rows_per_table: 10,
            seed: 1,
        });
        let config = QConfig::default();
        (LiveServer::new(catalog, config), config)
    }

    #[test]
    fn rank1_matches_the_independent_shortest_path() {
        let (server, config) = small();
        let snapshot = server.snapshot();
        for trial in gbco_trials() {
            let keywords = trial.keywords;
            let view = snapshot
                .answer(&config, &crate::gen::request(&keywords))
                .unwrap();
            let bounds = rank1_bounds(&snapshot, &config, &keywords);
            let served = view.queries.first().map(|q| q.cost);
            rank1(&keywords, served, bounds).unwrap();
            if keywords.len() == 2 && served.is_some() {
                // A wrong expected value is caught.
                let wrong = (bounds.0 + 0.05, bounds.1 + 0.05);
                assert!(rank1(&keywords, served, wrong).is_err());
            }
        }
    }

    #[test]
    fn replay_and_ranking_catch_wrong_bytes() {
        let (server, config) = small();
        let snapshot = server.snapshot();
        let keywords = gbco_trials()[0].keywords.clone();
        let view = snapshot
            .answer(&config, &crate::gen::request(&keywords))
            .unwrap();
        let bytes = wire::encode_result(&view);
        replay(&snapshot, &config, &keywords, &bytes).unwrap();
        assert!(replay(&snapshot, &config, &keywords, &bytes.replacen('1', "2", 1)).is_err());

        let mut wire_view = WireView::from_view(&view);
        ranked(&wire_view, config.max_answers).unwrap();
        assert!(ranked(&wire_view, 0).is_err() || wire_view.answers.is_empty());
        wire_view.query_costs = vec![2.0, 1.0];
        assert!(ranked(&wire_view, config.max_answers).is_err());
    }
}
