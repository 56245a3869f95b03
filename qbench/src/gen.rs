//! Seeded input generators. Everything the server sees is made here from
//! the run's `--seed`: the same seed gives the same queries, sources and
//! feedback, whatever the program under test does with them.

use std::collections::{BTreeSet, HashMap};

use q_core::{cache::normalize_keywords, QueryRequest};
use q_datasets::gbco_trials;
use q_storage::{Catalog, Relation, RelationSpec, SourceSpec, Value};

/// SplitMix64: a small, fixed generator owned by the benchmark, so inputs
/// stay the same when the program's own RNG changes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) sampler over `0..n`: rank `i` is drawn with weight `1/(i+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|i| {
                total += 1.0 / ((i + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("zipf over an empty set");
        let u = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

fn text(value: &Value) -> Option<String> {
    match value {
        Value::Text(t) if !t.trim().is_empty() => Some(t.clone()),
        _ => None,
    }
}

fn nonempty_relations(catalog: &Catalog) -> Vec<&Relation> {
    catalog
        .relations()
        .iter()
        .filter(|r| !r.tuples.is_empty())
        .collect()
}

/// How many distinct attributes hold each normalised cell text. A keyword
/// is matched against (attribute, value) documents and keeps the
/// `max_matches` best, so a value held by more attributes than that may
/// lose its own tuple's document to equally good ones elsewhere.
pub struct ValueSpread(HashMap<String, u32>);

impl ValueSpread {
    pub fn new(catalog: &Catalog) -> Self {
        let mut holders: HashMap<String, (u32, u32)> = HashMap::new();
        for attribute in catalog.attributes() {
            let relation = catalog
                .relation(attribute.relation)
                .expect("attribute relation");
            for tuple in &relation.tuples {
                if let Some(norm) = tuple.get(attribute.position).and_then(Value::normalized) {
                    let entry = holders.entry(norm).or_insert((u32::MAX, 0));
                    if entry.0 != attribute.id.0 {
                        *entry = (attribute.id.0, entry.1 + 1);
                    }
                }
            }
        }
        ValueSpread(holders.into_iter().map(|(k, (_, n))| (k, n)).collect())
    }

    /// A cell makes a keyword when it is text, not a bare number or code
    /// fragment, and held by at most `MatchConfig::max_matches` attributes.
    fn usable(&self, value: &Value) -> Option<String> {
        let text = text(value)?;
        let norm = value.normalized()?;
        let spread = *self.0.get(&norm)?;
        let numeric = norm
            .chars()
            .all(|c| c.is_ascii_digit() || c == '.' || c == '-');
        let limit = q_core::QConfig::default().match_config.max_matches as u32;
        (norm.len() >= 3 && !numeric && spread <= limit).then_some(text)
    }
}

/// A random usable cell of one tuple, or `None` when it has none.
fn cell(rng: &mut Rng, spread: &ValueSpread, relation: &Relation, row: usize) -> Option<String> {
    let values: Vec<String> = relation.tuples[row]
        .values()
        .iter()
        .filter_map(|v| spread.usable(v))
        .collect();
    (!values.is_empty()).then(|| values[rng.below(values.len())].clone())
}

fn attribute_name(rng: &mut Rng, catalog: &Catalog, relation: &Relation) -> String {
    let attr = relation.attributes[rng.below(relation.attributes.len())];
    catalog
        .attribute(attr)
        .expect("relation attribute")
        .name
        .clone()
}

/// A tuple of `to` whose key equals the foreign-key cell of `from_row`.
fn joined_row(
    catalog: &Catalog,
    fk: &q_storage::ForeignKey,
    from: &Relation,
    from_row: usize,
) -> Option<(usize, usize)> {
    let from_attr = catalog.attribute(fk.from)?;
    let to_attr = catalog.attribute(fk.to)?;
    let to = catalog.relation(to_attr.relation)?;
    let key = from.tuples[from_row].get(from_attr.position)?;
    let to_row = to
        .tuples
        .iter()
        .position(|t| t.get(to_attr.position).is_some_and(|v| v.joins_with(key)))?;
    Some((to.id.index(), to_row))
}

/// Relations and foreign keys of one half of the corpus: the GBCO seed or
/// the synthetic expansion.
struct Pool<'a> {
    relations: Vec<&'a Relation>,
    fks: Vec<&'a q_storage::ForeignKey>,
}

fn pools(catalog: &Catalog) -> Vec<Pool<'_>> {
    let synthetic = |r: &Relation| r.name.starts_with("synthetic_rel_");
    let pool = |want: bool| Pool {
        relations: nonempty_relations(catalog)
            .into_iter()
            .filter(|r| synthetic(r) == want)
            .collect(),
        fks: catalog
            .foreign_keys()
            .iter()
            .filter(|fk| {
                let from = catalog
                    .attribute(fk.from)
                    .and_then(|a| catalog.relation(a.relation));
                from.is_some_and(|r| synthetic(r) == want && !r.tuples.is_empty())
            })
            .collect(),
    };
    [pool(false), pool(true)]
        .into_iter()
        .filter(|p| !p.relations.is_empty())
        .collect()
}

/// One candidate query of recipe `kind`, drawn from a single tuple or one
/// foreign-key-joined pair of tuples, so its keywords co-occur by
/// construction.
fn draw(
    rng: &mut Rng,
    catalog: &Catalog,
    spread: &ValueSpread,
    pool: &Pool<'_>,
    kind: usize,
) -> Option<Vec<String>> {
    if kind >= 3 && !pool.fks.is_empty() {
        let fk = pool.fks[rng.below(pool.fks.len())];
        let from = catalog.relation(catalog.attribute(fk.from)?.relation)?;
        let row = rng.below(from.tuples.len());
        let (to_id, to_row) = joined_row(catalog, fk, from, row)?;
        let to = &catalog.relations()[to_id];
        return match kind {
            // Value of the child tuple + value of the joined parent tuple.
            3 => Some(vec![
                cell(rng, spread, from, row)?,
                cell(rng, spread, to, to_row)?,
            ]),
            // Parent relation name + child value + parent value.
            _ => Some(vec![
                to.name.clone(),
                cell(rng, spread, from, row)?,
                cell(rng, spread, to, to_row)?,
            ]),
        };
    }
    let relation = pool.relations[rng.below(pool.relations.len())];
    let row = rng.below(relation.tuples.len());
    match kind {
        // Attribute name + a value of the same tuple.
        0 => Some(vec![
            attribute_name(rng, catalog, relation),
            cell(rng, spread, relation, row)?,
        ]),
        // Two values of one tuple.
        1 => Some(vec![
            cell(rng, spread, relation, row)?,
            cell(rng, spread, relation, row)?,
        ]),
        // Relation name + attribute name + value.
        _ => Some(vec![
            relation.name.clone(),
            attribute_name(rng, catalog, relation),
            cell(rng, spread, relation, row)?,
        ]),
    }
}

const RECIPES: usize = 5;

/// `count` distinct 2–3-keyword queries over `catalog`, with cell values in
/// their original case. Distinct means no two share their normalised keyword set, so each one is
/// a first-time cache miss. Query `i` uses recipe `i % 5` on the GBCO half
/// of the corpus when `i / 5` is even and on the synthetic half otherwise,
/// so every seed gets the same mix of schema-name and cell-value keywords,
/// of 2- and 3-keyword queries, of single-tuple and joined-pair queries,
/// and of the two halves.
pub fn queries(catalog: &Catalog, seed: u64, count: usize) -> Vec<Vec<String>> {
    let mut rng = Rng::new(seed, 1);
    let pools = pools(catalog);
    let spread = ValueSpread::new(catalog);
    // The GBCO trials belong to the warm set; generated queries avoid them.
    let mut seen: BTreeSet<Vec<String>> = gbco_trials()
        .iter()
        .map(|t| sorted_key(&t.keywords))
        .collect();
    let mut out = Vec::with_capacity(count);
    let mut attempts = 0usize;
    while out.len() < count {
        attempts += 1;
        assert!(attempts < count * 100 + 1000, "query generator stalled");
        let (kind, pool) = (
            out.len() % RECIPES,
            &pools[(out.len() / RECIPES) % pools.len()],
        );
        let Some(keywords) = draw(&mut rng, catalog, &spread, pool, kind) else {
            continue;
        };
        let key = sorted_key(&keywords);
        if key.windows(2).any(|w| w[0] == w[1]) || !seen.insert(key) {
            continue;
        }
        out.push(keywords);
    }
    out
}

/// The warm query set: the 16 GBCO trials plus `extra` generated queries.
pub fn warm_set(catalog: &Catalog, seed: u64, extra: usize) -> Vec<Vec<String>> {
    let mut set: Vec<Vec<String>> = gbco_trials().into_iter().map(|t| t.keywords).collect();
    set.extend(queries(catalog, seed, extra));
    set
}

fn sorted_key(keywords: &[String]) -> Vec<String> {
    let refs: Vec<&str> = keywords.iter().map(String::as_str).collect();
    let mut key = normalize_keywords(&refs);
    key.sort();
    key
}

pub fn request(keywords: &[String]) -> QueryRequest {
    QueryRequest::new(keywords.iter().cloned())
}

/// A fresh source to ingest, with the pair of keywords only it contains.
#[derive(Debug, Clone)]
pub struct NewSource {
    pub spec: SourceSpec,
    pub relation: String,
    pub unique: [String; 2],
    /// The cells the first row copies from its template tuple, in their
    /// original case.
    pub first_cells: Vec<String>,
}

/// `count` fresh sources. Each copies two attribute names and seeded cell
/// values from a corpus relation (alternately a GBCO and a synthetic one),
/// so the schema matcher finds alignments for it, and adds two tag
/// columns whose first row holds keywords no other source contains.
pub fn sources(catalog: &Catalog, seed: u64, count: usize, rows: usize) -> Vec<NewSource> {
    let mut rng = Rng::new(seed, 2);
    let relations = nonempty_relations(catalog);
    let (gbco, synthetic): (Vec<&Relation>, Vec<&Relation>) = relations
        .iter()
        .partition(|r| !r.name.starts_with("synthetic_rel_"));
    let vocabulary: Vec<String> = relations
        .iter()
        .take(64)
        .flat_map(|r| r.tuples.iter().take(8))
        .flat_map(|t| t.values().iter().filter_map(text))
        .collect();
    (0..count)
        .map(|i| {
            // Templates follow a fixed cycle, so every seed extends the same
            // relations and grows the same views; names and rows are seeded.
            let pool = if i % 2 == 0 || synthetic.is_empty() {
                &gbco
            } else {
                &synthetic
            };
            let template = pool[(i / 2) % pool.len()];
            let width = template.attributes.len().min(2);
            let mut names: Vec<String> = template.attributes[..width]
                .iter()
                .map(|a| {
                    catalog
                        .attribute(*a)
                        .expect("template attribute")
                        .name
                        .clone()
                })
                .collect();
            names.push("qb_tag_a".into());
            names.push("qb_tag_b".into());
            let relation = format!("{}_ext_{seed}_{i}", template.name);
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let unique = [format!("zqa{seed}x{i}"), format!("zqb{seed}x{i}")];
            let mut spec = RelationSpec::new(&relation, &refs);
            let mut first_cells = Vec::new();
            for r in 0..rows {
                let source = &template.tuples[rng.below(template.tuples.len())];
                let mut row: Vec<String> = (0..width)
                    .map(|c| {
                        source
                            .get(c)
                            .and_then(text)
                            .unwrap_or_else(|| "none".into())
                    })
                    .collect();
                if r == 0 {
                    first_cells = row.clone();
                    row.extend(unique.iter().cloned());
                } else {
                    row.push(vocabulary[rng.below(vocabulary.len())].clone());
                    row.push(vocabulary[rng.below(vocabulary.len())].clone());
                }
                spec = spec.row(row);
            }
            NewSource {
                spec: SourceSpec::new(&format!("qb_source_{seed}_{i}")).relation(spec),
                relation,
                unique,
                first_cells,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(10, 1.2);
        let mut rng = Rng::new(3, 0);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn generators_repeat_per_seed() {
        let catalog = q_datasets::gbco_catalog(&q_datasets::GbcoConfig {
            rows_per_table: 10,
            seed: 1,
        });
        assert_eq!(queries(&catalog, 5, 30), queries(&catalog, 5, 30));
        assert_ne!(queries(&catalog, 5, 30), queries(&catalog, 6, 30));
        let a = sources(&catalog, 5, 3, 4);
        let b = sources(&catalog, 5, 3, 4);
        assert_eq!(format!("{:?}", a[2].spec), format!("{:?}", b[2].spec));
    }
}
