//! Synthetic DBLP-shaped knowledge graph generator.
//!
//! The paper evaluates on the 252M-triple RDF dump of DBLP, which is not
//! available here; this generator produces a schema-faithful, scaled-down
//! graph with the same *mechanisms* the paper's experiments rely on:
//!
//! * a latent topic governs which venue publishes a paper, which authors
//!   write it and which papers it cites — so venue classification is
//!   learnable from the task-relevant 1-hop structure (`authoredBy`,
//!   `cites`);
//! * co-authors tend to share an affiliation, and co-authorship is only
//!   observable through publication nodes — so affiliation link prediction
//!   is learnable from the bidirectional 1-hop structure (d2h1) but not
//!   from outgoing edges alone;
//! * a configurable cloud of distractor node/edge types (Table I: 42 node
//!   types, 48 edge types) attaches topic-uncorrelated structure mostly
//!   *around* the targets (incoming edges, 2+ hops), which the d1h1/d2h1
//!   meta-sampler prunes away — reproducing the accuracy/time/memory win of
//!   KGNet's task-specific subgraph.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use kgnet_rdf::term::RDF_TYPE;
use kgnet_rdf::{RdfStore, Term};

use crate::vocab::dblp as v;

/// Configuration for the DBLP generator.
#[derive(Debug, Clone)]
pub struct DblpConfig {
    /// RNG seed; the generator is fully deterministic given the config.
    pub seed: u64,
    /// Number of publications (the NC targets).
    pub n_papers: usize,
    /// Number of authors.
    pub n_authors: usize,
    /// Number of venues (the NC classes; 50 in Table I).
    pub n_venues: usize,
    /// Number of affiliations (the LP destinations).
    pub n_affiliations: usize,
    /// Number of latent topics driving the label signal.
    pub n_topics: usize,
    /// Probability that a paper's venue matches its topic (label signal
    /// strength).
    pub venue_signal: f64,
    /// Probability that a co-author shares the first author's affiliation.
    pub affiliation_cohesion: f64,
    /// Mean citations per paper.
    pub citations_per_paper: f64,
    /// Maximum authors per paper.
    pub max_authors_per_paper: usize,
    /// Number of distractor node classes (beyond the 5 core classes).
    pub distractor_classes: usize,
    /// Number of distractor edge types (beyond the ~10 core predicates).
    pub distractor_edge_types: usize,
    /// Distractor entities per distractor class.
    pub distractor_entities_per_class: usize,
    /// Mean distractor edges attached per paper (mostly incoming).
    pub distractor_edges_per_paper: f64,
    /// Number of keywords.
    pub n_keywords: usize,
}

impl DblpConfig {
    /// Tiny graph for unit tests (hundreds of triples).
    pub fn tiny(seed: u64) -> Self {
        DblpConfig {
            seed,
            n_papers: 60,
            n_authors: 30,
            n_venues: 5,
            n_affiliations: 6,
            n_topics: 5,
            venue_signal: 0.9,
            affiliation_cohesion: 0.8,
            citations_per_paper: 2.0,
            max_authors_per_paper: 3,
            distractor_classes: 6,
            distractor_edge_types: 8,
            distractor_entities_per_class: 10,
            distractor_edges_per_paper: 2.0,
            n_keywords: 10,
        }
    }

    /// Small graph for integration tests (tens of thousands of triples).
    pub fn small(seed: u64) -> Self {
        DblpConfig {
            seed,
            n_papers: 800,
            n_authors: 400,
            n_venues: 10,
            n_affiliations: 20,
            n_topics: 10,
            venue_signal: 0.9,
            affiliation_cohesion: 0.75,
            citations_per_paper: 3.0,
            max_authors_per_paper: 3,
            distractor_classes: 12,
            distractor_edge_types: 16,
            distractor_entities_per_class: 40,
            distractor_edges_per_paper: 3.0,
            n_keywords: 40,
        }
    }

    /// Benchmark-scale graph matching Table I's *shape*: 42 node types,
    /// 48 edge types, 50 venues. A few hundred thousand triples.
    pub fn benchmark(seed: u64) -> Self {
        DblpConfig {
            seed,
            n_papers: 6_000,
            n_authors: 2_500,
            n_venues: 50,
            n_affiliations: 120,
            n_topics: 50,
            venue_signal: 0.92,
            affiliation_cohesion: 0.75,
            citations_per_paper: 4.0,
            max_authors_per_paper: 4,
            // 5 core classes + 37 distractors = 42 node types (Table I).
            distractor_classes: 37,
            // ~10 core predicates + 38 distractors = 48 edge types.
            distractor_edge_types: 38,
            distractor_entities_per_class: 400,
            distractor_edges_per_paper: 20.0,
            n_keywords: 200,
        }
    }

    /// Scale every entity count by `f` (triple count scales roughly
    /// linearly). The paper-claim tests and the benchmark run at reduced
    /// scales.
    pub fn scaled(mut self, f: f64) -> Self {
        let scale = |n: usize| ((n as f64 * f).round() as usize).max(1);
        self.n_papers = scale(self.n_papers);
        self.n_authors = scale(self.n_authors);
        self.n_affiliations = scale(self.n_affiliations);
        self.distractor_entities_per_class = scale(self.distractor_entities_per_class);
        self.n_keywords = scale(self.n_keywords);
        self
    }
}

/// Ground-truth bookkeeping emitted alongside the graph (used by tests and
/// by experiment harnesses to compute upper bounds; models never see it).
#[derive(Debug, Clone, Default)]
pub struct DblpGroundTruth {
    /// Latent topic of each paper.
    pub paper_topic: Vec<usize>,
    /// Latent topic of each author.
    pub author_topic: Vec<usize>,
    /// Affiliation index of each author.
    pub author_affiliation: Vec<usize>,
    /// Venue index of each paper (the NC label).
    pub paper_venue: Vec<usize>,
}

/// Generate the synthetic DBLP KG.
pub fn generate(cfg: &DblpConfig) -> (RdfStore, DblpGroundTruth) {
    assert!(cfg.n_topics > 0 && cfg.n_venues > 0 && cfg.n_papers > 0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut st = RdfStore::new();
    let mut truth = DblpGroundTruth::default();

    let rdf_type = Term::iri(RDF_TYPE);

    // Venues: venue v has topic v % n_topics.
    for i in 0..cfg.n_venues {
        st.insert(Term::iri(v::venue(i)), rdf_type.clone(), Term::iri(v::VENUE));
        st.insert(Term::iri(v::venue(i)), Term::iri(v::NAME), Term::str(format!("Venue {i}")));
    }
    // Affiliations.
    for i in 0..cfg.n_affiliations {
        st.insert(Term::iri(v::affiliation(i)), rdf_type.clone(), Term::iri(v::AFFILIATION));
        st.insert(
            Term::iri(v::affiliation(i)),
            Term::iri(v::NAME),
            Term::str(format!("Institute {i}")),
        );
    }
    // Keywords.
    for i in 0..cfg.n_keywords {
        st.insert(Term::iri(v::keyword(i)), rdf_type.clone(), Term::iri(v::KEYWORD));
    }

    // Authors: topic + affiliation (affiliation correlated with topic).
    for i in 0..cfg.n_authors {
        let topic = rng.gen_range(0..cfg.n_topics);
        // Affiliations cluster by topic: authors of one topic concentrate in
        // a handful of institutes.
        let aff = if rng.gen_bool(cfg.affiliation_cohesion) {
            (topic * 7 + rng.gen_range(0..2)) % cfg.n_affiliations
        } else {
            rng.gen_range(0..cfg.n_affiliations)
        };
        truth.author_topic.push(topic);
        truth.author_affiliation.push(aff);
        let a = Term::iri(v::author(i));
        st.insert(a.clone(), rdf_type.clone(), Term::iri(v::PERSON));
        st.insert(a.clone(), Term::iri(v::NAME), Term::str(format!("Author {i}")));
        st.insert(a.clone(), Term::iri(v::AFFILIATED_WITH), Term::iri(v::affiliation(aff)));
        // Affiliation history (the paper's LP task predicts the primary
        // affiliation "based on their publications and affiliations
        // history"): the primary usually appears in the history, plus one
        // earlier institute from the same topical cluster.
        if rng.gen_bool(0.7) {
            st.insert(a.clone(), Term::iri(v::PAST_AFFILIATION), Term::iri(v::affiliation(aff)));
        }
        let earlier = (topic * 7 + rng.gen_range(0..4)) % cfg.n_affiliations;
        st.insert(a, Term::iri(v::PAST_AFFILIATION), Term::iri(v::affiliation(earlier)));
    }

    // Index authors by topic for co-author sampling.
    let mut authors_by_topic: Vec<Vec<usize>> = vec![Vec::new(); cfg.n_topics];
    for (i, &t) in truth.author_topic.iter().enumerate() {
        authors_by_topic[t].push(i);
    }
    // Venues by topic.
    let mut venues_by_topic: Vec<Vec<usize>> = vec![Vec::new(); cfg.n_topics];
    for i in 0..cfg.n_venues {
        venues_by_topic[i % cfg.n_topics].push(i);
    }

    // Papers.
    let mut papers_by_topic: Vec<Vec<usize>> = vec![Vec::new(); cfg.n_topics];
    for i in 0..cfg.n_papers {
        let topic = rng.gen_range(0..cfg.n_topics);
        truth.paper_topic.push(topic);
        let p = Term::iri(v::paper(i));
        st.insert(p.clone(), rdf_type.clone(), Term::iri(v::PUBLICATION));
        st.insert(p.clone(), Term::iri(v::TITLE), Term::str(format!("Paper {i} on topic {topic}")));
        st.insert(p.clone(), Term::iri(v::YEAR_OF_PUBLICATION), Term::int(1990 + (i % 34) as i64));

        // Venue label: topic-consistent with probability `venue_signal`.
        let venue = if rng.gen_bool(cfg.venue_signal) && !venues_by_topic[topic].is_empty() {
            *venues_by_topic[topic].choose(&mut rng).expect("non-empty")
        } else {
            rng.gen_range(0..cfg.n_venues)
        };
        truth.paper_venue.push(venue);
        st.insert(p.clone(), Term::iri(v::PUBLISHED_IN), Term::iri(v::venue(venue)));

        // Authors: mostly same-topic.
        let n_auth = rng.gen_range(1..=cfg.max_authors_per_paper);
        let mut chosen = Vec::with_capacity(n_auth);
        for _ in 0..n_auth {
            let pool = if rng.gen_bool(0.85) && !authors_by_topic[topic].is_empty() {
                &authors_by_topic[topic]
            } else {
                // any topic
                &authors_by_topic[rng.gen_range(0..cfg.n_topics)]
            };
            if pool.is_empty() {
                continue;
            }
            let a = *pool.choose(&mut rng).expect("non-empty");
            if !chosen.contains(&a) {
                chosen.push(a);
            }
        }
        for &a in &chosen {
            st.insert(p.clone(), Term::iri(v::AUTHORED_BY), Term::iri(v::author(a)));
        }
        // Note: like the real DBLP dump, co-authorship is *only* mediated by
        // publication nodes (paper --authoredBy--> author); there is no
        // direct author-author edge. This is why the bidirectional d2h1
        // meta-sampling scope is essential for the affiliation LP task
        // (paper §IV.B.2): outgoing-only scopes cannot see co-authors.

        // Citations to same-topic earlier papers.
        let n_cites = poisson_like(&mut rng, cfg.citations_per_paper);
        for _ in 0..n_cites {
            let pool =
                if rng.gen_bool(0.85) { &papers_by_topic[topic] } else { &truth.paper_topic };
            if pool.is_empty() {
                continue;
            }
            let target = if rng.gen_bool(0.85) && !papers_by_topic[topic].is_empty() {
                *papers_by_topic[topic].choose(&mut rng).expect("non-empty")
            } else if i > 0 {
                rng.gen_range(0..i)
            } else {
                continue;
            };
            if target != i {
                st.insert(p.clone(), Term::iri(v::CITES), Term::iri(v::paper(target)));
            }
        }

        // A couple of keywords (outgoing, weakly informative).
        if cfg.n_keywords > 0 {
            let k = (topic * 3 + rng.gen_range(0..3)) % cfg.n_keywords;
            st.insert(p.clone(), Term::iri(v::HAS_KEYWORD), Term::iri(v::keyword(k)));
        }

        papers_by_topic[topic].push(i);
    }

    // Distractor web: entities of `distractor_classes` classes, connected to
    // papers/authors mostly via *incoming* edges (so d1h1 from papers prunes
    // them) and to each other (2+ hops away from any target).
    let n_classes = cfg.distractor_classes;
    let n_edge_types = cfg.distractor_edge_types.max(1);
    for k in 0..n_classes {
        for i in 0..cfg.distractor_entities_per_class {
            let e = Term::iri(v::distractor_entity(k, i));
            st.insert(e.clone(), rdf_type.clone(), Term::iri(v::distractor_class(k)));
            // Distractor-to-distractor chain (beyond 1 hop from targets).
            if i > 0 {
                let prev = Term::iri(v::distractor_entity(k, i - 1));
                st.insert(e.clone(), Term::iri(v::distractor_edge(k % n_edge_types)), prev);
            }
        }
    }
    // Distractor edge mix, mirroring where the irrelevant mass of the real
    // DBLP dump lives: mostly metadata pointing *at* publications (pruned by
    // d1h1 from papers and 2 hops from authors), a dense
    // distractor-to-distractor web (outside every task neighbourhood), and
    // a small share touching authors (which survives d2h1 — KG' is smaller,
    // not noise-free).
    let total_distractor_edges =
        (cfg.n_papers as f64 * cfg.distractor_edges_per_paper).round() as usize;
    for _ in 0..total_distractor_edges {
        let k = rng.gen_range(0..n_classes.max(1));
        let i = rng.gen_range(0..cfg.distractor_entities_per_class.max(1));
        let e = Term::iri(v::distractor_entity(k, i));
        let et = Term::iri(v::distractor_edge(rng.gen_range(0..n_edge_types)));
        let roll: f64 = rng.gen();
        if roll < 0.55 {
            // metadata -> paper (incoming onto targets)
            let target = Term::iri(v::paper(rng.gen_range(0..cfg.n_papers)));
            st.insert(e, et, target);
        } else if roll < 0.90 {
            // distractor web
            let k2 = rng.gen_range(0..n_classes.max(1));
            let i2 = rng.gen_range(0..cfg.distractor_entities_per_class.max(1));
            st.insert(e, et, Term::iri(v::distractor_entity(k2, i2)));
        } else if roll < 0.95 {
            // metadata -> author
            let a = Term::iri(v::author(rng.gen_range(0..cfg.n_authors)));
            st.insert(e, et, a);
        } else {
            // author -> metadata
            let a = Term::iri(v::author(rng.gen_range(0..cfg.n_authors)));
            st.insert(a, et, e);
        }
    }

    (st, truth)
}

/// Cheap Poisson-ish sampler (geometric clamp) for small means.
fn poisson_like(rng: &mut StdRng, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let mut n = 0usize;
    let p = mean / (1.0 + mean);
    while n < (4.0 * mean).ceil() as usize && rng.gen_bool(p) {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let (a, _) = generate(&DblpConfig::tiny(7));
        let (b, _) = generate(&DblpConfig::tiny(7));
        assert_eq!(a.len(), b.len());
        assert_eq!(a.to_ntriples(), b.to_ntriples());
    }

    #[test]
    fn every_paper_has_type_venue_and_title() {
        let cfg = DblpConfig::tiny(1);
        let (st, truth) = generate(&cfg);
        for i in 0..cfg.n_papers {
            let p = Term::iri(v::paper(i));
            assert!(st.contains(&p, &Term::iri(RDF_TYPE), &Term::iri(v::PUBLICATION)));
            let venue = Term::iri(v::venue(truth.paper_venue[i]));
            assert!(st.contains(&p, &Term::iri(v::PUBLISHED_IN), &venue));
        }
    }

    #[test]
    fn venue_labels_correlate_with_topics() {
        let cfg = DblpConfig::small(3);
        let (_, truth) = generate(&cfg);
        let consistent = truth
            .paper_topic
            .iter()
            .zip(&truth.paper_venue)
            .filter(|&(&t, &v)| v % cfg.n_topics == t)
            .count();
        let rate = consistent as f64 / cfg.n_papers as f64;
        assert!(rate > 0.8, "venue/topic consistency too low: {rate}");
    }

    #[test]
    fn node_and_edge_type_counts_match_config_shape() {
        let cfg = DblpConfig::tiny(5);
        let (st, _) = generate(&cfg);
        let q =
            kgnet_rdf::query(&st, "SELECT (COUNT(DISTINCT ?t) AS ?n) WHERE { ?s a ?t }").unwrap();
        let n_types = q.rows[0][0].as_ref().unwrap().as_int().unwrap() as usize;
        // 5 core classes + distractor classes.
        assert_eq!(n_types, 5 + cfg.distractor_classes);
    }

    #[test]
    fn authors_have_affiliations() {
        let cfg = DblpConfig::tiny(2);
        let (st, truth) = generate(&cfg);
        for i in 0..cfg.n_authors {
            let a = Term::iri(v::author(i));
            let aff = Term::iri(v::affiliation(truth.author_affiliation[i]));
            assert!(st.contains(&a, &Term::iri(v::AFFILIATED_WITH), &aff));
        }
    }

    #[test]
    fn scaled_config_grows_entities() {
        let cfg = DblpConfig::tiny(1).scaled(2.0);
        assert_eq!(cfg.n_papers, 120);
        assert_eq!(cfg.n_authors, 60);
    }
}
