//! The seeded request generator: which workloads exist, which query texts
//! each one sends, and in what order. Everything here is a pure function of
//! the seed and the KG's entity counts, so the program under test receives
//! only generated inputs and two runs with one seed send identical bytes.

use std::ops::Range;

use kgnet::datagen::vocab::dblp as v;
use kgnet::datagen::DblpConfig;

/// One benchmark workload: a single query class driven on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlainPoint,
    PlainScan,
    MlSelect,
    MixedRw,
    TrainJob,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PlainPoint,
        Workload::PlainScan,
        Workload::MlSelect,
        Workload::MixedRw,
        Workload::TrainJob,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlainPoint => "plain-point",
            Workload::PlainScan => "plain-scan",
            Workload::MlSelect => "ml-select",
            Workload::MixedRw => "mixed-rw",
            Workload::TrainJob => "train-job",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Scale factor applied to `DblpConfig::benchmark` (Table-I shape: 42
    /// node types, 48 edge types). The plain workloads serve ~113k triples;
    /// `ml-select` and `train-job` are sized so one run still collects enough
    /// operations for a steady median (see the README).
    pub fn kg_scale(self) -> f64 {
        match self {
            Workload::PlainPoint | Workload::PlainScan | Workload::MixedRw => 0.5,
            Workload::MlSelect => 0.1,
            Workload::TrainJob => 0.25,
        }
    }

    /// The KG this workload runs on for `seed`.
    pub fn kg_config(self, seed: u64) -> DblpConfig {
        DblpConfig::benchmark(seed).scaled(self.kg_scale())
    }

    /// Closed-loop wire clients (one connection each). `mixed-rw` gives its
    /// second thread to the writer; `train-job` has no wire traffic.
    pub fn wire_clients(self) -> usize {
        match self {
            Workload::PlainPoint | Workload::PlainScan | Workload::MlSelect => 2,
            Workload::MixedRw => 1,
            Workload::TrainJob => 0,
        }
    }
}

/// SplitMix64: small, seedable, and owned by the benchmark so the request
/// sequence cannot change under it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One distinct request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// The body sent to `POST /sparql`.
    pub text: String,
    /// What the traced run replays in-process when the wire request missed
    /// the plan cache: the same query under a different plan-cache key, so
    /// the replay misses too. Equal to `text` for SPARQL-ML.
    pub twin: String,
    /// For a `LIMIT` query without a total order: the text without the
    /// `LIMIT`, whose rows the answer must be drawn from.
    pub unlimited: Option<String>,
}

/// The request population of one workload.
#[derive(Debug, Clone)]
pub struct Mix {
    pub specs: Vec<Spec>,
    /// Index ranges into `specs`; a draw picks a class uniformly, then a
    /// spec uniformly inside it.
    pub classes: Vec<Range<usize>>,
    /// One pool of never-repeated texts per client, walked in order.
    pub cold: Vec<Range<usize>>,
    /// Share of draws that take the client's next cold text.
    pub cold_share: f64,
}

const DBLP: &str = "PREFIX dblp: <https://www.dblp.org/> ";
const KGNET: &str = "PREFIX kgnet: <https://www.kgnet.com/> ";

/// Hot texts in `plain-point`: fits the server's 128-plan cache.
const HOT_POINTS: usize = 30;
/// Cold texts per client: far more than the plan cache holds, so by the
/// time the walk wraps around every one of them has been evicted again.
const COLD_PER_CLIENT: usize = 1024;

/// A selective two-pattern lookup on one bound IRI.
fn point_text(shape: usize, entity: usize) -> String {
    match shape {
        0 => {
            let p = v::paper(entity);
            format!(
                "{DBLP}SELECT ?t ?y WHERE {{ <{p}> dblp:title ?t . \
                 <{p}> dblp:yearOfPublication ?y }}"
            )
        }
        1 => {
            let a = v::author(entity);
            format!("{DBLP}SELECT ?p ?t WHERE {{ ?p dblp:authoredBy <{a}> . ?p dblp:title ?t }}")
        }
        _ => {
            let p = v::paper(entity);
            format!("{DBLP}SELECT ?a ?n WHERE {{ <{p}> dblp:authoredBy ?a . ?a dblp:name ?n }}")
        }
    }
}

/// `text` with every variable renamed (`?p` becomes `?px`): another token
/// stream, hence another plan-cache key, with the same work behind it.
fn twin_of(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 16);
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c == '?' && chars.peek().is_some_and(|n| n.is_ascii_alphanumeric()) {
            while let Some(&n) = chars.peek().filter(|n| n.is_ascii_alphanumeric() || **n == '_') {
                out.push(n);
                chars.next();
            }
            out.push('x');
        }
    }
    out
}

/// A plain SELECT: replayed in-process under its twin.
fn plain(text: String, unlimited: Option<String>) -> Spec {
    Spec { twin: twin_of(&text), text, unlimited }
}

/// A SPARQL-ML SELECT: never plan-cached, so it is its own twin.
fn ml(text: String, unlimited: Option<String>) -> Spec {
    Spec { twin: text.clone(), text, unlimited }
}

// `classes` holds one class that *is* a range, not a range's elements.
#[allow(clippy::single_range_in_vec_init)]
fn plain_point(cfg: &DblpConfig, rng: &mut Rng) -> Mix {
    // Per shape, every entity once in seeded order: the head of each list is
    // hot, the next stretch feeds the cold pools, so no cold text is ever a
    // hot one. Hot set and pools hold the three shapes in equal parts
    // whatever the seed; only the entities differ.
    let per_shape: Vec<Vec<usize>> = [cfg.n_papers, cfg.n_authors, cfg.n_papers]
        .into_iter()
        .map(|n| {
            let mut entities: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut entities);
            entities
        })
        .collect();
    let hot_each = HOT_POINTS / per_shape.len();
    let cold_each = (2 * COLD_PER_CLIENT).div_ceil(per_shape.len());
    assert!(
        per_shape.iter().all(|entities| entities.len() >= hot_each + cold_each),
        "KG too small for the cold pools"
    );
    let point = |shape: usize, rank: usize| plain(point_text(shape, per_shape[shape][rank]), None);

    let mut specs: Vec<Spec> =
        (0..HOT_POINTS).map(|i| point(i % per_shape.len(), i / per_shape.len())).collect();
    for join in [
        "SELECT ?p ?a WHERE { ?p a dblp:Publication . ?p dblp:authoredBy ?a }",
        "SELECT ?c ?t WHERE { ?p dblp:cites ?c . ?c dblp:title ?t }",
    ] {
        specs.push(plain(format!("{DBLP}{join} LIMIT 50"), Some(format!("{DBLP}{join}"))));
    }
    let hot = specs.len();
    specs.extend(
        (0..2 * COLD_PER_CLIENT)
            .map(|i| point(i % per_shape.len(), hot_each + i / per_shape.len())),
    );
    Mix {
        specs,
        classes: vec![0..hot],
        cold: vec![hot..hot + COLD_PER_CLIENT, hot + COLD_PER_CLIENT..hot + 2 * COLD_PER_CLIENT],
        cold_share: 0.2,
    }
}

/// The eight fixed scan texts: unselective joins of 1k–8k rows whose
/// in-process latencies lie within ~2x of each other on the seed KG.
#[allow(clippy::single_range_in_vec_init)]
fn plain_scan() -> Mix {
    let sub = "SELECT ?p ?t WHERE { ?p dblp:title ?t . \
               { SELECT ?p WHERE { ?p dblp:authoredBy ?a . ?a dblp:affiliatedWith ?f } } }";
    let mut specs: Vec<Spec> = [
        "SELECT ?p ?a ?n WHERE { ?p a dblp:Publication . ?p dblp:authoredBy ?a . ?a dblp:name ?n }",
        "SELECT ?p ?c ?t WHERE { ?p dblp:yearOfPublication ?y . ?p dblp:cites ?c . \
         ?c dblp:title ?t FILTER(?y >= 2010) }",
        "SELECT ?p ?t ?v ?k WHERE { ?p dblp:publishedIn ?v . ?p dblp:title ?t . \
         ?p dblp:hasKeyword ?k . ?p dblp:yearOfPublication ?y }",
        "SELECT ?p ?y ?k WHERE { ?p a dblp:Publication . ?p dblp:yearOfPublication ?y . \
         OPTIONAL { ?p dblp:hasKeyword ?k } FILTER(?y >= 2005) } ORDER BY ?y ?p",
        "SELECT ?p ?v ?n WHERE { ?p dblp:publishedIn ?v . ?v dblp:name ?n . \
         ?p dblp:yearOfPublication ?y FILTER(?y < 2015) }",
        "SELECT ?p ?a ?f WHERE { ?p dblp:authoredBy ?a . ?a dblp:affiliatedWith ?f . \
         ?p dblp:yearOfPublication ?y FILTER(?y >= 2012) }",
        "SELECT ?p ?k ?t WHERE { ?p dblp:hasKeyword ?k . ?p dblp:title ?t . \
         ?p dblp:publishedIn ?v } ORDER BY ?k",
    ]
    .into_iter()
    .map(|q| plain(format!("{DBLP}{q}"), None))
    .collect();
    specs.push(plain(format!("{DBLP}{sub} LIMIT 20"), Some(format!("{DBLP}{sub}"))));
    let n = specs.len();
    Mix { specs, classes: vec![0..n], cold: Vec::new(), cold_share: 0.0 }
}

/// The paper's Fig. 2 query (predict each paper's venue) with an extra
/// pattern narrowing which papers are bound.
fn ml_text(narrow: &str, filter: &str, limit: &str) -> String {
    format!(
        "{DBLP}{KGNET}SELECT ?paper ?title ?venue WHERE {{ ?paper a dblp:Publication . \
         ?paper dblp:title ?title . {narrow}?paper ?NodeClassifier ?venue . \
         ?NodeClassifier a kgnet:NodeClassifier . \
         ?NodeClassifier kgnet:TargetNode dblp:Publication . \
         ?NodeClassifier kgnet:NodeLabel dblp:publishedIn . {filter}}}{limit}"
    )
}

const ML_VENUES: usize = 8;
const ML_AUTHORS: usize = 16;

/// Four selectivities, one class each: all papers, one venue's papers, one
/// author's papers, and all papers under `LIMIT 10`.
fn ml_select(cfg: &DblpConfig, rng: &mut Rng) -> Mix {
    let all = ml_text("", "", "");
    let mut specs = vec![ml(all.clone(), None)];
    let mut venues: Vec<usize> = (0..cfg.n_venues).collect();
    rng.shuffle(&mut venues);
    for &k in venues.iter().take(ML_VENUES) {
        let filter = format!("FILTER(?v = <{}>) ", v::venue(k));
        specs.push(ml(ml_text("?paper dblp:publishedIn ?v . ", &filter, ""), None));
    }
    let mut authors: Vec<usize> = (0..cfg.n_authors).collect();
    rng.shuffle(&mut authors);
    for &j in authors.iter().take(ML_AUTHORS) {
        let narrow = format!("?paper dblp:authoredBy <{}> . ", v::author(j));
        specs.push(ml(ml_text(&narrow, "", ""), None));
    }
    specs.push(ml(ml_text("", "", " LIMIT 10"), Some(all)));
    let n = specs.len();
    Mix {
        specs,
        classes: vec![0..1, 1..1 + ML_VENUES, 1 + ML_VENUES..n - 1, n - 1..n],
        cold: Vec::new(),
        cold_share: 0.0,
    }
}

impl Mix {
    /// The request population of `workload` for `seed` (empty for
    /// `train-job`, which sends no queries).
    pub fn new(workload: Workload, seed: u64) -> Mix {
        let cfg = workload.kg_config(seed);
        let mut rng = Rng::new(seed ^ 0x6b67_6e65_745f_6d78);
        match workload {
            Workload::PlainPoint => plain_point(&cfg, &mut rng),
            Workload::PlainScan | Workload::MixedRw => plain_scan(),
            Workload::MlSelect => ml_select(&cfg, &mut rng),
            Workload::TrainJob => {
                Mix { specs: Vec::new(), classes: Vec::new(), cold: Vec::new(), cold_share: 0.0 }
            }
        }
    }

    /// The request sequence of one client.
    pub fn stream(&self, seed: u64, client: usize) -> Stream<'_> {
        Stream {
            mix: self,
            rng: Rng::new(seed.wrapping_mul(0x1000_0000_01b3) ^ (client as u64 + 1)),
            client,
            cold_at: 0,
        }
    }
}

/// One client's endless, seeded walk over a [`Mix`].
pub struct Stream<'a> {
    mix: &'a Mix,
    rng: Rng,
    client: usize,
    cold_at: usize,
}

impl Stream<'_> {
    /// Index into `Mix::specs` of the next request.
    pub fn next_index(&mut self) -> usize {
        let mix = self.mix;
        if mix.cold_share > 0.0 && self.rng.unit() < mix.cold_share {
            let pool = &mix.cold[self.client % mix.cold.len()];
            let index = pool.start + self.cold_at % pool.len();
            self.cold_at += 1;
            return index;
        }
        let class = &mix.classes[self.rng.below(mix.classes.len())];
        class.start + self.rng.below(class.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(workload: Workload, seed: u64, client: usize, n: usize) -> Vec<u8> {
        let mix = Mix::new(workload, seed);
        let mut stream = mix.stream(seed, client);
        let mut bytes = Vec::new();
        for _ in 0..n {
            bytes.extend_from_slice(mix.specs[stream.next_index()].text.as_bytes());
            bytes.push(b'\n');
        }
        bytes
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for workload in [Workload::PlainPoint, Workload::PlainScan, Workload::MlSelect] {
            let a = sequence(workload, 13, 0, 500);
            assert_eq!(a, sequence(workload, 13, 0, 500), "{}", workload.name());
            assert_ne!(a, sequence(workload, 14, 0, 500), "{}", workload.name());
            assert_ne!(a, sequence(workload, 13, 1, 500), "{}", workload.name());
        }
    }

    #[test]
    fn cold_texts_never_repeat_within_a_pool_walk_and_never_hit_the_hot_set() {
        let mix = Mix::new(Workload::PlainPoint, 13);
        let hot: std::collections::HashSet<&str> =
            mix.specs[mix.classes[0].clone()].iter().map(|s| s.text.as_str()).collect();
        assert_eq!(hot.len(), 32);
        let mut seen = std::collections::HashSet::new();
        for pool in &mix.cold {
            for spec in &mix.specs[pool.clone()] {
                assert!(!hot.contains(spec.text.as_str()));
                assert!(seen.insert(spec.text.as_str()), "duplicate cold text");
                assert_ne!(spec.text, spec.twin);
            }
        }
        let mut stream = mix.stream(13, 0);
        let cold = (0..10_000).filter(|_| mix.cold[0].contains(&stream.next_index())).count();
        assert!((1_700..2_300).contains(&cold), "cold share off: {cold}");
    }

    #[test]
    fn ml_classes_are_drawn_evenly() {
        let mix = Mix::new(Workload::MlSelect, 13);
        assert_eq!(mix.classes.len(), 4);
        let mut stream = mix.stream(13, 0);
        let mut counts = [0usize; 4];
        for _ in 0..4_000 {
            let i = stream.next_index();
            counts[mix.classes.iter().position(|c| c.contains(&i)).unwrap()] += 1;
        }
        assert!(counts.iter().all(|&c| (850..1_150).contains(&c)), "{counts:?}");
    }
}
