//! Seeded request streams. Each connection draws its own deterministic
//! sequence, so the same seed sends the same requests in the same order.

use netmark_corpus::{RawDoc, BODY_WORDS, SECTION_NAMES};

/// SplitMix64: small, seedable, and stable across builds.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Seed of connection `conn`'s stream (and of warm-up streams, with a salt).
pub fn stream_seed(seed: u64, salt: u64, conn: usize) -> u64 {
    seed.wrapping_mul(1_000_003) ^ (salt << 40) ^ conn as u64
}

fn enc(s: &str) -> String {
    netmark_xdb::url_encode(s)
}

/// A seeded, stratified term source: the vocabulary and the section labels,
/// each shuffled once and then cycled, so every run draws each word and
/// label about equally often.
pub struct Terms {
    words: Vec<&'static str>,
    labels: Vec<&'static str>,
    next_word: usize,
    next_label: usize,
}

fn shuffled(rng: &mut Rng, items: &[&'static str]) -> Vec<&'static str> {
    let mut v = items.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

impl Terms {
    pub fn new(rng: &mut Rng) -> Terms {
        Terms {
            words: shuffled(rng, BODY_WORDS),
            labels: shuffled(rng, SECTION_NAMES),
            next_word: 0,
            next_label: 0,
        }
    }

    fn word(&mut self) -> &'static str {
        self.next_word += 1;
        self.words[(self.next_word - 1) % self.words.len()]
    }

    fn label(&mut self) -> &'static str {
        self.next_label += 1;
        self.labels[(self.next_label - 1) % self.labels.len()]
    }
}

/// Shapes of the search mix, cycled in order so every run sends them in the
/// same proportions: one-term and two-term content (each unranked, then
/// ranked), context with content, and a two-label context union.
const SEARCH_SHAPES: usize = 8;

/// One engine query of the search mix. Every shape carries `limit=10`, so
/// rendering stays small next to the engine work. `n` (the request's
/// position in its stream) picks the shape.
pub fn search_query(n: usize, t: &mut Terms) -> String {
    let shape = n % SEARCH_SHAPES;
    let rank = if shape % 2 == 1 { "&rank=bm25" } else { "" };
    match shape {
        0 | 1 => format!("/xdb?Content={}{rank}&limit=10", t.word()),
        2 | 3 => format!(
            "/xdb?Content={}{rank}&limit=10",
            enc(&format!("{} {}", t.word(), t.word()))
        ),
        4 | 5 => format!(
            "/xdb?Context={}&Content={}&limit=10",
            enc(t.label()),
            t.word()
        ),
        _ => format!(
            "/xdb?Context={}&limit=10",
            enc(&format!("{}|{}", t.label(), t.label()))
        ),
    }
}

/// A federated query, alternating context + content and ranked content
/// with a limit.
pub fn federated_query(n: usize, t: &mut Terms, databank: &str) -> String {
    if n.is_multiple_of(2) {
        format!(
            "/xdb?databank={databank}&Context={}&Content={}&limit=10",
            enc(t.label()),
            t.word()
        )
    } else {
        format!(
            "/xdb?databank={databank}&Content={}&rank=bm25&limit=10",
            t.word()
        )
    }
}

/// The heading every document of a generated kind carries.
fn known_context(name: &str) -> Option<&'static str> {
    match name.rsplit('.').next()? {
        "wdoc" | "sdoc" => Some("Budget"),
        "html" => Some("Summary"),
        "pdoc" => Some("Corrective Action"),
        _ => None,
    }
}

/// The popular set of cheap, selective requests, in popularity order:
/// title needles, one document's section, a whole stored document, and a
/// one-hit context probe.
pub fn lookup_items(docs: &[RawDoc], seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x100c);
    let per_kind = (docs.len() / 6).max(1);
    (0..count)
        .map(|_| match rng.below(4) {
            0 => format!("/xdb?Content={:04}", rng.below(per_kind)),
            1 => {
                let d = &docs[rng.below(docs.len())];
                match known_context(&d.name) {
                    Some(ctx) => format!("/xdb?doc={}&Context={}", enc(&d.name), enc(ctx)),
                    None => format!("/docs/{}", enc(&d.name)),
                }
            }
            2 => format!("/docs/{}", enc(&docs[rng.below(docs.len())].name)),
            _ => format!("/xdb?Context={}&limit=1", enc(rng.pick(SECTION_NAMES))),
        })
        .collect()
}

/// Zipf(s = 1) sampler over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed() {
        let stream = |seed| {
            let mut t = Terms::new(&mut Rng::new(seed));
            (0..50).map(|n| search_query(n, &mut t)).collect::<Vec<_>>()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn terms_are_stratified() {
        let mut t = Terms::new(&mut Rng::new(5));
        let mut seen: Vec<&str> = (0..BODY_WORDS.len()).map(|_| t.word()).collect();
        seen.sort_unstable();
        let mut all = BODY_WORDS.to_vec();
        all.sort_unstable();
        assert_eq!(seen, all, "one cycle draws every word once");
    }

    #[test]
    fn every_query_parses() {
        let mut t = Terms::new(&mut Rng::new(3));
        for n in 0..500 {
            for q in [search_query(n, &mut t), federated_query(n, &mut t, "nasa")] {
                let qs = q.strip_prefix("/xdb?").unwrap();
                netmark_xdb::XdbQuery::from_url(qs).unwrap_or_else(|e| panic!("{q}: {e}"));
            }
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100);
        let mut r = Rng::new(1);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        assert!(
            counts[0] > 20_000 / 10,
            "rank 0 draws about 1/H(100) of samples"
        );
    }
}
