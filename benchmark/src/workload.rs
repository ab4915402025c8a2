//! The four named workloads and their seeded query streams.
//!
//! `--seed` drives the query stream and the open-loop arrivals, never the
//! dataset. A stream is consumed front to back by every phase of a run and
//! never wraps: a repeated `(location, radius)` would turn a miss into a hit.
//!
//! Uniform choices are dealt from shuffled decks (every keyword, object,
//! radius band and query class once per pass), so two stretches of a stream
//! cost the program nearly the same and a round measures the program, not
//! the luck of its sample. The Zipf draw of the hot set stays a plain draw.

use crate::rng::{Fnv, SplitMix64, Zipf};
use crate::sut::{self, Catalog, Query};

/// Size of the hot keyword set: 64 keywords × 3 radii = 192 slots, which
/// with 4 fragments per worker fits the 2 MiB cache.
const HOT_KEYWORDS: usize = 64;
const TILE: usize = 16;
/// Queries outstanding in the loaded closed loop, whatever the request size.
pub const LOADED_QUERIES: usize = 64;
/// Requests folded into a stream's fingerprint.
const FINGERPRINT_REQUESTS: usize = 4096;
/// Equal bands the radius range [maxR/2, maxR] is dealt from.
const RADIUS_BANDS: u32 = 16;
/// One pass of the mixed workload's class deck: 13 hot, 4 RKQ and 3 cold
/// draws, that is 65 %, 20 % and 15 %.
const MIX: [u32; 3] = [13, 4, 3];

/// Cards dealt without replacement and reshuffled when the deck runs out.
struct Deck {
    cards: Vec<u32>,
    dealt: usize,
}

impl Deck {
    fn new(cards: Vec<u32>) -> Deck {
        let dealt = cards.len();
        Deck { cards, dealt }
    }

    fn deal(&mut self, rng: &mut SplitMix64) -> u32 {
        if self.dealt == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i as u64 + 1) as usize);
            }
            self.dealt = 0;
        }
        self.dealt += 1;
        self.cards[self.dealt - 1]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SgkqHot,
    SgkqCold,
    RkqTile,
    MixedEvict,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::SgkqHot, Workload::SgkqCold, Workload::RkqTile, Workload::MixedEvict];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SgkqHot => "sgkq-hot",
            Workload::SgkqCold => "sgkq-cold",
            Workload::RkqTile => "rkq-tile",
            Workload::MixedEvict => "mixed-evict",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Queries one client submits together: a tile of 16 RKQs, else one.
    pub fn queries_per_request(self) -> usize {
        match self {
            Workload::RkqTile => TILE,
            _ => 1,
        }
    }

    /// Requests outstanding in the loaded closed loop.
    pub fn loaded_requests(self) -> usize {
        LOADED_QUERIES / self.queries_per_request()
    }

    /// Open-loop Poisson rates in requests/s: about 25 % and 60 % of the
    /// one-outstanding capacity measured when the benchmark was defined.
    pub fn open_rates(self) -> (f64, f64) {
        match self {
            Workload::SgkqHot => (400.0, 1000.0),
            Workload::SgkqCold => (125.0, 300.0),
            Workload::RkqTile => (120.0, 300.0),
            Workload::MixedEvict => (450.0, 1100.0),
        }
    }
}

pub struct Stream<'a> {
    workload: Workload,
    catalog: &'a Catalog,
    seed: u64,
    rng: SplitMix64,
    zipf: Zipf,
    hot_radii: Deck,
    keywords: Deck,
    objects: Deck,
    radius_bands: Deck,
    classes: Deck,
}

impl<'a> Stream<'a> {
    pub fn new(workload: Workload, catalog: &'a Catalog, seed: u64) -> Self {
        let hot = HOT_KEYWORDS.min(catalog.keywords_by_frequency.len());
        let mix = (0..3).flat_map(|class| (0..MIX[class as usize]).map(move |_| class));
        Stream {
            workload,
            catalog,
            seed,
            rng: SplitMix64::fork(seed, 1 + workload as u64),
            zipf: Zipf::new(hot, 1.0),
            hot_radii: Deck::new((0..3).collect()),
            keywords: Deck::new(catalog.keywords_by_frequency.clone()),
            objects: Deck::new((0..catalog.objects.len() as u32).collect()),
            radius_bands: Deck::new((0..RADIUS_BANDS).collect()),
            classes: Deck::new(mix.collect()),
        }
    }

    pub fn next_request(&mut self) -> Vec<Query> {
        match self.workload {
            Workload::SgkqHot => vec![self.hot()],
            Workload::SgkqCold => vec![self.cold()],
            Workload::RkqTile => (0..TILE).map(|_| self.rkq()).collect(),
            Workload::MixedEvict => {
                vec![match self.classes.deal(&mut self.rng) {
                    0 => self.hot(),
                    1 => self.rkq(),
                    _ => self.cold(),
                }]
            }
        }
    }

    /// An independent stream of the same workload and seed, for work whose
    /// inputs must not depend on how far the timed phases got.
    pub fn fork(&self, salt: u64) -> Stream<'a> {
        Stream::new(self.workload, self.catalog, SplitMix64::fork(self.seed, salt).next_u64())
    }

    pub fn take(&mut self, requests: usize) -> Vec<Vec<Query>> {
        (0..requests).map(|_| self.next_request()).collect()
    }

    /// FNV-1a of the first requests of the stream for `seed`.
    pub fn fingerprint(workload: Workload, catalog: &Catalog, seed: u64) -> u64 {
        let mut stream = Stream::new(workload, catalog, seed);
        let mut h = Fnv::new();
        for _ in 0..FINGERPRINT_REQUESTS {
            for q in stream.next_request() {
                sut::fingerprint_query(&q, &mut h);
            }
        }
        h.0
    }

    /// 3 distinct keywords Zipf(1.0) over the hot set; r ∈ {maxR/4, maxR/2, maxR}.
    fn hot(&mut self) -> Query {
        let mut kws = Vec::with_capacity(3);
        while kws.len() < 3 {
            let k = self.catalog.keywords_by_frequency[self.zipf.sample(&mut self.rng)];
            if !kws.contains(&k) {
                kws.push(k);
            }
        }
        let r = self.catalog.max_r >> self.hot_radii.deal(&mut self.rng);
        sut::sgkq(&kws, r)
    }

    /// 5 distinct keywords uniform over all in use; r uniform in [maxR/2, maxR].
    fn cold(&mut self) -> Query {
        let mut kws = Vec::with_capacity(5);
        while kws.len() < 5 {
            // A repeat can only straddle a reshuffle; deal past it.
            let k = self.keywords.deal(&mut self.rng);
            if !kws.contains(&k) {
                kws.push(k);
            }
        }
        let r = self.wide_radius();
        sut::sgkq(&kws, r)
    }

    /// A random object asking for one of its own keywords, so the answer is
    /// never empty; r uniform in [maxR/2, maxR].
    fn rkq(&mut self) -> Query {
        let (node, kws) = &self.catalog.objects[self.objects.deal(&mut self.rng) as usize];
        let kw = kws[self.rng.below(kws.len() as u64) as usize];
        let r = self.wide_radius();
        sut::rkq(*node, kw, r)
    }

    /// Uniform integer in [maxR/2, maxR]: a dealt band, then a point in it.
    fn wide_radius(&mut self) -> u64 {
        let (lo, hi) = (self.catalog.max_r / 2, self.catalog.max_r);
        let band = self.radius_bands.deal(&mut self.rng) as u64;
        let width = (hi - lo + 1) as f64 / RADIUS_BANDS as f64;
        let r = lo + ((band as f64 + self.rng.next_f64()) * width) as u64;
        r.min(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        Catalog {
            keywords_by_frequency: (0..100).collect(),
            objects: (0..50).map(|n| (1000 + n, vec![n % 7, 50 + n])).collect(),
            max_r: 4000,
        }
    }

    fn fingerprints(seed: u64) -> Vec<u64> {
        let catalog = catalog();
        Workload::ALL.iter().map(|&w| Stream::fingerprint(w, &catalog, seed)).collect()
    }

    #[test]
    fn a_seed_names_one_stream_per_workload() {
        assert_eq!(fingerprints(1), fingerprints(1));
        assert_ne!(fingerprints(1), fingerprints(2));
        let one = fingerprints(1);
        assert!(one.iter().all(|f| one.iter().filter(|g| *g == f).count() == 1));
    }

    #[test]
    fn requests_have_the_declared_shape() {
        let catalog = catalog();
        for w in Workload::ALL {
            let mut stream = Stream::new(w, &catalog, 9);
            for request in stream.take(200) {
                assert_eq!(request.len(), w.queries_per_request());
                for q in &request {
                    // Distinct keywords: no term repeats within a query.
                    let terms: Vec<_> = q.terms().collect();
                    assert!(terms.iter().all(|t| terms.iter().filter(|u| u == &t).count() == 1));
                    assert!(q.max_radius() <= catalog.max_r && q.max_radius() >= catalog.max_r / 4);
                }
            }
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    #[test]
    fn a_deck_deals_every_card_once_a_pass() {
        let mut rng = SplitMix64::new(4);
        let mut deck = Deck::new((0..20).collect());
        for _ in 0..3 {
            let mut pass: Vec<u32> = (0..20).map(|_| deck.deal(&mut rng)).collect();
            pass.sort_unstable();
            assert_eq!(pass, (0..20).collect::<Vec<_>>());
        }
    }
}
