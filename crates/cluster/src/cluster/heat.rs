//! The slot-heat ledger: dispatch counts per `(term, radius)` coverage
//! slot, charged at admission. Its two readers are the brownout ladder's
//! cache-cold test ([`SlotHeat::has_cold`]) and the pre-warm set of a
//! respawned worker ([`SlotHeat::hottest`]).
//!
//! Admission is amortized O(plan slots): the ledger is bounded by an epoch
//! halving and by a trim that runs once per at least [`HEAT_CAP`] inserted
//! slots, never by work proportional to its size on every admission.

use std::cmp::Ordering;
use std::collections::HashMap;

use disks_core::{DTerm, QueryPlan, Term};

/// Admissions between decay epochs: every `HEAT_EPOCH` admitted queries the
/// ledger halves every count (dropping zeros), so heat tracks recent
/// traffic instead of the whole lifetime.
const HEAT_EPOCH: u64 = 1024;

/// Slots a trim retains. The ledger is trimmed to its hottest `HEAT_CAP`
/// only when it reaches twice that, so it holds fewer than `2 × HEAT_CAP`
/// slots plus one plan's between admissions, and consecutive trims are at
/// least `HEAT_CAP` inserted slots apart.
const HEAT_CAP: usize = 4096;

type Entry = ((Term, u64), u64);

/// Deterministic total order on coverage-slot keys, used to break heat
/// ties: keyword slots before node slots, then id, then radius.
fn slot_key(&(term, radius): &(Term, u64)) -> (u8, u64, u64) {
    match term {
        Term::Keyword(kw) => (0, kw.0 as u64, radius),
        Term::Node(n) => (1, n.index() as u64, radius),
    }
}

/// The ledger's one total order, hottest first: count descending, ties by
/// [`slot_key`].
fn hotter_first(a: &Entry, b: &Entry) -> Ordering {
    b.1.cmp(&a.1).then_with(|| slot_key(&a.0).cmp(&slot_key(&b.0)))
}

/// Dispatch counts per coverage slot.
#[derive(Debug, Default)]
pub(super) struct SlotHeat {
    counts: HashMap<(Term, u64), u64>,
    /// Admissions since build, driving the decay epochs.
    admissions: u64,
    #[cfg(test)]
    trims: u64,
}

impl SlotHeat {
    /// Record one admitted plan's coverage slots.
    pub(super) fn charge(&mut self, slots: &[DTerm]) {
        for s in slots {
            *self.counts.entry((s.term, s.radius)).or_insert(0) += 1;
        }
        self.admissions += 1;
        if self.admissions.is_multiple_of(HEAT_EPOCH) {
            self.counts.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
        }
        if self.counts.len() >= 2 * HEAT_CAP {
            let kept = self.select(HEAT_CAP);
            self.counts.clear();
            self.counts.extend(kept);
            #[cfg(test)]
            {
                self.trims += 1;
            }
        }
    }

    /// The `k` first entries under [`hotter_first`], in no particular order.
    fn select(&self, k: usize) -> Vec<Entry> {
        let mut entries: Vec<Entry> = self.counts.iter().map(|(&slot, &c)| (slot, c)).collect();
        if k < entries.len() {
            entries.select_nth_unstable_by(k, hotter_first);
            entries.truncate(k);
        }
        entries
    }

    /// The `k` hottest slots, hottest first (count descending, then slot
    /// key).
    pub(super) fn hottest(&self, k: usize) -> Vec<DTerm> {
        let mut top = self.select(k);
        top.sort_unstable_by(hotter_first);
        top.into_iter().map(|((term, radius), _)| DTerm { term, radius }).collect()
    }

    /// Whether any of the plan's coverage slots is absent from the ledger —
    /// the brownout ladder sheds such cache-cold queries first.
    pub(super) fn has_cold(&self, plan: &QueryPlan) -> bool {
        plan.slots().iter().any(|s| !self.counts.contains_key(&(s.term, s.radius)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disks_core::{DFunction, SgkQuery};
    use disks_roadnet::{KeywordId, NodeId};

    fn kw(k: u32, radius: u64) -> DTerm {
        DTerm { term: Term::Keyword(KeywordId(k)), radius }
    }

    /// Admission `a` of a stream of `per_plan` never-repeating slots.
    fn fresh(a: u64, per_plan: u64) -> Vec<DTerm> {
        (0..per_plan).map(|j| kw((j % 7) as u32, a * per_plan + j)).collect()
    }

    fn ranked(heat: &SlotHeat) -> Vec<Entry> {
        let mut all: Vec<Entry> = heat.counts.iter().map(|(&s, &c)| (s, c)).collect();
        all.sort_by(hotter_first);
        all
    }

    #[test]
    fn churn_is_bounded_by_rare_trims() {
        // 10 240 new slots an epoch: every epoch reaches the trim, once.
        let mut heat = SlotHeat::default();
        for a in 0..20_000 {
            heat.charge(&fresh(a, 10));
            assert!(heat.counts.len() < 2 * HEAT_CAP + 10, "admission {a}");
        }
        assert!(heat.trims >= 1, "the stream reaches the trim");
        assert!(heat.trims <= 20_000 * 10 / HEAT_CAP as u64 + 1, "{} trims", heat.trims);

        // Five slots a plan is 5 120 an epoch: the halving empties the
        // ledger before it ever reaches `2 × HEAT_CAP`.
        let mut heat = SlotHeat::default();
        for a in 0..20_000 {
            heat.charge(&fresh(a, 5));
        }
        assert_eq!(heat.trims, 0);
    }

    #[test]
    fn a_trim_keeps_exactly_the_hottest_cap() {
        // Slot `i` first appears in admission `i / 64` and is charged again
        // by the next `i % 4`, so counts are mixed; every third slot is a
        // node slot, so both halves of the order decide. A plain map is
        // charged alongside and ranked by a full sort.
        let slot = |i: u64| match i % 3 {
            0 => DTerm { term: Term::Node(NodeId(i as u32)), radius: 9 },
            _ => kw((i % 11) as u32, i),
        };
        let mut heat = SlotHeat::default();
        let mut model: HashMap<(Term, u64), u64> = HashMap::new();
        for a in 0u64.. {
            assert!(a + 1 < HEAT_EPOCH, "the trim comes before any halving");
            let plan: Vec<DTerm> = (0..=3.min(a))
                .flat_map(|back| {
                    ((a - back) * 64..(a - back + 1) * 64).filter(move |i| i % 4 >= back)
                })
                .map(slot)
                .collect();
            for s in &plan {
                *model.entry((s.term, s.radius)).or_insert(0) += 1;
            }
            heat.charge(&plan);
            if model.len() < 2 * HEAT_CAP {
                assert_eq!(heat.trims, 0);
                assert_eq!(heat.counts, model);
                continue;
            }
            let mut expected: Vec<Entry> = model.into_iter().collect();
            expected.sort_by(hotter_first);
            expected.truncate(HEAT_CAP);
            assert!(expected.last().unwrap().1 < expected[0].1, "mixed counts survive");
            assert_eq!(heat.trims, 1);
            assert_eq!(ranked(&heat), expected);
            break;
        }
    }

    #[test]
    fn a_slot_charged_every_admission_is_never_trimmed_and_is_hottest() {
        let mut heat = SlotHeat::default();
        let hot = kw(3, 77);
        heat.charge(&[hot]);
        for a in 0..5_000 {
            let mut slots = fresh(a, 10);
            slots.push(hot);
            heat.charge(&slots);
            assert_eq!(heat.hottest(1), vec![hot], "admission {a}");
        }
        assert!(heat.trims >= 1);
    }

    #[test]
    fn hottest_is_the_same_for_two_ledgers_fed_the_same_stream() {
        // Two maps hash with different seeds; the order must not show it.
        let (mut a, mut b) = (SlotHeat::default(), SlotHeat::default());
        for i in 0..900 {
            let mut slots = fresh(i, 10);
            slots.push(kw((i % 5) as u32, 1));
            a.charge(&slots);
            b.charge(&slots);
        }
        assert!(a.trims >= 1);
        for k in [0, 1, 8, 100, HEAT_CAP, 3 * HEAT_CAP] {
            let top = a.hottest(k);
            assert_eq!(top, b.hottest(k), "k={k}");
            assert_eq!(top.len(), k.min(a.counts.len()));
            let all: Vec<DTerm> =
                ranked(&a).into_iter().map(|((term, radius), _)| DTerm { term, radius }).collect();
            assert_eq!(top, all[..top.len()], "k={k} against the sorted ledger");
        }
    }

    #[test]
    fn the_epoch_halving_drops_slots_seen_once() {
        let mut heat = SlotHeat::default();
        let twice = kw(1, 5);
        heat.charge(&[twice]);
        for a in 1..HEAT_EPOCH - 1 {
            heat.charge(&[twice, kw(2, 100 + a)]);
        }
        assert_eq!(heat.counts.len() as u64, HEAT_EPOCH - 1);
        heat.charge(&[kw(2, 1)]);
        assert_eq!(heat.admissions, HEAT_EPOCH);
        assert_eq!(ranked(&heat), vec![((twice.term, twice.radius), (HEAT_EPOCH - 1) / 2)]);
    }

    #[test]
    fn has_cold_reads_the_ledger() {
        let plan = |kws: &[u32]| {
            let kws = kws.iter().map(|&k| KeywordId(k)).collect();
            QueryPlan::lower(&SgkQuery::new(kws, 40).to_dfunction())
        };
        let mut heat = SlotHeat::default();
        let charged = plan(&[1, 2, 3]);
        assert!(heat.has_cold(&charged));
        heat.charge(charged.slots());
        assert!(!heat.has_cold(&charged));
        assert!(!heat.has_cold(&plan(&[2, 3])));
        assert!(heat.has_cold(&plan(&[2, 4])), "keyword 4 was never dispatched");
        let other_radius = DFunction::single(Term::Keyword(KeywordId(1)), 41);
        assert!(heat.has_cold(&QueryPlan::lower(&other_radius)));
    }
}
