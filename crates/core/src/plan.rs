//! Query planning: lowering D-functions into normalized [`QueryPlan`]s.
//!
//! A plan is the coordinator-side, wire-shippable form of a query. It
//! separates *what must be computed* — the deduplicated `(term, radius)`
//! **slots**, each a keyword coverage `R(term, r) ∩ P` — from *how results
//! combine* — a left-associated operator **program** over slot indexes.
//!
//! Deduplication is what makes the slot the unit of caching: a Zipf-skewed
//! stream repeats the same `(keyword, radius)` pairs constantly, and a plan
//! referencing slot `#i` twice costs one Dijkstra, not two. Lemma 1 is
//! unaffected: the program is evaluated per fragment over local coverages,
//! and the union over fragments is taken by the coordinator exactly as for
//! the original D-function.

use std::sync::Arc;

use bytes::{Buf, BufMut};

use disks_roadnet::codec::{Decode, Encode};
use disks_roadnet::DecodeError;

use crate::bitset::BitSet;
use crate::dfunc::{DFunction, DTerm, SetOp, Term};

/// A normalized query: deduplicated coverage slots plus a combine program.
///
/// Invariants (enforced by [`QueryPlan::lower`] and checked on decode):
/// `slots` is non-empty, every slot is referenced by the program, and every
/// program index is `< slots.len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// Distinct `(term, radius)` coverages, in first-occurrence order.
    slots: Vec<DTerm>,
    /// Slot index of the program's first operand `X₁`.
    first: u32,
    /// The operator chain `θ₁ X_{i₁} θ₂ X_{i₂} …` over slot indexes.
    ops: Vec<(SetOp, u32)>,
}

/// What [`QueryPlan::evaluate_lazy`] hands the fetch of a ∩ or − operand
/// the program names once.
#[derive(Debug, Clone, Copy)]
pub struct Within<'a> {
    /// The live accumulator the operand is about to be combined with.
    pub acc: &'a BitSet,
    /// Slots whose coverage holds every node of `acc`: in the ∩/− run after
    /// the last `∪`, the conjuncts `acc` has been intersected with so far
    /// (keyword conjuncts run first, so a `Term::Node` conjunct or a
    /// subtrahend sees all of them); none before the last `∪`.
    pub inside: &'a [DTerm],
}

/// The order [`QueryPlan::evaluate_lazy`] takes a plan's operands in.
struct LazyOrder {
    first: u32,
    /// The `(operator, slot)` pairs after `first`: the program's prefix up
    /// to its last `∪`, then the ∩ operands of what follows, then the −.
    ops: Vec<(SetOp, u32)>,
    /// How many of `ops` are the prefix; 0 makes `first` a ∩ operand too.
    prefix: usize,
}

impl QueryPlan {
    /// Lower a D-function, deduplicating identical `(term, radius)` terms
    /// into shared slots.
    pub fn lower(f: &DFunction) -> Self {
        let mut slots: Vec<DTerm> = Vec::with_capacity(f.num_terms());
        let slot_of = |slots: &mut Vec<DTerm>, t: &DTerm| -> u32 {
            match slots.iter().position(|s| s == t) {
                Some(i) => i as u32,
                None => {
                    slots.push(*t);
                    (slots.len() - 1) as u32
                }
            }
        };
        let first = slot_of(&mut slots, &f.first);
        let ops = f.rest.iter().map(|(op, t)| (*op, slot_of(&mut slots, t))).collect();
        QueryPlan { slots, first, ops }
    }

    /// The deduplicated coverage slots, in first-occurrence order.
    pub fn slots(&self) -> &[DTerm] {
        &self.slots
    }

    /// Number of distinct coverages to compute (`≤` the D-function's term
    /// count).
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of operands in the combine program (the D-function's `k`).
    pub fn num_operands(&self) -> usize {
        1 + self.ops.len()
    }

    /// Largest radius across slots (used for `maxR` admission and §5.5
    /// bi-level routing).
    pub fn max_radius(&self) -> u64 {
        self.slots.iter().map(|s| s.radius).max().unwrap_or(0)
    }

    /// Iterate the distinct query locations (`Term::Node` slots).
    pub fn locations(&self) -> impl Iterator<Item = disks_roadnet::NodeId> + '_ {
        self.slots.iter().filter_map(|s| match s.term {
            Term::Node(n) => Some(n),
            Term::Keyword(_) => None,
        })
    }

    /// The single slot index when the program has exactly one operand (the
    /// common 1-keyword SGKQ / RKQ shape) — callers can then use the
    /// coverage directly instead of cloning it through [`Self::combine`].
    pub fn single_slot(&self) -> Option<u32> {
        if self.ops.is_empty() {
            Some(self.first)
        } else {
            None
        }
    }

    /// Whether the plan can answer anything on a fragment where
    /// `seeded(slot)` says if the slot's search would start from a node:
    /// `false` when a conjunct — a ∩ operand after the last `∪`, or the
    /// first operand when there is no `∪` — has no seed, for its coverage
    /// is then empty and so is everything intersected with it. The worker's
    /// lazy driver and the coordinator's prune both ask this, so a pair the
    /// coordinator leaves out is one the worker would have answered ∅
    /// without fetching anything.
    pub fn can_answer(&self, mut seeded: impl FnMut(&DTerm) -> bool) -> bool {
        self.conjuncts().all(|slot| seeded(&self.slots[slot as usize]))
    }

    /// The conjuncts' slots in program order: the first operand when the
    /// program has no `∪`, then the ∩ operands after its last `∪`.
    fn conjuncts(&self) -> impl Iterator<Item = u32> + '_ {
        let last_union = self.ops.iter().rposition(|&(op, _)| op == SetOp::Union);
        let head = if last_union.is_none() { Some(self.first) } else { None };
        let tail = &self.ops[last_union.map_or(0, |u| u + 1)..];
        let pos = tail.iter().filter(|&&(op, _)| op == SetOp::Intersect).map(|&(_, slot)| slot);
        head.into_iter().chain(pos)
    }

    /// The order [`Self::evaluate_lazy`] takes the operands in, or `None`
    /// when the result is empty before anything is fetched: a conjunct has
    /// no seed ([`Self::can_answer`]).
    ///
    /// The program is split at its last `∪`. Up to there the order is the
    /// program's. What follows is a left-associated run of ∩/−, which
    /// commutes: `acc = prefix ∩ ⋂pos ∖ ⋃neg`, the first operand joining
    /// `pos` when there is no `∪`. `pos` goes keyword conjuncts first, then
    /// `Term::Node` ones, each in ascending `seeds` (the number of nodes a
    /// slot's search would start from; ties keep program order), then
    /// `neg`. A node conjunct comes last because its search is the one a
    /// bounded fetch can stop early, and the smaller the accumulator it is
    /// handed the earlier it stops.
    fn lazy_order(&self, seeds: impl Fn(&DTerm) -> usize) -> Option<LazyOrder> {
        if !self.can_answer(|slot| seeds(slot) > 0) {
            return None;
        }
        let last_union = self.ops.iter().rposition(|&(op, _)| op == SetOp::Union);
        let (prefix, tail) = self.ops.split_at(last_union.map_or(0, |u| u + 1));
        let rank = |slot: &DTerm| (matches!(slot.term, Term::Node(_)), seeds(slot));
        let mut pos: Vec<((bool, usize), u32)> =
            self.conjuncts().map(|slot| (rank(&self.slots[slot as usize]), slot)).collect();
        pos.sort_by_key(|&(rank, _)| rank);
        let first = if last_union.is_none() { pos.remove(0).1 } else { self.first };
        let pos = pos.into_iter().map(|(_, slot)| (SetOp::Intersect, slot));
        let neg = tail.iter().filter(|&&(op, _)| op == SetOp::Subtract).copied();
        let ops = prefix.iter().copied().chain(pos).chain(neg).collect();
        Some(LazyOrder { first, ops, prefix: prefix.len() })
    }

    /// Evaluate the program, fetching a slot's coverage only when the
    /// accumulator still depends on it, and only as far as it does.
    ///
    /// The prefix up to the last `∪` runs in program order; the ∩ operands
    /// after it run keyword conjuncts first, then `Term::Node` ones, each in
    /// ascending `seeds` — the number of nodes a slot's search would start
    /// from — with ties in program order, so cache state and counters are
    /// reproducible; then the − operands. A ∩/− operand is not fetched while
    /// the accumulator is empty, which after the last `∪` ends the
    /// evaluation, and a conjunct with no seed ends it before the first
    /// fetch. `fetch` is called at most once per slot. The result equals
    /// [`Self::combine`] over all coverages; `capacity` is the coverages'
    /// capacity, for a result nothing was fetched for.
    ///
    /// `fetch(slot, within)` returns the slot's coverage `R` when `within`
    /// is `None`. A slot the program names once, as a ∩ or − operand, is
    /// fetched with `within = Some(Within { acc, inside })`, `acc` being the
    /// live accumulator it is about to be combined with, and `fetch` may then
    /// return any set between `R ∩ acc` and `R`: `acc ∩ X` and `acc − X`
    /// depend on `X ∩ acc` alone. `inside` names the conjuncts `acc` is known
    /// to lie within ([`Within::inside`]), which a search for `R ∩ acc` may
    /// steer by.
    /// Such a result is not `R`, so it is used for that operand and nothing
    /// else; a slot named twice is always fetched whole. Theorem 5's
    /// `|P ∩ R|` for a fetch that takes the bound is `|P ∩ R ∩ acc|`.
    ///
    /// `ceiling` may name a superset of `⋂pos`, the intersection of the
    /// conjuncts it is handed (`|_| None`: no such set is known). The result
    /// is `prefix ∩ ⋂pos ∖ ⋃neg ⊆ ⋂pos` whatever the prefix and `neg` hold,
    /// so an empty ceiling ends the evaluation before the first fetch and
    /// any other is intersected into the accumulator as the ∩/− run begins,
    /// emptying it no later than the coverages themselves would. It is
    /// asked for once, after the seed test, and only when an operand other
    /// than the conjunct itself stands to be cut: a ∩ after the last `∪`.
    pub fn evaluate_lazy<'c, E>(
        &self,
        capacity: usize,
        seeds: impl Fn(&DTerm) -> usize,
        ceiling: impl FnOnce(&mut dyn Iterator<Item = &DTerm>) -> Option<&'c BitSet>,
        mut fetch: impl FnMut(&DTerm, Option<Within<'_>>) -> Result<Arc<BitSet>, E>,
    ) -> Result<Arc<BitSet>, E> {
        let Some(LazyOrder { first, ops, prefix }) = self.lazy_order(seeds) else {
            return Ok(Arc::new(BitSet::new(capacity)));
        };
        // `pos` leads the run after the prefix: it has a ∩ iff it opens with one.
        let ceiling = match ops.get(prefix) {
            Some((SetOp::Intersect, _)) => {
                let head = if prefix == 0 { Some(first) } else { None };
                let pos = ops[prefix..].iter().take_while(|(op, _)| *op == SetOp::Intersect);
                let pos = head.into_iter().chain(pos.map(|&(_, slot)| slot));
                ceiling(&mut pos.map(|slot| &self.slots[slot as usize]))
            }
            _ => None,
        };
        if ceiling.is_some_and(BitSet::is_empty) {
            return Ok(Arc::new(BitSet::new(capacity)));
        }
        // The order names every operand of the program once.
        let mut named = vec![0usize; self.slots.len()];
        std::iter::once(first).chain(ops.iter().map(|&(_, slot)| slot)).for_each(|slot| {
            named[slot as usize] += 1;
        });
        let mut fetched: Vec<Option<Arc<BitSet>>> = vec![None; self.slots.len()];
        let mut get = |slot: u32, within: Option<Within<'_>>| -> Result<Arc<BitSet>, E> {
            let term = &self.slots[slot as usize];
            if named[slot as usize] == 1 {
                return fetch(term, within);
            }
            Ok(Arc::clone(match &mut fetched[slot as usize] {
                Some(coverage) => coverage,
                unfetched => unfetched.insert(fetch(term, None)?),
            }))
        };
        // `acc` shares the first coverage until an operator has to change
        // it, so a one-operand plan returns that coverage uncopied.
        let mut acc = get(first, None)?;
        let mut live = !acc.is_empty();
        // The conjuncts `acc` has been intersected with in the ∩/− run.
        let mut inside: Vec<DTerm> = Vec::with_capacity(1 + ops.len() - prefix);
        if prefix == 0 {
            inside.push(self.slots[first as usize]);
        }
        for (i, (op, slot)) in ops.into_iter().enumerate() {
            if let Some(ceiling) = ceiling.filter(|_| i == prefix && live) {
                live = Arc::make_mut(&mut acc).intersect_with(ceiling);
            }
            if !live && op != SetOp::Union {
                continue; // ∅ ∩ X = ∅ − X = ∅, whatever X is
            }
            let inside_acc = if i < prefix { &[][..] } else { &inside };
            let within = (op != SetOp::Union).then_some(Within { acc: &acc, inside: inside_acc });
            let rhs = get(slot, within)?;
            let set = Arc::make_mut(&mut acc);
            live = match op {
                SetOp::Union => {
                    set.union_with(&rhs);
                    live || !rhs.is_empty()
                }
                SetOp::Intersect => set.intersect_with(&rhs),
                SetOp::Subtract => set.subtract(&rhs),
            };
            if i >= prefix && op == SetOp::Intersect {
                inside.push(self.slots[slot as usize]);
            }
        }
        Ok(acc)
    }

    /// Run the combine program over per-slot coverages. `coverages[i]` must
    /// be the coverage of `slots()[i]`; all bitsets must share a capacity.
    ///
    /// This is the eager reference [`Self::evaluate_lazy`] is tested against:
    /// it needs every coverage up front. Left-associated chains of ∩/− only
    /// shrink the accumulator, so once it empties with no ∪ remaining the
    /// remaining word loops are skipped — the word kernels report liveness
    /// for free — but the searches behind `coverages` are already paid for.
    pub fn combine<C: std::ops::Deref<Target = BitSet>>(&self, coverages: &[C]) -> BitSet {
        assert_eq!(coverages.len(), self.slots.len(), "one coverage per slot required");
        let last_union = self.ops.iter().rposition(|&(op, _)| op == SetOp::Union);
        let mut acc: BitSet = coverages[self.first as usize].clone();
        for (i, &(op, slot)) in self.ops.iter().enumerate() {
            let rhs = &*coverages[slot as usize];
            let live = match op {
                SetOp::Union => {
                    acc.union_with(rhs);
                    true
                }
                SetOp::Intersect => acc.intersect_with(rhs),
                SetOp::Subtract => acc.subtract(rhs),
            };
            if !live && last_union.is_none_or(|u| u <= i) {
                break; // only ∩/− remain: the result stays empty
            }
        }
        acc
    }
}

/// A merged batch of [`QueryPlan`]s sharing one deduplicated slot table —
/// the payload of a cross-query batched dispatch. Slot indices in each
/// per-query program refer to the *shared* table, so a worker evaluates
/// each distinct `(term, radius)` coverage once per batch and runs every
/// program against the shared results. Each program names the fragments it
/// is evaluated on ([`Targets`]).
///
/// Invariants (enforced by [`SuperPlan::merge`] and checked on decode):
/// `slots` and `programs` are non-empty and every program index is
/// `< slots.len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperPlan {
    /// Distinct `(term, radius)` coverages across the batch, in
    /// first-occurrence order.
    slots: Vec<DTerm>,
    /// One combine program per query, in batch order, over shared slots.
    programs: Vec<Program>,
}

/// One query's combine program inside a [`SuperPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct Program {
    first: u32,
    ops: Vec<(SetOp, u32)>,
    targets: Targets,
}

/// The fragments one program of a [`SuperPlan`] is evaluated on.
///
/// On the wire `Every` is one byte; `Only` is a second tag byte, a varint
/// count and one varint a fragment, each the gap above the fragment before
/// it (above −1 for the first), so the ids ascend by construction:
///
/// ```text
/// targets := 0x00 | 0x01 varint(n) varint(gap){n}
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Targets {
    /// Every fragment.
    Every,
    /// These fragments, strictly ascending; none when empty.
    Only(Vec<u32>),
}

impl Targets {
    /// Whether `fragment` is a target.
    pub fn contains(&self, fragment: u32) -> bool {
        match self {
            Targets::Every => true,
            Targets::Only(fragments) => fragments.binary_search(&fragment).is_ok(),
        }
    }

    /// The targets of a per-fragment mask (`targeted[f]`): `Every` when it
    /// holds every fragment.
    pub fn of_mask(targeted: &[bool]) -> Targets {
        if targeted.iter().all(|&t| t) {
            return Targets::Every;
        }
        Targets::Only((0..targeted.len() as u32).filter(|&f| targeted[f as usize]).collect())
    }
}

/// Longest varint of a target list: a gap is below 2³², 5 × 7 bits.
const TARGET_VARINT_BYTES: usize = 5;

fn put_varint(mut v: u64, buf: &mut impl BufMut) {
    while v >= 0x80 {
        buf.put_u8(v as u8 | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

/// A varint of at most [`TARGET_VARINT_BYTES`] bytes.
fn get_varint(buf: &mut impl Buf) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    for i in 0..TARGET_VARINT_BYTES {
        let b = u8::decode(buf)?;
        v |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(DecodeError::LengthOutOfRange { context: "target varint longer than 5 bytes", len: v })
}

impl Encode for Targets {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            Targets::Every => buf.put_u8(0),
            Targets::Only(fragments) => {
                buf.put_u8(1);
                put_varint(fragments.len() as u64, buf);
                let mut next = 0u64;
                for &f in fragments {
                    let f = u64::from(f);
                    assert!(f >= next, "target fragments must be strictly ascending");
                    put_varint(f - next, buf);
                    next = f + 1;
                }
            }
        }
    }
}
impl Decode for Targets {
    /// Refuses a count the remaining bytes cannot hold (a gap is at least
    /// a byte) before reserving for it, and a fragment past `u32::MAX`.
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => Ok(Targets::Every),
            1 => {
                let n = get_varint(buf)?;
                if n > buf.remaining() as u64 {
                    return Err(DecodeError::LengthOutOfRange { context: "target count", len: n });
                }
                let mut fragments = Vec::with_capacity(n as usize);
                let mut next = 0u64;
                for _ in 0..n {
                    let f = next + get_varint(buf)?;
                    if f > u64::from(u32::MAX) {
                        return Err(DecodeError::LengthOutOfRange {
                            context: "target fragment past u32::MAX",
                            len: f,
                        });
                    }
                    fragments.push(f as u32);
                    next = f + 1;
                }
                Ok(Targets::Only(fragments))
            }
            tag => Err(DecodeError::BadTag { context: "Targets", tag }),
        }
    }
}

impl SuperPlan {
    /// Merge admitted plans into one super-plan, deduplicating slots across
    /// queries and remapping each program onto the shared table. Every
    /// program targets every fragment.
    ///
    /// # Panics
    /// Panics if `plans` is empty.
    pub fn merge(plans: &[QueryPlan]) -> Self {
        Self::merge_targeted(plans, plans.iter().map(|_| Targets::Every))
    }

    /// [`Self::merge`], program `i` evaluated on the `i`-th of `targets`.
    ///
    /// # Panics
    /// Panics if `plans` is empty or `targets` does not name one [`Targets`]
    /// a plan.
    pub fn merge_targeted(plans: &[QueryPlan], targets: impl IntoIterator<Item = Targets>) -> Self {
        assert!(!plans.is_empty(), "cannot merge an empty batch");
        let mut slots: Vec<DTerm> = Vec::new();
        let shared = |slots: &mut Vec<DTerm>, t: &DTerm| -> u32 {
            match slots.iter().position(|s| s == t) {
                Some(i) => i as u32,
                None => {
                    slots.push(*t);
                    (slots.len() - 1) as u32
                }
            }
        };
        let programs: Vec<Program> = plans
            .iter()
            .zip(targets)
            .map(|(p, targets)| {
                let map: Vec<u32> = p.slots.iter().map(|t| shared(&mut slots, t)).collect();
                Program {
                    first: map[p.first as usize],
                    ops: p.ops.iter().map(|&(op, i)| (op, map[i as usize])).collect(),
                    targets,
                }
            })
            .collect();
        assert_eq!(programs.len(), plans.len(), "one target set a plan required");
        SuperPlan { slots, programs }
    }

    /// Recover the per-query plans, each with its own slot table in
    /// first-occurrence order. `split(merge(plans)) == plans` exactly, so
    /// workers evaluating split plans (against a batch-shared coverage
    /// store) reproduce unbatched evaluation bit for bit.
    pub fn split(&self) -> Vec<QueryPlan> {
        self.programs
            .iter()
            .map(|prog| {
                let mut slots: Vec<DTerm> = Vec::new();
                let local = |slots: &mut Vec<DTerm>, gi: u32| -> u32 {
                    let t = self.slots[gi as usize];
                    match slots.iter().position(|s| *s == t) {
                        Some(i) => i as u32,
                        None => {
                            slots.push(t);
                            (slots.len() - 1) as u32
                        }
                    }
                };
                let first = local(&mut slots, prog.first);
                let ops = prog.ops.iter().map(|&(op, i)| (op, local(&mut slots, i))).collect();
                QueryPlan { slots, first, ops }
            })
            .collect()
    }

    /// Each program's targets, in batch order.
    pub fn targets(&self) -> impl Iterator<Item = &Targets> {
        self.programs.iter().map(|p| &p.targets)
    }

    /// Number of queries in the batch.
    pub fn num_queries(&self) -> usize {
        self.programs.len()
    }

    /// The shared deduplicated slot table.
    pub fn slots(&self) -> &[DTerm] {
        &self.slots
    }

    /// Number of distinct coverages to compute for the whole batch.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Largest radius across all shared slots (used for §5.5 bi-level
    /// routing of the batch).
    pub fn max_radius(&self) -> u64 {
        self.slots.iter().map(|s| s.radius).max().unwrap_or(0)
    }
}

impl Encode for SuperPlan {
    fn encode(&self, buf: &mut impl BufMut) {
        self.slots.encode(buf);
        (self.programs.len() as u32).encode(buf);
        for p in &self.programs {
            p.first.encode(buf);
            p.ops.encode(buf);
            p.targets.encode(buf);
        }
    }
}
impl Decode for SuperPlan {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        let slots = Vec::<DTerm>::decode(buf)?;
        if slots.is_empty() {
            return Err(DecodeError::LengthOutOfRange { context: "SuperPlan.slots", len: 0 });
        }
        let n = u32::decode(buf)? as usize;
        if n == 0 {
            return Err(DecodeError::LengthOutOfRange { context: "SuperPlan.programs", len: 0 });
        }
        let bound = slots.len() as u64;
        let mut programs = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let first = u32::decode(buf)?;
            let ops = Vec::<(SetOp, u32)>::decode(buf)?;
            for idx in std::iter::once(first).chain(ops.iter().map(|&(_, i)| i)) {
                if u64::from(idx) >= bound {
                    return Err(DecodeError::LengthOutOfRange {
                        context: "SuperPlan slot index",
                        len: u64::from(idx),
                    });
                }
            }
            let targets = Targets::decode(buf)?;
            programs.push(Program { first, ops, targets });
        }
        Ok(SuperPlan { slots, programs })
    }
}

impl std::fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, s) in self.slots.iter().enumerate() {
            write!(f, "#{i}=R({}, {}); ", s.term, s.radius)?;
        }
        write!(f, "#{}", self.first)?;
        for (op, slot) in &self.ops {
            write!(f, " {op} #{slot}")?;
        }
        Ok(())
    }
}

impl Encode for QueryPlan {
    fn encode(&self, buf: &mut impl BufMut) {
        self.slots.encode(buf);
        self.first.encode(buf);
        self.ops.encode(buf);
    }
}
impl Decode for QueryPlan {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        let slots = Vec::<DTerm>::decode(buf)?;
        if slots.is_empty() {
            return Err(DecodeError::LengthOutOfRange { context: "QueryPlan.slots", len: 0 });
        }
        let first = u32::decode(buf)?;
        let ops = Vec::<(SetOp, u32)>::decode(buf)?;
        let n = slots.len() as u64;
        for idx in std::iter::once(first).chain(ops.iter().map(|&(_, i)| i)) {
            if u64::from(idx) >= n {
                return Err(DecodeError::LengthOutOfRange {
                    context: "QueryPlan slot index",
                    len: u64::from(idx),
                });
            }
        }
        Ok(QueryPlan { slots, first, ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disks_roadnet::{KeywordId, NodeId};
    use std::sync::Arc;

    fn set(cap: usize, elems: &[usize]) -> Arc<BitSet> {
        let mut s = BitSet::new(cap);
        for &e in elems {
            s.insert(e);
        }
        Arc::new(s)
    }

    #[test]
    fn lowering_dedupes_repeated_terms() {
        // R(a, 5) ∩ R(b, 5) ∪ R(a, 5): three operands, two slots.
        let f = DFunction::single(Term::Keyword(KeywordId(0)), 5)
            .then(SetOp::Intersect, Term::Keyword(KeywordId(1)), 5)
            .then(SetOp::Union, Term::Keyword(KeywordId(0)), 5);
        let plan = QueryPlan::lower(&f);
        assert_eq!(plan.num_slots(), 2);
        assert_eq!(plan.num_operands(), 3);
        assert_eq!(plan.ops, vec![(SetOp::Intersect, 1), (SetOp::Union, 0)]);
    }

    #[test]
    fn same_term_different_radius_gets_distinct_slots() {
        let f = DFunction::single(Term::Keyword(KeywordId(0)), 5).then(
            SetOp::Union,
            Term::Keyword(KeywordId(0)),
            9,
        );
        let plan = QueryPlan::lower(&f);
        assert_eq!(plan.num_slots(), 2);
        assert_eq!(plan.max_radius(), 9);
    }

    #[test]
    fn combine_matches_dfunction_combine() {
        // (X1 − X2) ∪ X1: exercises a repeated operand through one slot.
        let f = DFunction::single(Term::Keyword(KeywordId(0)), 3)
            .then(SetOp::Subtract, Term::Keyword(KeywordId(1)), 2)
            .then(SetOp::Union, Term::Keyword(KeywordId(0)), 3);
        let x1 = set(6, &[0, 1, 4]);
        let x2 = set(6, &[1, 2]);
        let expect = f.combine(&[(*x1).clone(), (*x2).clone(), (*x1).clone()]);
        let plan = QueryPlan::lower(&f);
        let got = plan.combine(&[x1, x2]);
        assert_eq!(got, expect);
    }

    #[test]
    fn locations_yields_node_slots() {
        let f = DFunction::single(Term::Node(NodeId(7)), 4).then(
            SetOp::Intersect,
            Term::Keyword(KeywordId(1)),
            0,
        );
        let plan = QueryPlan::lower(&f);
        assert_eq!(plan.locations().collect::<Vec<_>>(), vec![NodeId(7)]);
    }

    #[test]
    fn codec_round_trip() {
        use bytes::BytesMut;
        let f = DFunction::single(Term::Keyword(KeywordId(2)), 10)
            .then(SetOp::Union, Term::Node(NodeId(5)), 0)
            .then(SetOp::Subtract, Term::Keyword(KeywordId(2)), 10);
        let plan = QueryPlan::lower(&f);
        let mut buf = BytesMut::new();
        plan.encode(&mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(QueryPlan::decode(&mut bytes).unwrap(), plan);
    }

    #[test]
    fn decode_rejects_out_of_range_slot_index() {
        use bytes::BytesMut;
        let plan = QueryPlan {
            slots: vec![DTerm { term: Term::Keyword(KeywordId(0)), radius: 1 }],
            first: 3, // invalid: only one slot
            ops: Vec::new(),
        };
        let mut buf = BytesMut::new();
        plan.encode(&mut buf);
        let mut bytes = buf.freeze();
        assert!(matches!(
            QueryPlan::decode(&mut bytes),
            Err(DecodeError::LengthOutOfRange { context: "QueryPlan slot index", .. })
        ));
    }

    #[test]
    fn decode_rejects_empty_plan() {
        use bytes::BytesMut;
        let plan = QueryPlan { slots: Vec::new(), first: 0, ops: Vec::new() };
        let mut buf = BytesMut::new();
        plan.encode(&mut buf);
        let mut bytes = buf.freeze();
        assert!(QueryPlan::decode(&mut bytes).is_err());
    }

    #[test]
    fn single_slot_detects_one_operand_plans() {
        let one = QueryPlan::lower(&DFunction::single(Term::Keyword(KeywordId(3)), 7));
        assert_eq!(one.single_slot(), Some(0));
        let two = QueryPlan::lower(&DFunction::single(Term::Keyword(KeywordId(3)), 7).then(
            SetOp::Union,
            Term::Keyword(KeywordId(4)),
            7,
        ));
        assert_eq!(two.single_slot(), None);
    }

    #[test]
    fn combine_short_circuits_only_when_no_union_remains() {
        // (X1 ∩ X2) ∪ X3 with X1 ∩ X2 = ∅: the ∪ must still apply.
        let f = DFunction::single(Term::Keyword(KeywordId(0)), 1)
            .then(SetOp::Intersect, Term::Keyword(KeywordId(1)), 1)
            .then(SetOp::Union, Term::Keyword(KeywordId(2)), 1);
        let plan = QueryPlan::lower(&f);
        let got = plan.combine(&[set(8, &[0, 1]), set(8, &[2, 3]), set(8, &[5])]);
        assert_eq!(got.iter().collect::<Vec<_>>(), vec![5]);
    }

    /// The slots `evaluate_lazy` fetches, in order, with the result, for
    /// per-slot `(seeds, elements)` over a capacity of 8.
    fn lazy_trace(plan: &QueryPlan, slots: &[(usize, &[usize])]) -> (Vec<u32>, Vec<usize>) {
        let index = |t: &DTerm| plan.slots().iter().position(|s| s == t).unwrap();
        let mut order = Vec::new();
        let result = plan
            .evaluate_lazy(
                8,
                |t| slots[index(t)].0,
                |_| None,
                |t, _| {
                    order.push(index(t) as u32);
                    Ok::<_, ()>(set(8, slots[index(t)].1))
                },
            )
            .unwrap();
        let eager: Vec<_> = slots.iter().map(|&(_, elems)| set(8, elems)).collect();
        assert_eq!(*result, plan.combine(&eager), "lazy and eager results differ");
        (order, result.iter().collect())
    }

    fn chain(ops: &[SetOp]) -> QueryPlan {
        let mut f = DFunction::single(Term::Keyword(KeywordId(0)), 1);
        for (i, &op) in ops.iter().enumerate() {
            f = f.then(op, Term::Keyword(KeywordId(i as u32 + 1)), 1);
        }
        QueryPlan::lower(&f)
    }

    #[test]
    fn lazy_runs_conjuncts_by_seed_count_then_subtrahends_and_stops_when_empty() {
        use SetOp::{Intersect, Subtract, Union};
        // #0 − #1 ∩ #2 ∩ #3: conjuncts #0, #2, #3 by seeds (the tie between
        // #0 and #3 keeps program order), then the subtrahend #1.
        let plan = chain(&[Subtract, Intersect, Intersect]);
        let sets: [(usize, &[usize]); 4] =
            [(5, &[1, 2, 3]), (9, &[3]), (2, &[1, 2, 3, 4]), (5, &[2, 3])];
        assert_eq!(lazy_trace(&plan, &sets), (vec![2, 0, 3, 1], vec![2]));
        // The accumulator empties at #0 ∩ #2: #3 and #1 are never fetched.
        let sets: [(usize, &[usize]); 4] = [(5, &[1]), (9, &[3]), (2, &[4]), (5, &[2, 3])];
        assert_eq!(lazy_trace(&plan, &sets), (vec![2, 0], vec![]));
        // A conjunct without a seed: nothing is fetched at all, prefix included.
        let plan = chain(&[Union, Intersect]);
        let sets: [(usize, &[usize]); 3] = [(5, &[1]), (9, &[3]), (0, &[])];
        assert_eq!(lazy_trace(&plan, &sets), (vec![], vec![]));
        // Before the last ∪ the order is the program's; a ∩ operand is not
        // fetched while the accumulator is empty, the ∪ operand always is.
        let plan = chain(&[Intersect, Intersect, Union]);
        let sets: [(usize, &[usize]); 4] = [(5, &[1]), (0, &[]), (9, &[1]), (1, &[6])];
        assert_eq!(lazy_trace(&plan, &sets), (vec![0, 1, 3], vec![6]));
    }

    /// A slot the program names twice is fetched whole, once, even where it
    /// is first a ∩ operand; a slot named once is handed the live
    /// accumulator as a ∩ or − operand and nothing as a ∪ operand, and a
    /// fetch that returns only what lies within the accumulator leaves the
    /// result the eager one.
    #[test]
    fn a_once_named_conjunct_or_subtrahend_is_fetched_against_the_accumulator() {
        use SetOp::{Intersect, Subtract, Union};
        let kw = |k: u32| Term::Keyword(KeywordId(k));
        // #0 ∩ #1 ∪ #2 ∪ #1 ∩ #3 − #4: #1 is named twice, first under ∩.
        let f = DFunction::single(kw(0), 1)
            .then(Intersect, kw(1), 1)
            .then(Union, kw(2), 1)
            .then(Union, kw(1), 1)
            .then(Intersect, kw(3), 1)
            .then(Subtract, kw(4), 1);
        let plan = QueryPlan::lower(&f);
        let sets: [_; 5] =
            [&[1, 2, 5][..], &[2, 3, 5, 7], &[0], &[0, 2, 3, 6], &[2, 6]].map(|s| set(8, s));
        let index = |t: &DTerm| plan.slots().iter().position(|s| s == t).unwrap();
        // Per fetch: the slot, and for a bounded one `acc` and `inside`.
        type Bounded = (Vec<usize>, Vec<usize>);
        let mut handed: Vec<(usize, Option<Bounded>)> = Vec::new();
        let result = plan
            .evaluate_lazy(
                8,
                |_| 1,
                |_| None,
                |t, within| {
                    let i = index(t);
                    let inside = |w: &Within| w.inside.iter().map(index).collect();
                    handed.push((i, within.map(|w| (w.acc.iter().collect(), inside(&w)))));
                    let mut cut = (*sets[i]).clone();
                    if let Some(w) = within {
                        cut.intersect_with(w.acc);
                    }
                    Ok::<_, ()>(Arc::new(cut))
                },
            )
            .unwrap();
        assert_eq!(*result, plan.combine(&sets), "lazy and eager results differ");
        assert_eq!(result.iter().collect::<Vec<_>>(), vec![0, 3]);
        // #1 whole under its ∩ and not again under its ∪; #2 whole under ∪;
        // #3 against #0 ∩ #1 ∪ #2 ∪ #1, inside nothing known; #4 against
        // that ∩ #3, inside #3.
        let expect = vec![
            (0, None),
            (1, None),
            (2, None),
            (3, Some((vec![0, 2, 3, 5, 7], vec![]))),
            (4, Some((vec![0, 2, 3], vec![3]))),
        ];
        assert_eq!(handed, expect);
    }

    fn batch_of_plans() -> Vec<QueryPlan> {
        // Three queries sharing slots across the batch: R(k0,5) appears in
        // all three, R(k1,5) in two, and one query repeats a slot itself.
        let fs = [
            DFunction::single(Term::Keyword(KeywordId(0)), 5).then(
                SetOp::Intersect,
                Term::Keyword(KeywordId(1)),
                5,
            ),
            DFunction::single(Term::Keyword(KeywordId(1)), 5)
                .then(SetOp::Subtract, Term::Keyword(KeywordId(0)), 5)
                .then(SetOp::Union, Term::Keyword(KeywordId(1)), 5),
            DFunction::single(Term::Keyword(KeywordId(0)), 5).then(
                SetOp::Union,
                Term::Keyword(KeywordId(2)),
                9,
            ),
        ];
        fs.iter().map(QueryPlan::lower).collect()
    }

    #[test]
    fn merge_shares_slots_and_split_round_trips() {
        let plans = batch_of_plans();
        let sp = SuperPlan::merge(&plans);
        // 3 distinct (term, radius) pairs across 5 plan slots.
        assert_eq!(sp.num_slots(), 3);
        assert_eq!(sp.num_queries(), 3);
        assert_eq!(sp.max_radius(), 9);
        assert_eq!(sp.split(), plans);
    }

    #[test]
    fn merged_programs_combine_identically_over_shared_slots() {
        let plans = batch_of_plans();
        let sp = SuperPlan::merge(&plans);
        let shared: Vec<Arc<BitSet>> =
            sp.slots().iter().enumerate().map(|(i, _)| set(8, &[i, i + 2, 7 - i])).collect();
        for (plan, rebuilt) in plans.iter().zip(sp.split()) {
            let local: Vec<Arc<BitSet>> = rebuilt
                .slots()
                .iter()
                .map(|t| {
                    let gi = sp.slots().iter().position(|s| s == t).unwrap();
                    Arc::clone(&shared[gi])
                })
                .collect();
            // The rebuilt plan over batch-shared coverages equals the
            // original plan over its own coverages.
            let own: Vec<Arc<BitSet>> = plan
                .slots()
                .iter()
                .map(|t| {
                    let gi = sp.slots().iter().position(|s| s == t).unwrap();
                    Arc::clone(&shared[gi])
                })
                .collect();
            assert_eq!(rebuilt.combine(&local), plan.combine(&own));
        }
    }

    #[test]
    fn super_plan_codec_round_trip() {
        let plans = batch_of_plans();
        let sp = SuperPlan::merge(&plans);
        assert!(sp.targets().all(|t| *t == Targets::Every));
        assert_eq!(decoded::<SuperPlan>(&bytes_of(&sp)), Ok(sp.clone()));
        let targets = [Targets::Every, Targets::Only(vec![]), Targets::Only(vec![0, 2, 70_000])];
        let targeted = SuperPlan::merge_targeted(&plans, targets.clone());
        assert_eq!(targeted.targets().cloned().collect::<Vec<_>>(), targets);
        assert_eq!(targeted.split(), plans, "targets leave the programs as they were");
        assert_eq!(decoded::<SuperPlan>(&bytes_of(&targeted)), Ok(targeted.clone()));
        // Every fragment is one byte a program, no fragment two, and a
        // fragment one more byte per 7 bits of its gap.
        let len = |t: [Targets; 3]| bytes_of(&SuperPlan::merge_targeted(&plans, t)).len();
        let every = bytes_of(&sp).len();
        assert_eq!(len(targets) - every, 1 + (1 + 1 + 1 + 3));
    }

    fn bytes_of(msg: &impl Encode) -> Vec<u8> {
        let mut buf = bytes::BytesMut::new();
        msg.encode(&mut buf);
        buf.to_vec()
    }

    /// `bytes` decoded, every byte consumed.
    fn decoded<T: Decode>(bytes: &[u8]) -> Result<T, DecodeError> {
        let mut buf = bytes::Bytes::from(bytes.to_vec());
        let msg = T::decode(&mut buf)?;
        match buf.remaining() {
            0 => Ok(msg),
            n => Err(DecodeError::LengthOutOfRange { context: "trailing", len: n as u64 }),
        }
    }

    #[test]
    fn targets_layout_byte_by_byte() {
        let only = |f: &[u32]| Targets::Only(f.to_vec());
        let layouts: [(Targets, &[u8]); 6] = [
            (Targets::Every, &[0]),
            (only(&[]), &[1, 0]),
            (only(&[3]), &[1, 1, 3]),
            // 0, then 1 (gap 0 above 0), then 7 (gap 5 above 1).
            (only(&[0, 1, 7]), &[1, 3, 0, 0, 5]),
            (only(&[200]), &[1, 1, 0xc8, 0x01]),
            (only(&[u32::MAX]), &[1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f]),
        ];
        for (targets, bytes) in layouts {
            assert_eq!(bytes_of(&targets), bytes, "{targets:?}");
            assert_eq!(decoded::<Targets>(bytes), Ok(targets));
        }
        assert!(only(&[0, 2]).contains(2) && !only(&[0, 2]).contains(1));
        assert!(Targets::Every.contains(9) && !only(&[]).contains(0));
        assert_eq!(Targets::of_mask(&[true, true]), Targets::Every);
        assert_eq!(Targets::of_mask(&[false, true, false]), only(&[1]));
        assert_eq!(Targets::of_mask(&[false]), only(&[]));
    }

    #[test]
    fn targets_decoder_refuses_what_it_cannot_trust() {
        let refused = |bytes: &[u8]| match decoded::<Targets>(bytes) {
            Err(DecodeError::LengthOutOfRange { context, .. }) => context,
            other => panic!("{bytes:?}: expected a typed length error, got {other:?}"),
        };
        // More fragments than bytes behind the count: refused before any
        // reservation, whatever the count claims.
        assert_eq!(refused(&[1, 2, 0]), "target count");
        assert_eq!(refused(&[1, 0xff, 0xff, 0xff, 0xff, 0x0f]), "target count");
        // A fragment above u32::MAX, directly or as the sum of two gaps.
        assert_eq!(refused(&[1, 1, 0x80, 0x80, 0x80, 0x80, 0x10]), "target fragment past u32::MAX");
        assert_eq!(
            refused(&[1, 2, 0xff, 0xff, 0xff, 0xff, 0x0f, 0]),
            "target fragment past u32::MAX"
        );
        // A varint that does not end within 5 bytes.
        assert_eq!(
            refused(&[1, 0x80, 0x80, 0x80, 0x80, 0x80, 0]),
            "target varint longer than 5 bytes"
        );
        assert_eq!(refused(&[1, 1]), "target count");
        assert!(matches!(
            decoded::<Targets>(&[1, 1, 0x80]),
            Err(DecodeError::UnexpectedEof { .. })
        ));
        assert!(matches!(decoded::<Targets>(&[]), Err(DecodeError::UnexpectedEof { .. })));
        assert_eq!(
            decoded::<Targets>(&[2]),
            Err(DecodeError::BadTag { context: "Targets", tag: 2 })
        );
    }

    #[test]
    fn can_answer_asks_only_the_conjuncts() {
        use SetOp::{Intersect, Subtract, Union};
        // Which of the five slots each plan's answer needs seeded.
        let needs = |plan: &QueryPlan| -> Vec<u32> {
            (0..plan.num_slots() as u32)
                .filter(|&seedless| {
                    !plan.can_answer(|t| {
                        plan.slots().iter().position(|s| s == t) != Some(seedless as usize)
                    })
                })
                .collect()
        };
        // No ∪: the first operand and every ∩ operand, not the subtrahend.
        assert_eq!(needs(&chain(&[Intersect, Subtract, Intersect])), vec![0, 1, 3]);
        assert_eq!(needs(&chain(&[Subtract])), vec![0]);
        // Only the ∩ operands after the last ∪.
        assert_eq!(needs(&chain(&[Intersect, Union, Intersect, Subtract])), vec![3]);
        assert_eq!(needs(&chain(&[Intersect, Union])), Vec::<u32>::new());
        // Every slot seeded: the answer may be anything.
        assert!(chain(&[Intersect]).can_answer(|_| true));
    }

    #[test]
    fn super_plan_decode_rejects_out_of_range_index() {
        use bytes::BytesMut;
        let sp = SuperPlan {
            slots: vec![DTerm { term: Term::Keyword(KeywordId(0)), radius: 1 }],
            programs: vec![Program { first: 9, ops: Vec::new(), targets: Targets::Every }],
        };
        let mut buf = BytesMut::new();
        sp.encode(&mut buf);
        let mut bytes = buf.freeze();
        assert!(matches!(
            SuperPlan::decode(&mut bytes),
            Err(DecodeError::LengthOutOfRange { context: "SuperPlan slot index", .. })
        ));
    }
}
