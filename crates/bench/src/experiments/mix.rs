//! D-function-mix and RKQ experiments: Figure 16 (EXP 7) and Figure 17
//! (EXP 8).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use disks_core::{DFunction, IndexConfig, SetOp, Term};

use crate::datasets::Dataset;
use crate::params::Params;
use crate::queries::QueryGenerator;
use crate::report::{fmt_duration, Table};

use super::Deployment;

/// Figure 16 (EXP 7): fix 7 keywords; draw the 6 operators from {∩, −} with
/// 0..=5 subtractions placed at random positions. Different mixes should
/// have minor effect — coverage evaluation dominates (>95 % of cost).
pub fn fig16_dfunctions(ds: &Dataset, params: &Params) -> Table {
    let e = ds.net.avg_edge_weight();
    let max_r = params.max_r(e);
    let r = params.r(e).min(max_r);
    let num_keywords = 7;
    let mut dep =
        Deployment::prepare(&ds.net, params.num_fragments, &IndexConfig::with_max_r(max_r));
    let mut t = Table::new(
        format!("Figure 16: D-function operator mix, {} (7 keywords)", ds.id.name()),
        vec!["#subtractions".into(), "avg response".into()],
    );
    let mut rng = StdRng::seed_from_u64(0xF16);
    // One shared keyword batch across all operator mixes: only the
    // operators vary between points, exactly as in the paper's EXP 7.
    let mut gen = QueryGenerator::new(&ds.net, 0xE000);
    let queries = gen.sgkq_batch(params.queries_per_point, num_keywords, r);
    for subtractions in 0..=5usize {
        if queries.is_empty() {
            continue;
        }
        let fs: Vec<DFunction> = queries
            .iter()
            .map(|q| {
                // Operator slots: 6 total, `subtractions` of them −, rest ∩,
                // shuffled into random positions.
                let mut ops = vec![SetOp::Intersect; num_keywords - 1];
                for op in ops.iter_mut().take(subtractions) {
                    *op = SetOp::Subtract;
                }
                ops.shuffle(&mut rng);
                let mut f = DFunction::single(Term::Keyword(q.keywords[0]), r);
                for (i, &op) in ops.iter().enumerate() {
                    f = f.then(op, Term::Keyword(q.keywords[i + 1]), r);
                }
                f
            })
            .collect();
        t.push(vec![subtractions.to_string(), fmt_duration(dep.mean_response(&fs))]);
    }
    t
}

/// Figure 17 (EXP 8): RKQ time vs #keywords.
pub fn fig17_rkq(ds: &Dataset, params: &Params) -> Table {
    let e = ds.net.avg_edge_weight();
    let max_r = params.max_r(e);
    let r = params.r(e).min(max_r);
    let mut dep =
        Deployment::prepare(&ds.net, params.num_fragments, &IndexConfig::with_max_r(max_r));
    let mut t = Table::new(
        format!("Figure 17: RKQ query time vs #keywords, {}", ds.id.name()),
        vec!["#keywords".into(), "avg response".into()],
    );
    for &nk in &Params::KEYWORD_COUNTS {
        let mut gen = QueryGenerator::new(&ds.net, 0xF000 + nk as u64);
        let fs: Vec<DFunction> = gen
            .rkq_batch(params.queries_per_point, nk, r)
            .iter()
            .map(|q| q.to_dfunction())
            .collect();
        if fs.is_empty() {
            continue;
        }
        t.push(vec![nk.to_string(), fmt_duration(dep.mean_response(&fs))]);
    }
    t
}

/// Top-k extension experiment: ranked group-keyword query time vs k,
/// cross-checked against the centralized ranking.
pub fn topk_extension(ds: &Dataset, params: &Params) -> Table {
    use disks_core::{centralized_topk, merge_topk, ScoreCombine, TopKQuery};
    let e = ds.net.avg_edge_weight();
    let max_r = params.max_r(e);
    let horizon = max_r / 4;
    let mut dep =
        Deployment::prepare(&ds.net, params.num_fragments, &IndexConfig::with_max_r(max_r));
    let mut gen = QueryGenerator::new(&ds.net, 0x70FF);
    let base = gen.sgkq_batch(params.queries_per_point, 3, horizon);
    let mut t = Table::new(
        format!("Top-k extension: ranked SGKQ time vs k, {} (3 keywords)", ds.id.name()),
        vec!["k".into(), "median response".into()],
    );
    for k in [1usize, 10, 100, 1000] {
        let qs: Vec<TopKQuery> = base
            .iter()
            .map(|q| TopKQuery::new(q.keywords.clone(), k, horizon, ScoreCombine::Max))
            .collect();
        if qs.is_empty() {
            continue;
        }
        // Verify once per point against the centralized ranking.
        let lists = dep.topk(&qs[0]).into_iter().map(|(ranked, _)| ranked).collect();
        assert_eq!(
            merge_topk(lists, k),
            centralized_topk(&ds.net, &qs[0]).expect("centralized"),
            "top-k mismatch at k={k}"
        );
        // Warmup + median of per-query slowest-task times.
        let mut times = Vec::with_capacity(qs.len());
        for q in &qs {
            let _ = dep.topk(q);
        }
        for q in &qs {
            let slowest =
                dep.topk(q).into_iter().map(|(_, cost)| cost.elapsed).max().unwrap_or_default();
            times.push(slowest);
        }
        t.push(vec![k.to_string(), fmt_duration(crate::report::median_duration(&times))]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{load, DatasetId, Scale};

    fn smoke_params() -> Params {
        Params { num_fragments: 3, queries_per_point: 2, ..Params::default() }
    }

    #[test]
    fn topk_extension_runs_and_verifies() {
        let ds = load(DatasetId::Aus, Scale::Smoke);
        let t = topk_extension(&ds, &smoke_params());
        assert!(!t.rows.is_empty());
    }

    #[test]
    fn fig16_sweeps_subtraction_counts() {
        let ds = load(DatasetId::Aus, Scale::Smoke);
        let t = fig16_dfunctions(&ds, &smoke_params());
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.rows[0][0], "0");
        assert_eq!(t.rows[5][0], "5");
    }

    #[test]
    fn fig17_sweeps_keyword_counts() {
        let ds = load(DatasetId::Aus, Scale::Smoke);
        let t = fig17_rkq(&ds, &smoke_params());
        assert!(!t.rows.is_empty());
    }
}
