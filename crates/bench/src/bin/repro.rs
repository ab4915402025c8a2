//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//! ```text
//! repro [--scale paper|bench|smoke] [--exp <id>[,<id>...]] [--out DIR]
//!
//! ids: tab1 tab2 tab3 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15
//!      fig16 fig17 comm ablation overload topk all (default: all)
//! ```
//!
//! Results are printed and written under `--out` (default `results/`) as
//! aligned text and TSV.

use std::collections::HashSet;
use std::time::Instant;

use disks_bench::datasets::{load, DatasetId, Scale};
use disks_bench::experiments as exp;
use disks_bench::params::{parameter_table, Params};
use disks_bench::report::Table;

struct Args {
    scale: Scale,
    exps: HashSet<String>,
    out: String,
}

fn parse_args() -> Args {
    let mut scale = Scale::Paper;
    let mut exps: HashSet<String> = HashSet::new();
    let mut out = "results".to_string();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match argv.get(i).map(String::as_str) {
                    Some("paper") => Scale::Paper,
                    Some("bench") => Scale::Bench,
                    Some("smoke") => Scale::Smoke,
                    other => {
                        eprintln!("unknown scale {other:?}; expected paper|bench|smoke");
                        std::process::exit(2);
                    }
                };
            }
            "--exp" => {
                i += 1;
                let list = argv.get(i).cloned().unwrap_or_default();
                exps.extend(list.split(',').map(|s| s.trim().to_lowercase()));
            }
            "--out" => {
                i += 1;
                out = argv.get(i).cloned().unwrap_or(out);
            }
            "--help" | "-h" => {
                println!("repro [--scale paper|bench|smoke] [--exp tab1,fig7,...|all] [--out DIR]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if exps.is_empty() {
        exps.insert("all".into());
    }
    Args { scale, exps, out }
}

fn main() {
    let args = parse_args();
    let wants = |id: &str| args.exps.contains("all") || args.exps.contains(id);
    let started = Instant::now();
    let mut emitted: Vec<(String, Table)> = Vec::new();
    let mut emit = |name: &str, table: Table| {
        println!("{table}");
        emitted.push((name.to_string(), table));
    };

    println!(
        "disks repro — scale {:?}; experiments: {:?}\n",
        args.scale,
        args.exps.iter().collect::<Vec<_>>()
    );

    // Parameters scale with the run scale: smoke/bench use fewer fragments
    // (the datasets are small) and fewer queries per point.
    let params = match args.scale {
        Scale::Paper => Params::default(),
        Scale::Bench => Params { num_fragments: 8, queries_per_point: 5, ..Params::default() },
        Scale::Smoke => {
            Params { num_fragments: 4, queries_per_point: 2, num_keywords: 3, ..Params::default() }
        }
    };

    if wants("tab1") {
        emit("tab1_datasets", exp::tab1_datasets(args.scale));
    }
    if wants("tab2") {
        emit("tab2_parameters", parameter_table());
    }

    // Lazily generated datasets (each generation is deterministic).
    let need_bri = ["fig7", "fig10", "fig12", "fig14"].iter().any(|e| wants(e));
    let need_aus = [
        "fig7", "fig8", "tab3", "fig9", "fig11", "fig13", "fig15", "fig16", "fig17", "comm",
        "ablation", "overload", "topk",
    ]
    .iter()
    .any(|e| wants(e));
    let bri = need_bri.then(|| {
        let t = Instant::now();
        let ds = load(DatasetId::Bri, args.scale);
        println!(
            "[gen] BRI-like: {} nodes, {} edges ({:?})\n",
            ds.net.num_nodes(),
            ds.net.num_edges(),
            t.elapsed()
        );
        ds
    });
    let aus = need_aus.then(|| {
        let t = Instant::now();
        let ds = load(DatasetId::Aus, args.scale);
        println!(
            "[gen] AUS-like: {} nodes, {} edges ({:?})\n",
            ds.net.num_nodes(),
            ds.net.num_edges(),
            t.elapsed()
        );
        ds
    });

    if wants("fig7") {
        if let Some(ds) = &bri {
            emit("fig7a_index_size_bri", exp::fig7_index_size(ds));
        }
        if let Some(ds) = &aus {
            emit("fig7b_index_size_aus", exp::fig7_index_size(ds));
        }
    }
    if wants("fig8") {
        if let Some(ds) = &aus {
            emit(
                "fig8_index_size_unbounded_aus",
                exp::fig8_index_size_unbounded(ds, params.num_fragments),
            );
        }
    }
    if wants("tab3") {
        if let Some(ds) = &aus {
            emit("tab3_indexing_time_aus", exp::tab3_indexing_time(ds));
        }
    }
    if wants("fig9") {
        if let Some(ds) = &aus {
            emit("fig9_query_time_vs_maxr_aus", exp::fig9_query_time_vs_maxr(ds, &params));
        }
    }
    if wants("fig10") {
        if let Some(ds) = &bri {
            emit("fig10_keywords_bri", exp::fig10_11_keywords(ds, &params));
        }
    }
    if wants("fig11") {
        if let Some(ds) = &aus {
            emit("fig11_keywords_aus", exp::fig10_11_keywords(ds, &params));
        }
    }
    if wants("fig12") {
        if let Some(ds) = &bri {
            emit("fig12_fragments_bri", exp::fig12_13_fragments(ds, &params));
        }
    }
    if wants("fig13") {
        if let Some(ds) = &aus {
            emit("fig13_fragments_aus", exp::fig12_13_fragments(ds, &params));
        }
    }
    if wants("fig14") {
        if let Some(ds) = &bri {
            emit("fig14_radius_bri", exp::fig14_15_radius(ds, &params));
        }
    }
    if wants("fig15") {
        if let Some(ds) = &aus {
            emit("fig15_radius_aus", exp::fig14_15_radius(ds, &params));
        }
    }
    if wants("fig16") {
        if let Some(ds) = &aus {
            emit("fig16_dfunctions_aus", exp::fig16_dfunctions(ds, &params));
        }
    }
    if wants("fig17") {
        if let Some(ds) = &aus {
            emit("fig17_rkq_aus", exp::fig17_rkq(ds, &params));
        }
    }
    if wants("comm") {
        if let Some(ds) = &aus {
            emit("comm_contrast_aus", exp::comm_contrast(ds, &params));
        }
    }
    if wants("ablation") {
        if let Some(ds) = &aus {
            emit("ablation_minimality_aus", exp::ablation_minimality(ds, &params));
            emit("ablation_partitioner_aus", exp::ablation_partitioner(ds, &params));
            emit("ablation_kw_aggregation_aus", exp::ablation_keyword_aggregation(ds, &params));
        }
    }
    if wants("overload") {
        if let Some(ds) = &aus {
            let (table, summary) = exp::overload(ds, &params);
            emit("overload_aus", table);
            let path = std::path::Path::new(&args.out).join("BENCH_overload.json");
            if let Err(e) = std::fs::create_dir_all(&args.out)
                .and_then(|()| std::fs::write(&path, summary.to_json()))
            {
                eprintln!("failed to save BENCH_overload.json: {e}");
            } else {
                println!("[json] {} ({} load points)", path.display(), summary.points.len());
            }
            // Saturation headline: goodput at 4x offered load, shedding on
            // vs off — the shed knee the overload lane tracks across PRs.
            if let (Some(p1), Some(p4)) = (summary.points.first(), summary.points.last()) {
                println!(
                    "[overload] 4x load: {:.0} q/s goodput shedding on (peak {:.0}), \
                     {:.0} q/s off, shed rate {:.0}%",
                    p4.goodput_on,
                    p1.goodput_on.max(p4.goodput_on),
                    p4.goodput_off,
                    100.0 * p4.shed_rate_on
                );
            }
            // Cost-model calibration read-out (observational, no behavior
            // change): what one Theorem 5 cost unit costs in observed
            // wall-clock at 1×, and the DISKS_COST_LIMIT today's p99 tail
            // implies — next to the configured budget for comparison.
            if summary.implied_cost_limit > 0 {
                println!(
                    "[overload] calibration: {:.3} us per cost unit observed; \
                     implied DISKS_COST_LIMIT ~= {} (configured {})",
                    summary.service_micros_per_cost, summary.implied_cost_limit, summary.cost_limit
                );
            }
            // Recovery across the sweep (nonzero only under fault lanes).
            let retries: u64 = summary.points.iter().map(|p| p.retries).sum();
            if retries > 0 {
                println!("[recovery] retries={retries}");
            }
            println!();
        }
    }
    if wants("topk") {
        if let Some(ds) = &aus {
            emit("topk_extension_aus", exp::topk_extension(ds, &params));
        }
    }

    for (name, table) in &emitted {
        if let Err(e) = table.save(&args.out, name) {
            eprintln!("failed to save {name}: {e}");
        }
    }
    println!(
        "done: {} artifact(s) written to {}/ in {:?}",
        emitted.len(),
        args.out,
        started.elapsed()
    );
}
