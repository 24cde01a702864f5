//! Regeneration of the paper's Tables 1–5 from a [`SuiteResult`].

use branchlab_pipeline::{branch_cost, FlushModel};

use crate::harness::{mean_std, BenchResult, SuiteResult};
use crate::render::{f2, mcount, pct, rho, Table};
use crate::supervisor::BenchFailure;

/// A per-benchmark statistic selector used by the summary rows.
type Stat = fn(&BenchResult) -> f64;

/// Annotation rows for benchmarks the supervisor could not complete: a
/// partial table names every casualty explicitly instead of silently
/// shrinking. The failure summary lands in the second column and the
/// remaining cells are dashed out.
fn failure_rows<'a>(
    t: &mut Table,
    failures: impl Iterator<Item = &'a BenchFailure>,
    columns: usize,
) {
    for f in failures {
        let mut row = vec![f.name.clone(), "FAILED".to_string()];
        row.resize(columns, "-".to_string());
        t.row(row);
    }
}

/// Table 1: benchmark characteristics.
#[must_use]
pub fn table1(suite: &SuiteResult) -> Table {
    let mut t = Table::new(
        "Table 1: Benchmark characteristics",
        &["Benchmark", "Lines", "Runs", "Inst.", "Control"],
    );
    for b in suite.main_benches() {
        t.row(vec![
            b.name.to_string(),
            b.source_lines.to_string(),
            b.runs.to_string(),
            mcount(b.stats.insts),
            pct(b.stats.control_fraction()),
        ]);
    }
    failure_rows(&mut t, suite.main_failures(), 5);
    t
}

/// Table 2: conditional taken/not-taken and unconditional known/unknown
/// percentages.
#[must_use]
pub fn table2(suite: &SuiteResult) -> Table {
    let mut t = Table::new(
        "Table 2: Benchmark branch statistics",
        &["Benchmark", "Taken", "Not", "Known", "Unknown"],
    );
    for b in suite.main_benches() {
        let taken = b.mix.taken_fraction();
        let known = b.mix.known_fraction();
        t.row(vec![
            b.name.to_string(),
            pct(taken),
            pct(1.0 - taken),
            pct(known),
            pct(1.0 - known),
        ]);
    }
    failure_rows(&mut t, suite.main_failures(), 5);
    let (mt, _) = suite.mean_std(|b| b.mix.taken_fraction());
    let (mk, _) = suite.mean_std(|b| b.mix.known_fraction());
    t.row(vec![
        "Average".into(),
        pct(mt),
        pct(1.0 - mt),
        pct(mk),
        pct(1.0 - mk),
    ]);
    t
}

/// Table 3: prediction performance — ρ and A for the SBTB and CBTB, and
/// A for the Forward Semantic, plus mean/σ rows.
#[must_use]
pub fn table3(suite: &SuiteResult) -> Table {
    let mut t = Table::new(
        "Table 3: Branch prediction performance",
        &[
            "Benchmark",
            "rho_SBTB",
            "A_SBTB",
            "rho_CBTB",
            "A_CBTB",
            "A_FS",
        ],
    );
    for b in suite.main_benches() {
        t.row(vec![
            b.name.to_string(),
            rho(b.sbtb.miss_ratio()),
            pct(b.sbtb.accuracy()),
            rho(b.cbtb.miss_ratio()),
            pct(b.cbtb.accuracy()),
            pct(b.fs.accuracy()),
        ]);
    }
    failure_rows(&mut t, suite.main_failures(), 6);
    let stats: Vec<(&str, Stat)> = vec![
        ("rho_SBTB", |b| b.sbtb.miss_ratio()),
        ("A_SBTB", |b| b.sbtb.accuracy()),
        ("rho_CBTB", |b| b.cbtb.miss_ratio()),
        ("A_CBTB", |b| b.cbtb.accuracy()),
        ("A_FS", |b| b.fs.accuracy()),
    ];
    let mut avg = vec!["Average".to_string()];
    let mut sd = vec!["Std. dev.".to_string()];
    for (i, (_, f)) in stats.iter().enumerate() {
        let (m, s) = suite.mean_std(*f);
        let is_rho = i == 0 || i == 2;
        avg.push(if is_rho { rho(m) } else { pct(m) });
        sd.push(if is_rho { rho(s) } else { pct(s) });
    }
    t.row(avg);
    t.row(sd);
    t
}

/// Branch cost of one benchmark under one scheme's accuracy at
/// `k + ℓ̄ = kl`, `m̄ = 1` — the paper's Table 4 setting.
fn t4_cost(accuracy: f64, kl: u32) -> f64 {
    // k + ℓ̄ + m̄ = kl + 1; split arbitrarily as k = kl, ℓ̄ = 0, m̄ = 1.
    branch_cost(
        accuracy,
        kl,
        &FlushModel {
            l_bar: 0.0,
            m_bar: 1.0,
        },
    )
}

/// Table 4: branch cost at k + ℓ̄ = 2 and 3 (m̄ = 1), plus the average
/// percentage cost growth from the shallower to the deeper machine per
/// scheme (the scalability observation of §3).
#[must_use]
pub fn table4(suite: &SuiteResult) -> Table {
    let mut t = Table::new(
        "Table 4: Branch cost for k+l=2 and 3 (m=1)",
        &[
            "Benchmark",
            "SBTB k+l=2",
            "CBTB k+l=2",
            "FS k+l=2",
            "SBTB k+l=3",
            "CBTB k+l=3",
            "FS k+l=3",
        ],
    );
    for b in suite.main_benches() {
        t.row(vec![
            b.name.to_string(),
            f2(t4_cost(b.sbtb.accuracy(), 2)),
            f2(t4_cost(b.cbtb.accuracy(), 2)),
            f2(t4_cost(b.fs.accuracy(), 2)),
            f2(t4_cost(b.sbtb.accuracy(), 3)),
            f2(t4_cost(b.cbtb.accuracy(), 3)),
            f2(t4_cost(b.fs.accuracy(), 3)),
        ]);
    }
    failure_rows(&mut t, suite.main_failures(), 7);
    let cols: Vec<(Stat, u32)> = vec![
        (|b| b.sbtb.accuracy(), 2),
        (|b| b.cbtb.accuracy(), 2),
        (|b| b.fs.accuracy(), 2),
        (|b| b.sbtb.accuracy(), 3),
        (|b| b.cbtb.accuracy(), 3),
        (|b| b.fs.accuracy(), 3),
    ];
    let mut avg = vec!["Average".to_string()];
    let mut sd = vec!["Std. dev.".to_string()];
    for (f, kl) in &cols {
        let (m, s) = suite.mean_std(|b| t4_cost(f(b), *kl));
        avg.push(f2(m));
        sd.push(format!("{s:.3}"));
    }
    t.row(avg);
    t.row(sd);
    t
}

/// The §3 scalability numbers derived from Table 4: average percentage
/// increase in branch cost from k+ℓ̄ = 2 to 3 for (SBTB, CBTB, FS). The
/// paper reports 7.7%, 6.9%, 5.3% — FS scales best.
#[must_use]
pub fn cost_growth(suite: &SuiteResult) -> (f64, f64, f64) {
    let growth = |f: &dyn Fn(&BenchResult) -> f64| {
        let xs: Vec<f64> = suite
            .main_benches()
            .map(|b| {
                let a = f(b);
                (t4_cost(a, 3) - t4_cost(a, 2)) / t4_cost(a, 2) * 100.0
            })
            .collect();
        mean_std(&xs).0
    };
    (
        growth(&|b: &BenchResult| b.sbtb.accuracy()),
        growth(&|b: &BenchResult| b.cbtb.accuracy()),
        growth(&|b: &BenchResult| b.fs.accuracy()),
    )
}

/// Table 5: percentage code-size increase as a function of k + ℓ
/// (all 12 benchmarks, incl. eqn and espresso, like the paper).
#[must_use]
pub fn table5(suite: &SuiteResult) -> Table {
    let mut t = Table::new(
        "Table 5: Code-size increase vs forward-slot depth",
        &["Benchmark", "k+l=1", "k+l=2", "k+l=4", "k+l=8"],
    );
    let pct1 = |x: f64| format!("{x:.2}%");
    let mut sorted: Vec<&BenchResult> = suite.benches.iter().collect();
    sorted.sort_by_key(|b| b.name);
    for b in &sorted {
        t.row(
            std::iter::once(b.name.to_string())
                .chain(b.expansion.iter().map(|p| pct1(p.increase_pct())))
                .collect(),
        );
    }
    // Table 5 covers all 12 benchmarks, so annotate every failure.
    failure_rows(&mut t, suite.failures.iter(), 5);
    for (label, stat) in [("Average", 0), ("Std. dev.", 1)] {
        let mut row = vec![label.to_string()];
        for d in 0..4 {
            let xs: Vec<f64> = sorted
                .iter()
                .map(|b| b.expansion[d].increase_pct())
                .collect();
            let (m, s) = mean_std(&xs);
            row.push(pct1(if stat == 0 { m } else { s }));
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_benchmark, ExperimentConfig};
    use branchlab_workloads::benchmark;

    fn mini_suite() -> SuiteResult {
        let cfg = ExperimentConfig::test();
        let benches = ["wc", "cmp", "eqn"]
            .iter()
            .map(|n| run_benchmark(benchmark(n).unwrap(), &cfg).unwrap())
            .collect();
        SuiteResult::from_benches(benches)
    }

    #[test]
    fn tables_render_without_panicking() {
        let suite = mini_suite();
        for table in [
            table1(&suite),
            table2(&suite),
            table3(&suite),
            table4(&suite),
            table5(&suite),
        ] {
            let text = table.to_text();
            assert!(text.contains("wc"), "{text}");
            assert!(!table.to_markdown().is_empty());
            assert!(!table.to_csv().is_empty());
        }
    }

    #[test]
    fn partial_suite_annotates_failures_in_every_table() {
        let mut suite = mini_suite();
        suite.failures.push(BenchFailure {
            name: "grep".into(),
            error: "evaluation run failed: out of fuel at @000106".into(),
            elapsed: std::time::Duration::from_millis(5),
        });
        for t in [
            table1(&suite),
            table2(&suite),
            table3(&suite),
            table4(&suite),
            table5(&suite),
        ] {
            let text = t.to_text();
            assert!(text.contains("grep"), "{text}");
            assert!(text.contains("FAILED"), "{text}");
            // Completed benches keep their rows.
            assert!(text.contains("wc"), "{text}");
        }
        // eqn is not a main-table bench: its failure annotates only Table 5.
        suite.failures[0].name = "eqn".into();
        assert!(!table1(&suite).to_text().contains("FAILED"));
        assert!(table5(&suite).to_text().contains("FAILED"));
    }

    #[test]
    fn table5_includes_eqn_but_tables_1_to_4_do_not() {
        let suite = mini_suite();
        assert!(!table1(&suite).to_text().contains("eqn"));
        assert!(table5(&suite).to_text().contains("eqn"));
    }

    #[test]
    fn t4_cost_matches_paper_formula() {
        // A = 0.986, k+l̄=2, m̄=1 → 0.986 + 3·0.014 = 1.028.
        assert!((t4_cost(0.986, 2) - 1.028).abs() < 1e-9);
        // Deeper pipeline costs more.
        assert!(t4_cost(0.9, 3) > t4_cost(0.9, 2));
    }

    #[test]
    fn cost_growth_orders_match_accuracy_orders() {
        // Growth from k+l=2→3 is smaller for higher accuracy; with
        // synthetic accuracies the order must hold.
        let mk = |a: f64| (t4_cost(a, 3) - t4_cost(a, 2)) / t4_cost(a, 2);
        assert!(mk(0.935) < mk(0.915));
    }
}
