//! Output checks, computed apart from the code under test or stated as
//! properties the method must have.
//!
//! A *failed* cell is an operation that did not complete: a view failed
//! its checkers, scoreboard or drain, a comparison returned an error, or
//! a warm replay missed the store. A *problem* is a wrong output of an
//! operation that did complete; any problem makes the run incorrect.

use crate::{Campaign, Workload};
use catg::{Testbench, TestbenchOptions};
use regression::{RegressionReport, RunRecord};
use stbus_protocol::ViewKind;

/// The sign-off bar of the cycle comparison.
pub const SIGNOFF_ALIGNMENT: f64 = 0.99;

/// Problems kept for the report; the rest are only counted.
const KEPT_PROBLEMS: usize = 20;

/// Operation accounting and output problems of one benchmark run.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that failed.
    pub failed: u64,
    /// Wrong outputs seen (the first few are kept in `problems`).
    pub problem_count: u64,
    /// Descriptions of failures and problems, for the error stream.
    pub problems: Vec<String>,
}

impl Tally {
    /// Records a wrong output.
    pub fn problem(&mut self, message: String) {
        self.problem_count += 1;
        if self.problems.len() < KEPT_PROBLEMS {
            self.problems.push(message);
        }
    }

    /// Records a failed cell.
    pub fn fail(&mut self, message: String) {
        self.fail_cells(1, message);
    }

    /// Records `cells` failed cells under one description.
    pub fn fail_cells(&mut self, cells: u64, message: String) {
        self.failed += cells;
        if self.problems.len() < KEPT_PROBLEMS {
            self.problems.push(format!("failed: {message}"));
        }
    }

    /// True when no output was wrong.
    pub fn correct(&self) -> bool {
        self.problem_count == 0
    }
}

/// The transactions the stimulus side plans for every cell, in matrix
/// order: `Σ_i spec.profile_for(i).solve(cfg, i, seed).len()`.
pub fn planned_transactions(campaign: &Campaign) -> Vec<u64> {
    campaign
        .cell_iter()
        .map(|(_, cfg, spec, seed)| {
            (0..cfg.n_initiators)
                .map(|i| spec.profile_for(i).solve(cfg, i, seed).len() as u64)
                .sum()
        })
        .collect()
}

/// `matching ≤ total` on every port of a figure, and at least one port.
fn ports_consistent(figure: &[(String, u64, u64)]) -> bool {
    !figure.is_empty() && figure.iter().all(|(_, m, t)| m <= t)
}

/// Checks one campaign report: every cell is accounted for as attempted,
/// failed cells are counted, and the outputs of the others are checked.
pub fn check_report(
    campaign: &Campaign,
    plan: &[u64],
    report: &RegressionReport,
    tally: &mut Tally,
) {
    let cells: usize = report.configs.iter().map(|c| c.runs.len()).sum();
    tally.attempted += campaign.cells() as u64;
    if report.configs.len() != campaign.configs.len() || cells != campaign.cells() {
        tally.problem(format!(
            "report holds {} configs / {cells} cells, matrix has {} / {}",
            report.configs.len(),
            campaign.configs.len(),
            campaign.cells()
        ));
        return;
    }
    let per_config = campaign.tests.len() * campaign.seeds.len();
    let three_views = campaign.workload == Workload::ThreeViews;
    for (ci, outcome) in report.configs.iter().enumerate() {
        let cfg = &campaign.configs[ci];
        if outcome.config.name != cfg.name {
            tally.problem(format!(
                "config {ci} is {}, expected {}",
                outcome.config.name, cfg.name
            ));
        }
        for (k, run) in outcome.runs.iter().enumerate() {
            let at = format!("{}/{}/{}", cfg.name, run.test, run.seed);
            let spec = &campaign.tests[k / campaign.seeds.len()];
            let seed = campaign.seeds[k % campaign.seeds.len()];
            if run.test != spec.name || run.seed != seed {
                tally.problem(format!("{at}: out of matrix order"));
                continue;
            }
            if let Some(reason) = cell_failure(campaign.workload, run) {
                tally.fail(format!("{at}: {reason}"));
                continue;
            }
            check_cell(
                &at,
                campaign.workload,
                plan[ci * per_config + k],
                run,
                tally,
            );
        }
        if three_views && !outcome.runs.is_empty() {
            match outcome.min_tlm_alignment() {
                Some(a) if a < SIGNOFF_ALIGNMENT => {}
                other => tally.problem(format!(
                    "{}: TLM cycle alignment {other:?} does not stay below the sign-off bar",
                    cfg.name
                )),
            }
        }
    }
}

/// Why a cell failed, if it did.
fn cell_failure(workload: Workload, run: &RunRecord) -> Option<String> {
    let mut views = vec![
        (ViewKind::Rtl, Some(&run.rtl)),
        (ViewKind::Bca, Some(&run.bca)),
    ];
    if workload == Workload::ThreeViews {
        views.push((ViewKind::Tlm, run.tlm.as_ref()));
    }
    for (kind, result) in views {
        match result {
            None => return Some(format!("{kind} view did not run")),
            Some(r) if !r.passed() => return Some(format!("{kind} view failed: {}", r.summary())),
            Some(_) => {}
        }
    }
    if workload.compares() && run.alignment.is_none() {
        return Some("RTL/BCA comparison returned an error".to_owned());
    }
    if workload == Workload::ThreeViews
        && (run.tlm_alignment.is_none() || run.tlm_tx_alignment.is_none())
    {
        return Some("TLM/RTL comparison returned an error".to_owned());
    }
    None
}

/// The output checks of one cell that ran to completion.
fn check_cell(at: &str, workload: Workload, planned: u64, run: &RunRecord, tally: &mut Tally) {
    for result in [Some(&run.rtl), Some(&run.bca), run.tlm.as_ref()]
        .into_iter()
        .flatten()
    {
        if result.transactions != planned {
            tally.problem(format!(
                "{at}: {} view completed {} transactions, stimulus planned {planned}",
                result.view, result.transactions
            ));
        }
    }
    if workload != Workload::ThreeViews && run.tlm.is_some() {
        tally.problem(format!("{at}: TLM view ran outside three_views"));
    }
    if !workload.compares() {
        if run.alignment.is_some() {
            tally.problem(format!("{at}: compared although comparison is off"));
        }
        return;
    }
    let figures = [
        ("RTL/BCA cycle", run.alignment.as_ref()),
        ("TLM/RTL cycle", run.tlm_alignment.as_ref()),
        ("TLM/RTL transaction-order", run.tlm_tx_alignment.as_ref()),
    ];
    for (what, figure) in figures {
        if let Some(figure) = figure {
            if !ports_consistent(figure) {
                tally.problem(format!(
                    "{at}: {what} alignment has matching > total or no ports"
                ));
            }
        }
    }
    if let Some(tx) = &run.tlm_tx_alignment {
        if let Some((port, m, t)) = tx.iter().find(|(_, m, t)| m != t) {
            tally.problem(format!(
                "{at}: TLM transaction order aligns {m}/{t} on {port}"
            ));
        }
    }
}

/// An RTL waveform aligned against itself scores 1.0 on every port: one
/// cell per configuration (the test rotating through the library), run
/// outside any campaign.
pub fn check_self_alignment(campaign: &Campaign, tally: &mut Tally) {
    let seed = campaign.seeds[0];
    for (ci, cfg) in campaign.configs.iter().enumerate() {
        let spec = &campaign.tests[ci % campaign.tests.len()];
        let bench = Testbench::new(
            cfg.clone(),
            TestbenchOptions {
                capture_vcd: true,
                ..TestbenchOptions::default()
            },
        );
        let mut rtl = catg::build_view_with_engine(cfg, ViewKind::Rtl, crate::ENGINE);
        let result = bench.run(rtl.as_mut(), spec, seed);
        let Some(vcd) = result.vcd.as_deref() else {
            tally.problem(format!(
                "{}/{}: no RTL waveform captured",
                cfg.name, spec.name
            ));
            continue;
        };
        match stba::compare_vcd(vcd, vcd, catg::vcd_cycle_time()) {
            Ok(report) => {
                let bad = report
                    .ports
                    .iter()
                    .find(|p| p.matching_cycles != p.total_cycles || p.total_cycles == 0);
                if report.ports.is_empty() || bad.is_some() {
                    tally.problem(format!(
                        "{}/{}: RTL waveform does not align with itself ({bad:?})",
                        cfg.name, spec.name
                    ));
                }
            }
            Err(err) => tally.problem(format!(
                "{}/{}: self-comparison failed: {err}",
                cfg.name, spec.name
            )),
        }
    }
}

/// A campaign report with timings and cache bookkeeping stripped, as
/// rendered manifest text: what must read the same cached or fresh.
pub fn stripped_manifest(mut report: RegressionReport) -> String {
    report.strip_timings();
    report.manifest_json().render()
}

/// Checks a cold fill of the cell store: the usual report checks, and
/// every cell simulated and recorded. Returns the fill's stripped
/// manifest, which every warm pass must reproduce.
pub fn check_cold_fill(
    campaign: &Campaign,
    plan: &[u64],
    report: RegressionReport,
    tally: &mut Tally,
) -> String {
    check_report(campaign, plan, &report, tally);
    let summary = report.cache.unwrap_or_default();
    let cells = campaign.cells() as u64;
    if summary.simulated != cells || summary.puts != cells {
        tally.problem(format!(
            "cold fill simulated {} and recorded {} of {cells} cells",
            summary.simulated, summary.puts
        ));
    }
    stripped_manifest(report)
}

/// Checks one warm replay of a filled store: the usual report checks;
/// every cell must be a hit and none simulated (each cell that missed or
/// simulated failed); and the stripped manifest must be byte-identical
/// to the cold fill's (cached ≡ fresh).
pub fn check_warm_pass(
    campaign: &Campaign,
    plan: &[u64],
    report: RegressionReport,
    cold_manifest: &str,
    tally: &mut Tally,
) {
    check_report(campaign, plan, &report, tally);
    let summary = report.cache.unwrap_or_default();
    let cells = campaign.cells() as u64;
    let failed = (cells - summary.hits.min(cells)).max(summary.simulated);
    if failed > 0 {
        tally.fail_cells(
            failed,
            format!(
                "warm pass: {} hits, {} simulated of {cells} cells",
                summary.hits, summary.simulated
            ),
        );
    }
    if stripped_manifest(report) != cold_manifest {
        tally.problem("warm manifest differs from the cold fill's".to_owned());
    }
}
