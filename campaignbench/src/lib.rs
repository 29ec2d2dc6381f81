//! Campaign benchmark: the `{config × test × seed}` regression campaign
//! timed end to end through [`regression::run_regression`], its outputs
//! checked, and a traced replay that splits the time by layer.
//!
//! The four workloads share one matrix — the 40 standard configurations
//! × the 12 library tests at intensity 30 × one seed — and differ in
//! what each cell does:
//!
//! - `paper_flow`: RTL vs BCA with waveform capture and STBA cycle
//!   alignment (the paper's default campaign);
//! - `no_compare`: the same cells with waveform comparison off;
//! - `three_views`: RTL, BCA and TLM, compared cycle by cycle and by
//!   transaction order;
//! - `cache_warm`: the `paper_flow` matrix replayed from a filled cell
//!   store, with zero simulations.
//!
//! Every campaign runs on one worker thread, the compiled RTL engine,
//! `Fidelity::Relaxed`, with telemetry off.

pub mod checks;
pub mod trace;

use cache::Key;
use catg::{tests_lib, TestSpec};
use regression::{cell_key, run_regression, standard_configs, RegressionOptions, RegressionReport};
use sim_kernel::SimBackend;
use stbus_bca::Fidelity;
use stbus_protocol::{NodeConfig, ViewKind};
use stbus_rtl::RtlNode;
use std::path::PathBuf;
use telemetry::Telemetry;

/// Per-initiator transactions per test.
pub const INTENSITY: usize = 30;

/// The RTL simulation backend every workload uses.
pub const ENGINE: SimBackend = SimBackend::Compiled;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// RTL vs BCA with waveform capture and cycle alignment.
    PaperFlow,
    /// RTL vs BCA, no waveforms and no comparison.
    NoCompare,
    /// RTL, BCA and TLM with cycle and transaction-order alignment.
    ThreeViews,
    /// The `PaperFlow` matrix answered from a filled cell store.
    CacheWarm,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperFlow,
        Workload::NoCompare,
        Workload::ThreeViews,
        Workload::CacheWarm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFlow => "paper_flow",
            Workload::NoCompare => "no_compare",
            Workload::ThreeViews => "three_views",
            Workload::CacheWarm => "cache_warm",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether cells capture waveforms and compare them.
    pub fn compares(self) -> bool {
        self != Workload::NoCompare
    }

    /// The design views every cell runs.
    pub fn views(self) -> Vec<ViewKind> {
        match self {
            Workload::ThreeViews => vec![ViewKind::Rtl, ViewKind::Bca, ViewKind::Tlm],
            _ => vec![ViewKind::Rtl, ViewKind::Bca],
        }
    }
}

/// SplitMix64: the campaign seed a benchmark `--seed` selects.
pub fn campaign_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    // Kept to 32 bits so seeds read easily in reports and cell keys.
    (z ^ (z >> 31)) & 0xFFFF_FFFF
}

/// One workload's campaign inputs: the matrix, the options, and each
/// cell's content key in matrix order (config, then test, then seed).
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Which workload this is.
    pub workload: Workload,
    /// The configuration sweep.
    pub configs: Vec<NodeConfig>,
    /// The test library.
    pub tests: Vec<TestSpec>,
    /// Campaign seeds.
    pub seeds: Vec<u64>,
    /// Root of the cell store (`cache_warm` only).
    pub cache_dir: Option<PathBuf>,
    /// Cell keys in matrix order.
    pub keys: Vec<Key>,
}

impl Campaign {
    /// Builds the campaign: the configuration matrix and test library,
    /// one elaboration of every configuration's RTL view (so a
    /// configuration that cannot elaborate fails before the clock starts),
    /// and every cell's content key. This is the simulation workloads'
    /// set-up.
    pub fn new(workload: Workload, seed: u64, cache_dir: Option<PathBuf>) -> Campaign {
        let configs = standard_configs();
        let tests = tests_lib::all(INTENSITY);
        for config in &configs {
            drop(RtlNode::with_engine(config.clone(), ENGINE));
        }
        let mut campaign = Campaign {
            workload,
            configs,
            tests,
            seeds: vec![campaign_seed(seed)],
            cache_dir,
            keys: Vec::new(),
        };
        let options = campaign.options();
        let mut keys = Vec::with_capacity(campaign.cells());
        for config in &campaign.configs {
            for spec in &campaign.tests {
                for &s in &campaign.seeds {
                    keys.push(cell_key(config, spec, s, &options));
                }
            }
        }
        campaign.keys = keys;
        campaign
    }

    /// Number of `{config, test, seed}` cells.
    pub fn cells(&self) -> usize {
        self.configs.len() * self.tests.len() * self.seeds.len()
    }

    /// Fresh campaign options. A `Telemetry` handle's metrics registry
    /// accumulates for the handle's lifetime, so every campaign call gets
    /// its own (disabled) handle.
    pub fn options(&self) -> RegressionOptions {
        RegressionOptions {
            seeds: self.seeds.clone(),
            intensity: INTENSITY,
            fidelity: Fidelity::Relaxed,
            bca_bugs: Vec::new(),
            views: self.workload.views(),
            engine: ENGINE,
            compare_waveforms: self.workload.compares(),
            jobs: 1,
            telemetry: Telemetry::disabled(),
            cache_dir: self.cache_dir.clone(),
            ..RegressionOptions::default()
        }
    }

    /// Runs the whole campaign once.
    pub fn run(&self, options: &RegressionOptions) -> RegressionReport {
        run_regression(&self.configs, &self.tests, options)
    }

    /// Iterates the cells in matrix order as `(index, config, test, seed)`.
    pub fn cell_iter(&self) -> impl Iterator<Item = (usize, &NodeConfig, &TestSpec, u64)> + '_ {
        self.configs
            .iter()
            .flat_map(move |c| {
                self.tests
                    .iter()
                    .flat_map(move |t| self.seeds.iter().map(move |&s| (c, t, s)))
            })
            .enumerate()
            .map(|(i, (c, t, s))| (i, c, t, s))
    }
}

/// The median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
