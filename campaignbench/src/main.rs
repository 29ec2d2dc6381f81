//! One benchmark run of one workload.
//!
//! ```text
//! campaignbench --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]
//! ```
//!
//! With `--trace 0` the run times whole campaign passes through
//! `run_regression`, for the whole number of passes that comes closest
//! to `S` seconds of campaign time, and prints the end-to-end metrics; with `--trace 1` it alternates an
//! untraced pass with a traced replay of the same cells and prints the
//! per-layer metrics, writing every span to `DIR/spans-<workload>-<seed>.json`.
//! `cache_warm` runs each cold fill of its store in a child process of
//! this binary (`--cold-fill STORE`), so its peak memory is the warm
//! path's alone.
//! Either way the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

use cache::Store;
use campaignbench::checks::{
    check_cold_fill, check_report, check_self_alignment, check_warm_pass, planned_transactions,
    Tally,
};
use campaignbench::trace::{self, Tracer};
use campaignbench::{median, peak_rss_mb, Campaign, Workload};
use regression::RegressionReport;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use telemetry::Json;

/// Set-up repetitions of the simulation workloads timed before the
/// window and again after every pass (a few milliseconds each). The
/// median of all of them is reported, so it samples the whole run.
const SIM_SETUP_REPS: usize = 10;

/// Cold fills of the cell store per `cache_warm` run, each followed by
/// an equal share of the warm window; the median fill is reported.
const COLD_FILLS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    /// Child mode of `cache_warm`: fill a fresh store here and exit.
    cold_fill: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut work_dir = PathBuf::from("campaignbench/work");
    let mut cold_fill = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            "--cold-fill" => cold_fill = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        work_dir,
        cold_fill,
    })
}

/// Metrics in print order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Removes a directory tree if present.
fn wipe(dir: &Path) {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => panic!("cannot remove {}: {e}", dir.display()),
    }
}

/// Whether another whole pass brings the window closer to `seconds`,
/// going by the mean pass so far: the window ends within half a pass of
/// `seconds` instead of overshooting by up to a whole one.
fn another_pass(seconds: f64, busy: f64, passes: usize) -> bool {
    passes == 0 || busy + 0.5 * busy / (passes as f64) < seconds
}

/// Runs whole passes while [`another_pass`] says so. Returns the summed
/// campaign time and the number of passes.
fn timed_window(seconds: f64, mut pass: impl FnMut() -> Duration) -> (f64, usize) {
    let (mut busy, mut passes) = (0.0f64, 0usize);
    let mut times = Vec::new();
    while another_pass(seconds, busy, passes) {
        let took = pass().as_secs_f64();
        busy += took;
        passes += 1;
        times.push(format!("{took:.3}"));
    }
    eprintln!("pass times (s): {}", times.join(" "));
    (busy, passes)
}

/// One timed campaign call.
fn timed_campaign(campaign: &Campaign) -> (RegressionReport, Duration) {
    let options = campaign.options();
    let started = Instant::now();
    let report = campaign.run(&options);
    (report, started.elapsed())
}

fn rss() -> f64 {
    peak_rss_mb().unwrap_or(f64::NAN)
}

/// Builds the campaign [`SIM_SETUP_REPS`] times, adding each set-up
/// time to `setups`; returns the last build.
fn timed_setups(args: &Args, setups: &mut Vec<f64>) -> Campaign {
    let mut campaign = None;
    for _ in 0..SIM_SETUP_REPS {
        let started = Instant::now();
        let built = Campaign::new(args.workload, args.seed, None);
        setups.push(started.elapsed().as_secs_f64());
        campaign = Some(built);
    }
    campaign.expect("at least one set-up")
}

/// `paper_flow`, `no_compare`, `three_views` with tracing off.
fn run_simulation(args: &Args, tally: &mut Tally) -> Metrics {
    let mut setups = Vec::new();
    let campaign = timed_setups(args, &mut setups);
    let plan = planned_transactions(&campaign);
    if args.workload.compares() {
        check_self_alignment(&campaign, tally);
    }
    let (busy, passes) = timed_window(args.seconds, || {
        let (report, took) = timed_campaign(&campaign);
        check_report(&campaign, &plan, &report, tally);
        timed_setups(args, &mut setups);
        took
    });
    let cells = passes * campaign.cells();
    eprintln!(
        "{}: {passes} passes, {cells} cells in {busy:.3} s of campaign time; {} set-ups",
        args.workload.name(),
        setups.len()
    );
    vec![
        ("cells_per_s", cells as f64 / busy, "1/s"),
        ("peak_rss_mb", rss(), "MB"),
        ("setup_s", median(&setups), "s"),
    ]
}

/// Where a cold fill of `store` leaves its stripped manifest.
fn manifest_path(store: &Path) -> PathBuf {
    store.with_extension("manifest")
}

/// The child side of a `cache_warm` cold fill: fills a fresh store,
/// checks the fill, and writes its stripped manifest next to the store.
/// The only metric is `setup_s`, the time to build the campaign and run
/// it once against the empty store.
fn run_cold_fill(args: &Args, store: &Path, tally: &mut Tally) -> Metrics {
    wipe(store);
    let started = Instant::now();
    let campaign = Campaign::new(Workload::CacheWarm, args.seed, Some(store.to_path_buf()));
    let cold = campaign.run(&campaign.options());
    let fill_s = started.elapsed().as_secs_f64();
    let plan = planned_transactions(&campaign);
    let manifest = check_cold_fill(&campaign, &plan, cold, tally);
    let path = manifest_path(store);
    if let Err(e) = std::fs::write(&path, manifest) {
        panic!("cannot write {}: {e}", path.display());
    }
    vec![("setup_s", fill_s, "s")]
}

/// Fills a fresh store at `store` in a child process of this binary and
/// waits for it. Adds the child's cells to `tally`; returns the fill
/// time and the fill's stripped manifest.
fn cold_fill_in_child(args: &Args, store: &Path, tally: &mut Tally) -> (f64, String) {
    let exe = std::env::current_exe().expect("path of this benchmark binary");
    let output = Command::new(exe)
        .args(["--workload", Workload::CacheWarm.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .arg("--work-dir")
        .arg(&args.work_dir)
        .arg("--cold-fill")
        .arg(store)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("start the cold-fill process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout
        .lines()
        .last()
        .and_then(|line| Json::parse(line).ok())
        .filter(|_| output.status.success())
        .unwrap_or_else(|| panic!("cold fill exited with {} and no result", output.status));
    let field = |key: &str| result.get(key).and_then(Json::as_u64).unwrap_or(0);
    tally.attempted += field("attempted");
    if field("failed") > 0 {
        tally.fail_cells(field("failed"), "cells of a cold fill".to_owned());
    }
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        tally.problem("a cold fill's output was wrong".to_owned());
    }
    let fill_s = result
        .get("metrics")
        .and_then(|m| m.get("setup_s")?.get("value")?.as_f64())
        .expect("cold fill reports setup_s");
    let path = manifest_path(store);
    let manifest = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    (fill_s, manifest)
}

/// `cache_warm` with tracing off: each set-up fills a fresh store in a
/// child process, and a share of the window replays the matrix from it
/// in this one.
fn run_cache_warm(args: &Args, tally: &mut Tally) -> Metrics {
    let store_dir = args.work_dir.join(format!("store-{}", std::process::id()));
    let campaign = Campaign::new(Workload::CacheWarm, args.seed, Some(store_dir.clone()));
    let plan = planned_transactions(&campaign);
    let mut setups = Vec::with_capacity(COLD_FILLS);
    let (mut cells, mut busy, mut passes) = (0usize, 0.0f64, 0usize);
    let mut first_manifest = None;
    for _ in 0..COLD_FILLS {
        let (fill_s, cold_manifest) = cold_fill_in_child(args, &store_dir, tally);
        setups.push(fill_s);
        if *first_manifest.get_or_insert_with(|| cold_manifest.clone()) != cold_manifest {
            tally.problem("two cold fills of one matrix differ".to_owned());
        }
        let (b, p) = timed_window(args.seconds / COLD_FILLS as f64, || {
            let (report, took) = timed_campaign(&campaign);
            check_warm_pass(&campaign, &plan, report, &cold_manifest, tally);
            took
        });
        cells += p * campaign.cells();
        busy += b;
        passes += p;
    }
    wipe(&store_dir);
    let _ = std::fs::remove_file(manifest_path(&store_dir));
    eprintln!("cache_warm: {passes} warm passes, {cells} cells in {busy:.3} s of campaign time");
    vec![
        ("cells_per_s", cells as f64 / busy, "1/s"),
        ("peak_rss_mb", rss(), "MB"),
        ("setup_s", median(&setups), "s"),
    ]
}

/// Seconds a campaign report's cells spent in `Testbench::run` and in
/// the comparisons, as `run_regression` recorded them. A cell answered
/// from the store carries the times of the run that recorded it.
fn recorded_cell_s(report: &RegressionReport) -> f64 {
    let us: u64 = report
        .configs
        .iter()
        .flat_map(|c| &c.runs)
        .map(|r| {
            r.rtl_wall_us
                + r.bca_wall_us
                + r.tlm_wall_us
                + r.compare_wall_us.unwrap_or(0)
                + r.tlm_compare_wall_us.unwrap_or(0)
        })
        .sum();
    us as f64 / 1e6
}

/// The traced run: per-layer metrics, per pass of the matrix.
fn run_traced(args: &Args, tally: &mut Tally) -> Metrics {
    let workload = args.workload;
    let store_dir = args.work_dir.join(format!("store-{}", std::process::id()));
    let fresh_dir = args.work_dir.join(format!("fresh-{}", std::process::id()));
    let cache_dir = (workload == Workload::CacheWarm).then(|| store_dir.clone());
    wipe(&store_dir);
    let campaign = Campaign::new(workload, args.seed, cache_dir);
    let plan = planned_transactions(&campaign);
    let mut tr = Tracer::default();

    let mut cold_manifest = None;
    if workload == Workload::CacheWarm {
        let cold = campaign.run(&campaign.options());
        cold_manifest = Some(check_cold_fill(&campaign, &plan, cold, tally));
        wipe(&fresh_dir);
        trace::replay_fill(
            &mut tr,
            &campaign,
            &Store::open(&store_dir),
            &Store::open(&fresh_dir),
            tally,
        );
        wipe(&fresh_dir);
    }

    let mut phases: BTreeMap<String, f64> = BTreeMap::new();
    let (mut campaign_s, mut traced_s, mut passes) = (0.0f64, 0.0f64, 0usize);
    let (mut recorded_s, mut parse_s) = (0.0f64, 0.0f64);
    while another_pass(args.seconds, campaign_s + traced_s, passes) {
        let (report, took) = timed_campaign(&campaign);
        campaign_s += took.as_secs_f64();
        recorded_s += recorded_cell_s(&report);
        let replay = if let Some(cold_manifest) = &cold_manifest {
            check_warm_pass(&campaign, &plan, report, cold_manifest, tally);
            let started = Instant::now();
            trace::replay_warm(&mut tr, &campaign, &Store::open(&store_dir), tally);
            started.elapsed()
        } else {
            check_report(&campaign, &plan, &report, tally);
            let (tel, events) = trace::phase_telemetry();
            let started = Instant::now();
            trace::replay_simulation(&mut tr, &campaign, &report, &tel, tally);
            let replay = started.elapsed();
            let events = events.events();
            for (phase, s) in trace::phase_seconds(&events) {
                *phases.entry(phase).or_default() += s;
            }
            parse_s += trace::parse_seconds(&events);
            replay
        };
        traced_s += replay.as_secs_f64();
        passes += 1;
    }
    wipe(&store_dir);

    let spans_path = args
        .work_dir
        .join(format!("spans-{}-{}.json", workload.name(), args.seed));
    if let Err(e) = std::fs::write(&spans_path, tr.to_json().render()) {
        eprintln!("cannot write {}: {e}", spans_path.display());
    }
    for (layer, s) in tr.self_times() {
        eprintln!("self {layer:<22} {:>10.4} s/pass", s / passes as f64);
    }

    let n = passes as f64;
    let per = |x: f64| x / n;
    let count = |name: &str| per(tr.counted(name) as f64);
    let phase = |name: &str| per(phases.get(name).copied().unwrap_or(0.0));
    let step = |view: &str| per(tr.inner_s("catg.run", Some(view)));
    let run_s = per(tr.total_s("catg.run", None));
    let stba_cycle_s = per(tr.total_s("stba.cycle", None));
    let stba_tx_s = per(tr.total_s("stba.tx", None));
    let key_s = per(tr.total_s("cache.key", None));
    let get_s = per(tr.total_s("cache.get", None));
    let decode_s = per(tr.total_s("regression.decode", None));
    let campaign_pass_s = per(campaign_s);
    let digest_s = per(tr.total_s("regression.digest", None));
    // The layer time inside the untraced campaign: a warm pass spends it
    // in the cache path, a simulating pass in the view runs and the
    // comparisons, which `run_regression` times itself in every record.
    let attributed = match workload {
        Workload::CacheWarm => key_s + get_s + decode_s,
        _ => per(recorded_s),
    };
    let overhead_s = campaign_pass_s - attributed;
    let untraced = campaign.cells() as f64 / campaign_pass_s;
    let traced = campaign.cells() as f64 / per(traced_s);
    eprintln!(
        "{}: {passes} untraced + {passes} traced passes, spans in {}",
        workload.name(),
        spans_path.display()
    );
    vec![
        ("rtl.step_s", step("rtl"), "s"),
        ("rtl.cycles", count("rtl.cycles"), "count"),
        ("bca.step_s", step("bca"), "s"),
        ("bca.cycles", count("bca.cycles"), "count"),
        ("tlm.step_s", step("tlm"), "s"),
        ("tlm.cycles", count("tlm.cycles"), "count"),
        ("catg.run_s", run_s, "s"),
        (
            "catg.env_s",
            run_s - step("rtl") - step("bca") - step("tlm"),
            "s",
        ),
        ("catg.drive_s", phase("drive"), "s"),
        ("catg.check_s", phase("check"), "s"),
        ("catg.transactions", count("catg.transactions"), "count"),
        ("catg.vcd_s", phase("vcd"), "s"),
        ("catg.vcd_bytes", count("catg.vcd_bytes"), "bytes"),
        ("vcd.parse_s", per(parse_s), "s"),
        ("stba.cycle_s", stba_cycle_s, "s"),
        ("stba.tx_s", stba_tx_s, "s"),
        ("stba.pairs", count("stba.pairs"), "count"),
        ("cache.key_s", key_s, "s"),
        ("cache.get_s", get_s, "s"),
        // The record path runs once per run, on the set-up fill.
        ("cache.put_s", tr.total_s("cache.put", None), "s"),
        ("cache.hits", count("cache.hits"), "count"),
        ("cache.misses", count("cache.misses"), "count"),
        ("cache.bytes_read", count("cache.bytes_read"), "bytes"),
        ("regression.campaign_s", campaign_pass_s, "s"),
        ("regression.decode_s", decode_s, "s"),
        (
            "regression.encode_s",
            tr.total_s("regression.encode", None),
            "s",
        ),
        ("regression.digest_s", digest_s, "s"),
        ("regression.overhead_s", overhead_s, "s"),
        (
            "regression.unattributed_pct",
            100.0 * overhead_s / campaign_pass_s,
            "%",
        ),
        ("trace.untraced_cells_per_s", untraced, "1/s"),
        ("trace.traced_cells_per_s", traced, "1/s"),
        ("trace.overhead_pct", 100.0 * (untraced / traced - 1.0), "%"),
    ]
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: campaignbench --workload paper_flow|no_compare|three_views|cache_warm \
                 --seed N --seconds S --trace 0|1 [--work-dir DIR]"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("error: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(1);
    }
    let mut tally = Tally::default();
    let metrics = match (&args.cold_fill, args.trace, args.workload) {
        (Some(store), _, _) => run_cold_fill(&args, store, &mut tally),
        (None, true, _) => run_traced(&args, &mut tally),
        (None, false, Workload::CacheWarm) => run_cache_warm(&args, &mut tally),
        (None, false, _) => run_simulation(&args, &mut tally),
    };
    for p in &tally.problems {
        eprintln!("{p}");
    }
    let rendered: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        rendered.join(", ")
    );
}
