//! The traced replay: each workload's cells pushed through the same
//! public calls `run_cell` makes, with a span around every call into a
//! layer.
//!
//! Spans (name, view, start, end, parent) are kept in memory and written
//! out when the run ends. A span's self time is its duration minus its
//! child spans and minus the time spent in un-spanned inner calls — the
//! views' `step()`, which runs once per cycle and is timed by
//! [`TimedDut`] rather than given a span of its own.

use crate::checks::Tally;
use crate::{Campaign, Workload, ENGINE};
use cache::{Lookup, Store};
use catg::{RunResult, Testbench, TestbenchOptions};
use regression::{cell_codec, cell_key, RegressionReport};
use stbus_protocol::{DutInputs, DutOutputs, DutView, NodeConfig, ViewKind};
use std::collections::BTreeMap;
use std::time::Instant;
use telemetry::{Event, Json, MemorySink, MemorySinkHandle, Telemetry};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `catg.run` or `cache.get`.
    pub name: &'static str,
    /// Design view the call served (`rtl`, `bca`, `tlm`), or empty.
    pub view: &'static str,
    /// Open time, nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Close time.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Time inside un-spanned inner calls (the view's `step()`).
    pub inner_ns: u64,
}

/// In-memory span recorder with counters kept at the same boundaries.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Every span, in open order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    /// Work counts (cycles, transactions, bytes, hits, ...).
    pub counts: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }
}

fn view_name(kind: ViewKind) -> &'static str {
    match kind {
        ViewKind::Rtl => "rtl",
        ViewKind::Bca => "bca",
        ViewKind::Tlm => "tlm",
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; returns the span's index with `f`'s value.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        view: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (usize, T) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            view,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            inner_ns: 0,
        });
        self.stack.push(id);
        self.spans[id].start_ns = self.now_ns();
        let value = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.stack.pop();
        (id, value)
    }

    /// Adds `n` to a work counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// A counter's value (0 when never counted).
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Summed duration, in seconds, of the spans called `name` (of one
    /// view, when given).
    pub fn total_s(&self, name: &str, view: Option<&str>) -> f64 {
        self.matching(name, view)
            .map(|s| s.end_ns - s.start_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Summed inner time, in seconds, of the spans called `name` (of one
    /// view, when given).
    pub fn inner_s(&self, name: &str, view: Option<&str>) -> f64 {
        self.matching(name, view).map(|s| s.inner_ns).sum::<u64>() as f64 / 1e9
    }

    fn matching<'a>(
        &'a self,
        name: &'a str,
        view: Option<&'a str>,
    ) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.name == name && view.is_none_or(|v| s.view == v))
    }

    /// Self time per layer, in seconds: every span's duration minus its
    /// children and its inner time, keyed `name` or `name[view]`, plus
    /// the inner time itself under `<view>.step`.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let key = if s.view.is_empty() {
                s.name.to_owned()
            } else {
                format!("{}[{}]", s.name, s.view)
            };
            let own = (s.end_ns - s.start_ns).saturating_sub(children + s.inner_ns);
            *out.entry(key).or_default() += own as f64 / 1e9;
            if s.inner_ns > 0 {
                *out.entry(format!("{}.step", s.view)).or_default() += s.inner_ns as f64 / 1e9;
            }
        }
        out
    }

    /// The spans, counters and self times as one JSON document.
    pub fn to_json(&self) -> Json {
        let spans = self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::from(s.name)),
                ("view", Json::from(s.view)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("inner_ns", Json::from(s.inner_ns)),
            ])
        });
        Json::obj([
            ("schema", Json::from("campaignbench-spans/1")),
            (
                "self_s",
                Json::obj(
                    self.self_times()
                        .into_iter()
                        .map(|(k, v)| (k, Json::from(v))),
                ),
            ),
            (
                "counts",
                Json::obj(self.counts.iter().map(|(k, v)| (*k, Json::from(*v)))),
            ),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

/// A [`DutView`] decorator timing every `step()` of the wrapped view.
pub struct TimedDut {
    inner: Box<dyn DutView>,
    /// Nanoseconds inside `step()`.
    pub step_ns: u64,
    /// `step()` calls, one per simulated cycle.
    pub cycles: u64,
}

impl TimedDut {
    /// Wraps a view.
    pub fn new(inner: Box<dyn DutView>) -> TimedDut {
        TimedDut {
            inner,
            step_ns: 0,
            cycles: 0,
        }
    }
}

impl DutView for TimedDut {
    fn config(&self) -> &NodeConfig {
        self.inner.config()
    }

    fn view_kind(&self) -> ViewKind {
        self.inner.view_kind()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn step(&mut self, inputs: &DutInputs) -> DutOutputs {
        let t0 = Instant::now();
        let out = self.inner.step(inputs);
        self.step_ns += t0.elapsed().as_nanos() as u64;
        self.cycles += 1;
        out
    }

    fn attach_metrics(&mut self, registry: &telemetry::MetricsRegistry) {
        self.inner.attach_metrics(registry);
    }

    fn set_phase_timing(&mut self, enabled: bool) {
        self.inner.set_phase_timing(enabled);
    }

    fn phase_eval_us(&self) -> u64 {
        self.inner.phase_eval_us()
    }
}

/// A live telemetry handle capturing events in memory: it switches on
/// the testbench's drive/settle/check/vcd phase fields, which
/// [`phase_seconds`] reads back.
pub fn phase_telemetry() -> (Telemetry, MemorySinkHandle) {
    let (sink, handle) = MemorySink::new();
    (
        Telemetry::builder().with_sink(Box::new(sink)).build(),
        handle,
    )
}

/// The testbench phase totals (`drive`, `check`, `vcd`, ...) in seconds,
/// through [`profile::Profile::phase_totals`].
pub fn phase_seconds(events: &[Event]) -> BTreeMap<String, f64> {
    let spans = profile::collect_spans(events);
    profile::build_profile(&spans, &profile::ProfileOptions::default())
        .phase_totals()
        .into_iter()
        .map(|(k, us)| (k, us as f64 / 1e6))
        .collect()
}

/// Seconds the comparators spent parsing waveforms (`vcd::VcdDocument::parse`),
/// as both report it: `extract_us` on their `stba.compare` and
/// `stba.tx_compare` span end events.
pub fn parse_seconds(events: &[Event]) -> f64 {
    let us: u64 = events
        .iter()
        .filter(|e| e.scope == "stba.compare.end" || e.scope == "stba.tx_compare.end")
        .filter_map(|e| e.field("extract_us")?.as_u64())
        .sum();
    us as f64 / 1e6
}

/// Replays one simulation cell: elaborate each view, run the test on it,
/// and compare as `run_cell` does. The cell is counted as attempted, and
/// as failed when a view or a comparison fails or when its cycles or
/// transactions differ from the untraced campaign's record of the cell.
fn replay_sim_cell(
    tr: &mut Tracer,
    workload: Workload,
    (cfg, spec, seed): (&NodeConfig, &catg::TestSpec, u64),
    tel: &Telemetry,
    reference: &regression::RunRecord,
    tally: &mut Tally,
) {
    let at = format!("{}/{}/{seed}", cfg.name, spec.name);
    let (_, failure) = tr.span("cell", "", |tr| {
        let bench = Testbench::new(
            cfg.clone(),
            TestbenchOptions {
                capture_vcd: workload.compares(),
                telemetry: tel.clone(),
                ..TestbenchOptions::default()
            },
        );
        let mut results: Vec<RunResult> = Vec::new();
        for kind in workload.views() {
            let mut dut = TimedDut::new(catg::build_view_with_engine(cfg, kind, ENGINE));
            dut.attach_metrics(tel.metrics());
            let (id, result) = tr.span("catg.run", view_name(kind), |_| {
                bench.run(&mut dut, spec, seed)
            });
            tr.spans[id].inner_ns = dut.step_ns;
            tr.count(
                match kind {
                    ViewKind::Rtl => "rtl.cycles",
                    ViewKind::Bca => "bca.cycles",
                    ViewKind::Tlm => "tlm.cycles",
                },
                dut.cycles,
            );
            tr.count("catg.transactions", result.transactions);
            tr.count(
                "catg.vcd_bytes",
                result.vcd.as_ref().map_or(0, |v| v.len() as u64),
            );
            results.push(result);
        }
        if let Some(bad) = results.iter().find(|r| !r.passed()) {
            return Some(format!("{} view failed: {}", bad.view, bad.summary()));
        }
        fn vcd(r: &RunResult) -> &str {
            r.vcd.as_deref().unwrap_or_default()
        }
        if workload.compares() {
            let (rtl, bca) = (vcd(&results[0]), vcd(&results[1]));
            let (_, cmp) = tr.span("stba.cycle", "bca", |_| {
                stba::compare_vcd_with(rtl, bca, catg::vcd_cycle_time(), tel)
            });
            tr.count("stba.pairs", 1);
            if cmp.is_err() {
                return Some("RTL/BCA comparison returned an error".to_owned());
            }
            if let Some(tlm) = results.get(2) {
                let tlm = vcd(tlm);
                let (_, cycles) = tr.span("stba.cycle", "tlm", |_| {
                    stba::compare_vcd_with(rtl, tlm, catg::vcd_cycle_time(), tel)
                });
                let (_, transfers) = tr.span("stba.tx", "tlm", |_| {
                    stba::compare_transactions_with(rtl, tlm, catg::vcd_cycle_time(), tel)
                });
                tr.count("stba.pairs", 2);
                if cycles.is_err() || transfers.is_err() {
                    return Some("TLM/RTL comparison returned an error".to_owned());
                }
            }
        }
        // `run_cell` digests every captured waveform for its cache entry,
        // with or without a cache attached.
        tr.span("regression.digest", "", |_| {
            for r in &results {
                std::hint::black_box(cell_codec::vcd_digest(r.vcd.as_ref()));
            }
        });
        let recorded = [
            Some(&reference.rtl),
            Some(&reference.bca),
            reference.tlm.as_ref(),
        ];
        for (replayed, recorded) in results.iter().zip(recorded) {
            match recorded {
                Some(r)
                    if r.cycles == replayed.cycles && r.transactions == replayed.transactions => {}
                _ => {
                    return Some(format!(
                        "{} view replay differs from the campaign's record",
                        replayed.view
                    ))
                }
            }
        }
        None
    });
    tally.attempted += 1;
    if let Some(reason) = failure {
        tally.fail(format!("{at}: {reason}"));
    }
}

/// Replays every cell of a simulation workload under a `campaign` span.
/// `reference` is an untraced campaign report of the same matrix.
pub fn replay_simulation(
    tr: &mut Tracer,
    campaign: &Campaign,
    reference: &RegressionReport,
    tel: &Telemetry,
    tally: &mut Tally,
) {
    let records: Vec<&regression::RunRecord> = reference
        .configs
        .iter()
        .flat_map(|c| c.runs.iter())
        .collect();
    tr.span("campaign", "", |tr| {
        for (i, cfg, spec, seed) in campaign.cell_iter() {
            replay_sim_cell(
                tr,
                campaign.workload,
                (cfg, spec, seed),
                tel,
                records[i],
                tally,
            );
        }
    });
}

/// Replays the warm path of every cell: key, store lookup, decode.
pub fn replay_warm(tr: &mut Tracer, campaign: &Campaign, store: &Store, tally: &mut Tally) {
    let options = campaign.options();
    tr.span("campaign", "", |tr| {
        for (_, cfg, spec, seed) in campaign.cell_iter() {
            let at = format!("{}/{}/{seed}", cfg.name, spec.name);
            tally.attempted += 1;
            let (_, failure) = tr.span("cell", "", |tr| {
                let (_, key) = tr.span("cache.key", "", |_| cell_key(cfg, spec, seed, &options));
                let (_, (lookup, payload)) = tr.span("cache.get", "", |_| store.get(&key));
                let Some(payload) = payload.filter(|_| lookup == Lookup::Hit) else {
                    tr.count("cache.misses", 1);
                    return Some(format!("store lookup {lookup:?}"));
                };
                tr.count("cache.hits", 1);
                tr.count("cache.bytes_read", payload.len() as u64);
                let (_, cell) = tr.span("regression.decode", "", |_| cell_codec::decode(&payload));
                match cell {
                    Some(c) if c.record.test == spec.name && c.record.seed == seed => None,
                    _ => Some("entry does not decode to this cell".to_owned()),
                }
            });
            if let Some(reason) = failure {
                tally.fail(format!("{at}: {reason}"));
            }
        }
    });
}

/// Replays the record path of every cell from a filled store: each
/// entry is decoded, encoded again (timed) and put into `fresh` (timed).
/// Re-encoding a decoded entry must reproduce its payload byte for byte.
pub fn replay_fill(
    tr: &mut Tracer,
    campaign: &Campaign,
    filled: &Store,
    fresh: &Store,
    tally: &mut Tally,
) {
    tr.span("fill", "", |tr| {
        for (i, cfg, spec, seed) in campaign.cell_iter() {
            let at = format!("{}/{}/{seed}", cfg.name, spec.name);
            let key = &campaign.keys[i];
            tally.attempted += 1;
            let Some(payload) = filled.get(key).1 else {
                tally.fail(format!("{at}: filled store has no entry"));
                continue;
            };
            let Some(cell) = cell_codec::decode(&payload) else {
                tally.fail(format!("{at}: filled entry does not decode"));
                continue;
            };
            tr.span("cell", "", |tr| {
                let (_, encoded) = tr.span("regression.encode", "", |_| cell_codec::encode(&cell));
                if encoded != payload {
                    tally.problem(format!(
                        "{at}: encode(decode(entry)) differs from the entry"
                    ));
                }
                let (_, put) = tr.span("cache.put", "", |_| fresh.put(key, &encoded));
                if let Err(err) = put {
                    tally.fail(format!("{at}: put failed: {err}"));
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        view: &'static str,
        (start_ns, end_ns): (u64, u64),
        parent: Option<usize>,
        inner_ns: u64,
    ) -> Span {
        Span {
            name,
            view,
            start_ns,
            end_ns,
            parent,
            inner_ns,
        }
    }

    #[test]
    fn self_time_leaves_out_children_and_inner_time() {
        let tr = Tracer {
            spans: vec![
                span("cell", "", (0, 1_000), None, 0),
                span("catg.run", "rtl", (100, 600), Some(0), 300),
                span("stba.cycle", "bca", (600, 900), Some(0), 0),
            ],
            ..Tracer::default()
        };
        let ns = |k: &str| (tr.self_times()[k] * 1e9).round() as u64;
        assert_eq!(ns("cell"), 200);
        assert_eq!(ns("catg.run[rtl]"), 200);
        assert_eq!(ns("rtl.step"), 300);
        assert_eq!(ns("stba.cycle[bca]"), 300);
        assert_eq!(tr.total_s("catg.run", Some("rtl")), 500e-9);
        assert_eq!(tr.total_s("catg.run", Some("bca")), 0.0);
    }

    #[test]
    fn parse_time_is_read_from_both_comparators_span_ends() {
        let (tel, handle) = phase_telemetry();
        tel.span("stba.compare")
            .end([("extract_us", Json::from(1_500u64))]);
        tel.span("stba.tx_compare")
            .end([("extract_us", Json::from(500u64))]);
        tel.span("tb.run")
            .end([("extract_us", Json::from(9_000u64))]);
        assert_eq!(parse_seconds(&handle.events()), 0.002);
    }

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut tr = Tracer::default();
        tr.span("campaign", "", |tr| {
            tr.span("cell", "", |tr| tr.span("cache.get", "", |_| ()));
        });
        let parents: Vec<_> = tr.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1)]);
        assert!(tr.spans.iter().all(|s| s.start_ns <= s.end_ns));
    }
}
