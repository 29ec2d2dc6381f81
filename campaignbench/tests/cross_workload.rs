//! The benchmark's own tests: what the workloads simulate, and whether
//! the output checks catch wrong outputs.

use campaignbench::checks::{
    check_cold_fill, check_report, check_warm_pass, planned_transactions, Tally,
};
use campaignbench::{Campaign, Workload};

/// A campaign cut down to the first `configs` configurations and
/// `tests` tests, for checks that need a report but not the full matrix.
fn small(workload: Workload, configs: usize, tests: usize) -> Campaign {
    let mut campaign = Campaign::new(workload, 11, None);
    campaign.configs.truncate(configs);
    campaign.tests.truncate(tests);
    campaign
}

/// Turning comparison off must not change what is simulated: on every
/// cell of the full matrix, `paper_flow` and `no_compare` report the same
/// cycles, transactions and functional coverage on both views.
#[test]
fn comparison_off_simulates_the_same_cells() {
    let run = |workload| {
        let campaign = Campaign::new(workload, 7, None);
        campaign.run(&campaign.options())
    };
    let with = run(Workload::PaperFlow);
    let without = run(Workload::NoCompare);
    assert_eq!(with.configs.len(), without.configs.len());
    let mut cells = 0;
    for (a, b) in with.configs.iter().zip(&without.configs) {
        assert_eq!(a.config.name, b.config.name);
        assert_eq!(a.runs.len(), b.runs.len());
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert!(x.alignment.is_some() && y.alignment.is_none());
            for (rx, ry) in [(&x.rtl, &y.rtl), (&x.bca, &y.bca)] {
                let at = format!("{}/{}/{} {}", a.config.name, x.test, x.seed, rx.view);
                assert_eq!(rx.cycles, ry.cycles, "{at}: cycles");
                assert_eq!(rx.transactions, ry.transactions, "{at}: transactions");
                assert_eq!(rx.coverage, ry.coverage, "{at}: functional coverage");
            }
            cells += 1;
        }
    }
    assert_eq!(cells, 40 * 12);
}

#[test]
fn clean_campaign_passes_every_check() {
    for workload in [Workload::PaperFlow, Workload::ThreeViews] {
        let campaign = small(workload, 3, 2);
        let report = campaign.run(&campaign.options());
        let mut tally = Tally::default();
        check_report(
            &campaign,
            &planned_transactions(&campaign),
            &report,
            &mut tally,
        );
        assert_eq!(tally.attempted, 6);
        assert_eq!(tally.failed, 0, "{:?}", tally.problems);
        assert!(tally.correct(), "{:?}", tally.problems);
    }
}

#[test]
fn checks_catch_wrong_outputs_and_failed_cells() {
    let campaign = small(Workload::ThreeViews, 2, 2);
    let plan = planned_transactions(&campaign);
    let clean = campaign.run(&campaign.options());
    let verdict = |tamper: &dyn Fn(&mut regression::RegressionReport)| {
        let mut report = clean.clone();
        tamper(&mut report);
        let mut tally = Tally::default();
        check_report(&campaign, &plan, &report, &mut tally);
        (tally.failed, tally.correct())
    };
    assert_eq!(verdict(&|_| {}), (0, true));
    // A transaction lost on one view.
    assert_eq!(
        verdict(&|r| r.configs[0].runs[1].bca.transactions -= 1),
        (0, false)
    );
    // More matching cycles than cycles.
    assert_eq!(
        verdict(&|r| {
            let port = &mut r.configs[1].runs[0].alignment.as_mut().unwrap()[0];
            port.1 = port.2 + 1;
        }),
        (0, false)
    );
    // TLM out of transaction order.
    assert_eq!(
        verdict(&|r| r.configs[0].runs[0].tlm_tx_alignment.as_mut().unwrap()[0].1 = 0),
        (0, false)
    );
    // TLM passing the cycle discipline it must fail.
    assert_eq!(
        verdict(&|r| {
            for run in &mut r.configs[1].runs {
                for port in run.tlm_alignment.as_mut().unwrap() {
                    port.1 = port.2;
                }
            }
        }),
        (0, false)
    );
    // A cell missing from the matrix.
    assert_eq!(verdict(&|r| drop(r.configs[1].runs.pop())), (0, false));
    // A view that did not drain, and a comparison that errored.
    assert_eq!(
        verdict(&|r| r.configs[0].runs[0].rtl.completed = false),
        (1, true)
    );
    assert_eq!(
        verdict(&|r| r.configs[1].runs[1].alignment = None),
        (1, true)
    );
}

/// A warm pass fails every cell it had to simulate, and is wrong when
/// its manifest differs from the cold fill's.
#[test]
fn warm_checks_count_misses_and_catch_a_changed_manifest() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut campaign = Campaign::new(Workload::CacheWarm, 11, Some(dir.clone()));
    campaign.configs.truncate(2);
    campaign.tests.truncate(2);
    let plan = planned_transactions(&campaign);
    let pass = || campaign.run(&campaign.options());

    let mut tally = Tally::default();
    let cold = check_cold_fill(&campaign, &plan, pass(), &mut tally);
    check_warm_pass(&campaign, &plan, pass(), &cold, &mut tally);
    assert_eq!(
        (tally.attempted, tally.failed),
        (8, 0),
        "{:?}",
        tally.problems
    );
    assert!(tally.correct(), "{:?}", tally.problems);

    // An evicted entry is simulated again: a failed replay, a right output.
    let key = regression::cell_key(
        &campaign.configs[1],
        &campaign.tests[0],
        campaign.seeds[0],
        &campaign.options(),
    );
    cache::Store::open(&dir).remove(&key);
    let mut tally = Tally::default();
    check_warm_pass(&campaign, &plan, pass(), &cold, &mut tally);
    assert_eq!(
        (tally.failed, tally.correct()),
        (1, true),
        "{:?}",
        tally.problems
    );

    let mut tally = Tally::default();
    check_warm_pass(&campaign, &plan, pass(), "{}", &mut tally);
    assert_eq!(
        (tally.failed, tally.correct()),
        (0, false),
        "{:?}",
        tally.problems
    );
    std::fs::remove_dir_all(&dir).expect("remove the test store");
}
