//! Small-scale (k=4) runs of every workload, the generator's
//! invariants, and the oracle's ability to catch a wrong verifier.

use std::path::PathBuf;

use perfbench::drive::{expected_configs, oracle, register, run, Opts, Outcome};
use perfbench::gen::{Inputs, Kind};
use realconfig::{ChangeSet, RealConfig};

fn opts(tag: &str, trace: bool) -> Opts {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    Opts {
        seconds: 0.3,
        trace,
        work_dir: dir.join("work"),
        span_dir: dir,
    }
}

fn run_small(kind: Kind, trace: bool) -> Outcome {
    let inputs = Inputs::generate(kind, 4, 7).expect("inputs generate");
    let o = opts(&format!("{}-{trace}", kind.name()), trace);
    let outcome = run(&inputs, &o).expect("run completes");
    let _ = std::fs::remove_dir_all(&o.work_dir);
    outcome
}

fn assert_clean(kind: Kind, trace: bool, expected: &[&str]) {
    let out = run_small(kind, trace);
    assert!(
        out.correct && out.failed == 0,
        "{}: {:?}",
        kind.name(),
        out.notes
    );
    assert!(out.attempted >= 1);
    let names: Vec<&str> = out.metrics.0.iter().map(|(n, _, _)| n.as_str()).collect();
    for name in expected {
        assert!(names.contains(name), "{} lacks {name}", kind.name());
    }
    let line = out
        .metrics
        .result_line(out.correct, out.attempted, out.failed);
    assert!(line.starts_with("{\"correct\": true"), "{line}");
}

const END_TO_END: &[&str] = &[
    "setup_s",
    "verify_p50_ms",
    "verify_p90_ms",
    "changes_per_s",
    "peak_rss_mb",
];

const LAYERS: &[&str] = &[
    "netcfg.linediff_us",
    "routing.apply_us",
    "dataflow.compact_us",
    "apkeep.apply_batch_us",
    "policy.check_us",
    "store.open_us",
    "store.snapshot_us",
    "core.apply_us",
    "core.self_us",
    "core.trace_packet_us",
];

#[test]
fn ospf_churn_small_scale() {
    assert_clean(Kind::OspfChurn, false, END_TO_END);
    assert_clean(Kind::OspfChurn, true, LAYERS);
}

#[test]
fn bgp_prefs_small_scale() {
    assert_clean(Kind::BgpPrefs, false, END_TO_END);
    assert_clean(Kind::BgpPrefs, true, LAYERS);
}

#[test]
fn pod_maintenance_small_scale() {
    assert_clean(Kind::PodMaintenance, false, END_TO_END);
    assert_clean(Kind::PodMaintenance, true, LAYERS);
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    for kind in Kind::ALL {
        let a = Inputs::generate(kind, 4, 3).expect("generate");
        let b = Inputs::generate(kind, 4, 3).expect("generate");
        let c = Inputs::generate(kind, 4, 4).expect("generate");
        assert_eq!(a.fingerprint(), b.fingerprint(), "{}", kind.name());
        assert_ne!(a.fingerprint(), c.fingerprint(), "{}", kind.name());
    }
}

#[test]
fn every_submission_changes_the_configurations() {
    for kind in [Kind::BgpPrefs, Kind::PodMaintenance] {
        let inputs = Inputs::generate(kind, 4, 9).expect("generate");
        let mut configs = inputs.configs.clone();
        for cs in &inputs.history {
            cs.apply(&mut configs).expect("history applies");
        }
        for window in inputs.submissions.iter().take(200) {
            let (folded, cancelled) = ChangeSet::coalesce(window);
            assert_eq!(cancelled, 0, "{}: {window:?}", kind.name());
            let before = configs.clone();
            folded.apply(&mut configs).expect("submission applies");
            assert_ne!(before, configs, "{}: no-op {window:?}", kind.name());
        }
    }
}

#[test]
fn oracle_catches_a_corrupted_input() {
    let inputs = Inputs::generate(Kind::OspfChurn, 4, 5).expect("generate");
    let (mut rc, _) = RealConfig::new(inputs.configs.clone()).expect("build");
    register(&mut rc, &inputs.policies).expect("policies register");
    for sub in inputs.submissions.iter().take(10) {
        rc.apply_change(&sub[0]).expect("change verifies");
    }
    let mut notes = Vec::new();
    let expected = expected_configs(&inputs, 10).expect("expected state");
    let clean = oracle(&rc, expected.clone(), &inputs.policies, &mut notes);
    assert!(clean.is_empty(), "{clean:?}");

    // The oracle's view of the network loses a link the verifier kept.
    let mut corrupted = expected;
    let (dev, iface) = corrupted
        .iter()
        .find_map(|(name, cfg)| {
            cfg.interfaces
                .iter()
                .find(|i| !i.shutdown)
                .map(|i| (name.clone(), i.name.clone()))
        })
        .expect("an enabled interface");
    ChangeSet::link_failure(&dev, &iface)
        .apply(&mut corrupted)
        .expect("edit applies");
    let caught = oracle(&rc, corrupted, &inputs.policies, &mut notes);
    assert!(
        !caught.is_empty(),
        "a corrupted oracle input must be caught"
    );
}

#[test]
fn oracle_catches_a_wrongly_applied_window() {
    let inputs = Inputs::generate(Kind::PodMaintenance, 4, 5).expect("generate");
    let build = || {
        let (mut rc, _) = RealConfig::new(inputs.configs.clone()).expect("build");
        register(&mut rc, &inputs.policies).expect("policies register");
        for cs in &inputs.history {
            rc.apply_change(cs).expect("history verifies");
        }
        rc
    };
    let windows = &inputs.submissions[..6];
    let expected = expected_configs(&inputs, windows.len()).expect("expected state");
    let mut notes = Vec::new();

    let mut right = build();
    for window in windows {
        right.apply_coalesced(window).expect("window verifies");
    }
    let clean = oracle(&right, expected.clone(), &inputs.policies, &mut notes);
    assert!(clean.is_empty(), "{clean:?}");

    // A verifier that loses one edit of the last window stays
    // consistent with itself; only the independently computed state
    // shows it. (An edit lost earlier can be masked by a later edit of
    // the same link.)
    let mut wrong = build();
    for (i, window) in windows.iter().enumerate() {
        let window = if i + 1 == windows.len() {
            &window[1..]
        } else {
            &window[..]
        };
        wrong.apply_coalesced(window).expect("window verifies");
    }
    let caught = oracle(&wrong, expected, &inputs.policies, &mut notes);
    assert!(
        caught
            .iter()
            .any(|m| m.starts_with("configurations differ")),
        "a window with an edit left out must be caught: {caught:?}"
    );
}
