//! The closed-loop client, the from-scratch oracle, and the two kinds
//! of run: untraced (end-to-end metrics) and traced (per-layer
//! metrics from the lockstep replay).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rc_netcfg::{ChangeSet, DeviceConfig};
use realconfig::{ChangeReport, RealConfig};

use crate::gen::{Inputs, Kind, PolicySpec};
use crate::replay::{Counts, Layers, Span, Tracer, SETUP};
use crate::stats::{median, peak_rss_mb, percentile, reset_peak_rss, rss_mb, us, Metrics};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Submissions the untraced loop runs at the least, past `--seconds`
/// if need be; `peak_rss_mb` is read when the loop reaches this count,
/// after three compactions.
pub const RSS_AFTER: usize = 3 * realconfig::DEFAULT_AUTO_COMPACT as usize;

/// Submissions of the traced run: two compactions and a few beyond, so
/// the per-layer counts and end-of-run figures cover fixed work.
pub const TRACED_SUBMISSIONS: usize = 2 * realconfig::DEFAULT_AUTO_COMPACT as usize + 8;

/// Extra journaled submissions in the traced run's store probe on the
/// workloads that do not restore from a state directory.
pub const PROBE_CHANGES: usize = 8;

/// Run settings.
pub struct Opts {
    /// Length of the untraced run's timed phase.
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for state directories, removed after the run.
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub span_dir: PathBuf,
}

/// What a run measured and whether its outputs were correct.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// Register the seeded policies and re-check them, as set-up does.
pub fn register(rc: &mut RealConfig, policies: &[PolicySpec]) -> Result<(), String> {
    for spec in policies {
        let policy = spec
            .resolve(|n| rc.node(n))
            .ok_or(format!("policy {spec:?} names an unknown device"))?;
        rc.add_policy(policy);
    }
    rc.recheck_policies();
    Ok(())
}

/// The state directory a previous verifier run left: a snapshot taken after
/// policy registration, then one journal record per history change.
fn previous_run(inputs: &Inputs, dir: &Path) -> Result<(), String> {
    let (mut rc, _) = RealConfig::new(inputs.configs.clone()).map_err(|e| e.to_string())?;
    register(&mut rc, &inputs.policies)?;
    rc.attach_state_dir(dir).map_err(|e| e.to_string())?;
    rc.save_snapshot().map_err(|e| e.to_string())?;
    for cs in &inputs.history {
        rc.apply_change(cs).map_err(|e| e.to_string())?;
    }
    if rc.journaled_changes() as usize != inputs.history.len() {
        return Err("previous run did not journal every change".into());
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Set-up: configurations in memory to first verified state. Returns
/// the verifier and the seconds it took.
fn set_up(inputs: &Inputs, state: Option<(&Path, &Path)>) -> Result<(RealConfig, f64), String> {
    let configs = inputs.configs.clone();
    match state {
        Some((template, dir)) => {
            copy_dir(template, dir)?;
            let t = Instant::now();
            let (rc, report) = RealConfig::open(dir, configs).map_err(|e| e.to_string())?;
            let secs = t.elapsed().as_secs_f64();
            if !matches!(report.source, realconfig::RestoreSource::Snapshot { .. })
                || report.replayed != inputs.history.len()
            {
                return Err(format!("set-up did not take the restore path: {report:?}"));
            }
            Ok((rc, secs))
        }
        None => {
            let t = Instant::now();
            let (mut rc, _) = RealConfig::new(configs).map_err(|e| e.to_string())?;
            register(&mut rc, &inputs.policies)?;
            Ok((rc, t.elapsed().as_secs_f64()))
        }
    }
}

/// Submit one change set, or one coalesced window, and check what the
/// report says about the generator's invariants.
fn submit(rc: &mut RealConfig, kind: Kind, sub: &[ChangeSet]) -> Result<ChangeReport, String> {
    let report = match kind {
        Kind::PodMaintenance => rc.apply_coalesced(sub),
        Kind::OspfChurn | Kind::BgpPrefs => rc.apply_change(&sub[0]),
    }
    .map_err(|e| e.to_string())?;
    if report.recovered || report.coalesced_noop || report.cancelled_ops != 0 {
        return Err(format!(
            "submission recovered={} noop={} cancelled_ops={}",
            report.recovered, report.coalesced_noop, report.cancelled_ops
        ));
    }
    if report.lines_inserted + report.lines_deleted == 0 {
        return Err("submission did not change the configurations".into());
    }
    Ok(report)
}

/// One pass over the read set. Records each read's latency (µs) and
/// returns how many failed.
fn read(rc: &RealConfig, inputs: &Inputs, lat_us: &mut Vec<f64>) -> usize {
    let mut failed = 0;
    for (src, pkt) in &inputs.reads {
        let t = Instant::now();
        let trace = rc.trace_packet(src, *pkt);
        lat_us.push(us(t.elapsed()));
        if std::hint::black_box(trace).is_none() {
            failed += 1;
        }
    }
    failed
}

/// The configurations the verifier should hold after its first
/// `consumed` submissions, computed without it: the generated
/// configurations, then the history, then every change set of every
/// consumed submission applied one at a time (windows are not folded).
pub fn expected_configs(
    inputs: &Inputs,
    consumed: usize,
) -> Result<BTreeMap<String, DeviceConfig>, String> {
    let mut configs = inputs.configs.clone();
    for cs in inputs
        .history
        .iter()
        .chain(inputs.submissions[..consumed].iter().flatten())
    {
        cs.apply(&mut configs).map_err(|e| e.to_string())?;
    }
    Ok(configs)
}

/// Compare the verifier with the `expected` configurations, with a
/// from-scratch build over them, and with the baseline data plane.
/// Returns one line per mismatch.
pub fn oracle(
    rc: &RealConfig,
    expected: BTreeMap<String, DeviceConfig>,
    policies: &[PolicySpec],
    notes: &mut Vec<String>,
) -> Vec<String> {
    let mut bad = Vec::new();
    let mine = rc.configs();
    let differing: Vec<&String> = mine
        .keys()
        .chain(expected.keys().filter(|d| !mine.contains_key(*d)))
        .filter(|d| mine.get(*d) != expected.get(*d))
        .collect();
    if !differing.is_empty() {
        bad.push(format!(
            "configurations differ from the expected ones on {} device(s): {:?}",
            differing.len(),
            differing
        ));
    }
    let (baseline, fresh) = match (
        realconfig::full_dataplane_baseline(&expected),
        RealConfig::new(expected),
    ) {
        (Ok((_, fib)), Ok((mut fresh, _))) => match register(&mut fresh, policies) {
            Ok(()) => (fib, fresh),
            Err(e) => return vec![e],
        },
        (Err(e), _) => return vec![format!("baseline failed: {e:?}")],
        (_, Err(e)) => return vec![format!("fresh build failed: {e}")],
    };
    let fib = rc.fib();
    if fib != fresh.fib() {
        bad.push(format!(
            "FIB differs from a fresh build ({} vs {})",
            fib.len(),
            fresh.fib().len()
        ));
    }
    if fib.len() != baseline {
        bad.push(format!(
            "FIB size {} differs from the baseline's {baseline}",
            fib.len()
        ));
    }
    if rc.num_rules() != fresh.num_rules() {
        bad.push(format!(
            "rules {} vs fresh {}",
            rc.num_rules(),
            fresh.num_rules()
        ));
    }
    if rc.num_pairs() != fresh.num_pairs() {
        bad.push(format!(
            "pairs {} vs fresh {}",
            rc.num_pairs(),
            fresh.num_pairs()
        ));
    }
    let (mine, theirs) = (rc.policy_specs(), fresh.policy_specs());
    if mine.len() != theirs.len() {
        bad.push(format!("{} policies vs fresh {}", mine.len(), theirs.len()));
    }
    for (i, ((p, v), (q, w))) in mine.iter().zip(&theirs).enumerate() {
        if p != q || v != w {
            bad.push(format!("policy {i}: verdict {v} vs fresh {w}"));
        }
    }
    notes.push(format!(
        "oracle: fib={} rules={} pairs={} policies={} ecs incremental={} fresh={} (EC counts are history-dependent)",
        fib.len(),
        rc.num_rules(),
        rc.num_pairs(),
        mine.len(),
        rc.num_ecs(),
        fresh.num_ecs()
    ));
    bad
}

/// Run the whole benchmark for one workload's inputs.
pub fn run(inputs: &Inputs, opts: &Opts) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.work_dir).map_err(|e| e.to_string())?;
    let template = opts.work_dir.join("previous-run");
    let pod = inputs.kind == Kind::PodMaintenance;
    if pod {
        let _ = std::fs::remove_dir_all(&template);
        previous_run(inputs, &template)?;
    }
    let state_dir = opts.work_dir.join("state");
    let state = pod.then_some((template.as_path(), state_dir.as_path()));
    let out = if opts.trace {
        traced(inputs, opts, state)
    } else {
        untraced(inputs, opts, state)
    };
    let _ = std::fs::remove_dir_all(&template);
    let _ = std::fs::remove_dir_all(&state_dir);
    out
}

fn untraced(
    inputs: &Inputs,
    opts: &Opts,
    state: Option<(&Path, &Path)>,
) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let mut setups = Vec::new();
    let mut rc = None;
    for _ in 0..SETUP_REPS {
        drop(rc.take());
        let (built, secs) = set_up(inputs, state)?;
        setups.push(secs);
        rc = Some(built);
    }
    let mut rc = rc.expect("at least one set-up ran");
    // The loop's peak, not set-up's: restart the high-water mark from
    // the memory the verifier holds now.
    let setup_peak = peak_rss_mb();
    let setup_rss = rss_mb();
    reset_peak_rss()?;

    let pod = inputs.kind == Kind::PodMaintenance;
    let (mut attempted, mut failed, mut changes) = (0, 0, 0);
    let (mut latency_ms, mut query_us) = (Vec::new(), Vec::new());
    let mut rss = f64::NAN;
    let start = Instant::now();
    for sub in &inputs.submissions {
        if start.elapsed().as_secs_f64() >= opts.seconds && attempted >= RSS_AFTER {
            break;
        }
        attempted += 1;
        let t = Instant::now();
        let res = submit(&mut rc, inputs.kind, sub);
        latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match res {
            Ok(_) => changes += sub.len(),
            Err(e) => {
                failed += 1;
                notes.push(format!("submission {} failed: {e}", attempted - 1));
            }
        }
        if pod {
            failed += read(&rc, inputs, &mut query_us);
        }
        if attempted == RSS_AFTER {
            rss = peak_rss_mb();
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    notes.push(format!(
        "peak RSS: set-up {setup_peak:.1} MiB (resident after set-up {setup_rss:.1}); \
         loop {rss:.1} MiB after {RSS_AFTER} submissions, {:.1} MiB at the end",
        peak_rss_mb()
    ));
    if attempted == inputs.submissions.len() {
        notes.push("warning: the run consumed the whole generated stream".into());
    }

    let mismatches = match expected_configs(inputs, attempted) {
        Ok(expected) => oracle(&rc, expected, &inputs.policies, &mut notes),
        Err(e) => vec![format!("expected configurations: {e}")],
    };
    notes.extend(mismatches.iter().map(|m| format!("oracle mismatch: {m}")));
    failed += mismatches.len();
    if pod {
        notes.push(format!(
            "reads={} read_p50_us={:.1}",
            query_us.len(),
            median(&query_us)
        ));
    }
    notes.push(format!(
        "submissions={attempted} changes={changes} failed_frac={}",
        failed as f64 / attempted.max(1) as f64
    ));

    let mut m = Metrics::default();
    m.push("setup_s", median(&setups), "s");
    m.push("verify_p50_ms", median(&latency_ms), "ms");
    m.push("verify_p90_ms", percentile(&latency_ms, 90.0), "ms");
    m.push("changes_per_s", changes as f64 / wall_s, "1/s");
    m.push("peak_rss_mb", rss, "MiB");
    let correct = failed == 0 && m.all_finite();
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        correct,
        notes,
    })
}

/// Per-submission record of the traced run.
struct Traced {
    replay: Counts,
    layer: crate::replay::LayerCounts,
    journal_bytes: Option<u64>,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

fn traced(inputs: &Inputs, opts: &Opts, state: Option<(&Path, &Path)>) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let mut t = Tracer::new();
    let (mut rc, _) = set_up(inputs, state)?;
    let (mut layers, mut replayed) = match state {
        Some((template, _)) => Layers::restore(template, &mut t)?,
        None => (
            Layers::build(inputs.configs.clone(), &inputs.policies, &mut t)?,
            0,
        ),
    };
    let journal = rc.state_dir().map(rc_store::journal_path);

    let pod = inputs.kind == Kind::PodMaintenance;
    let mut subs: Vec<Traced> = Vec::new();
    let mut failed = 0;
    let mut query_us = Vec::new();
    let start = Instant::now();
    let mut next = 0;
    while next < TRACED_SUBMISSIONS.min(inputs.submissions.len()) {
        let sub = &inputs.submissions[next];
        t.submission = next as u32;
        next += 1;
        let root = t.open("submission");
        let before = journal.as_deref().map(file_len);
        let res = t.span("core.apply", || submit(&mut rc, inputs.kind, sub));
        let journal_bytes = journal
            .as_deref()
            .map(|j| file_len(j) - before.unwrap_or(0));
        let new = t.span("core.clone", || layers.configs.clone());
        let edited = t.span("netcfg.change_apply", || {
            let mut new = new;
            let folded = match inputs.kind {
                Kind::PodMaintenance => ChangeSet::coalesce(sub).0,
                _ => sub[0].clone(),
            };
            folded
                .apply(&mut new)
                .map(|()| new)
                .map_err(|e| e.to_string())
        });
        let stepped = edited.and_then(|new| layers.step(new, &mut t));
        t.close(root);
        match (res, stepped) {
            (Ok(report), Ok((replay, layer))) => {
                let report = Counts::of_report(&report);
                if report != replay {
                    failed += 1;
                    notes.push(format!(
                        "replay mismatch at submission {}: report {report:?} vs replay {replay:?}",
                        next - 1
                    ));
                }
                subs.push(Traced {
                    replay,
                    layer,
                    journal_bytes,
                });
            }
            (Err(e), _) | (_, Err(e)) => {
                failed += 1;
                notes.push(format!("submission {} failed: {e}", next - 1));
            }
        }
        if pod {
            failed += read(&rc, inputs, &mut query_us);
        }
    }
    let attempted = next;
    let traced_s = start.elapsed().as_secs_f64();
    t.submission = SETUP;
    t.parent = None;

    // The lockstep replay must end where the verifier ended.
    if layers.engine.fib() != rc.fib()
        || layers.num_rules() != rc.num_rules()
        || layers.num_ecs() != rc.num_ecs()
    {
        failed += 1;
        notes.push(format!(
            "replay end state differs: rules {} vs {}, ecs {} vs {}",
            layers.num_rules(),
            rc.num_rules(),
            layers.num_ecs(),
            rc.num_ecs()
        ));
    }
    let end_rules = layers.num_rules() as f64;
    let end_ecs = layers.num_ecs() as f64;
    let end_trace_records = layers.engine.trace_records() as f64;
    drop(layers);

    // Read layer: pod-maintenance reads after every window; the other
    // workloads issue no reads of their own, so a probe passes over the
    // read set once, after the timed loop.
    if !pod {
        failed += read(&rc, inputs, &mut query_us);
    }

    // Store layer: pod-maintenance restored through it at set-up and
    // journaled every window; the other workloads get a probe that
    // snapshots the final state, journals a few more submissions and
    // reads both back.
    let mut consumed = next;
    let mut journal_bytes: Vec<f64> = subs
        .iter()
        .filter_map(|s| s.journal_bytes.map(|b| b as f64))
        .collect();
    if !pod {
        let dir = opts.work_dir.join("state");
        let _ = std::fs::remove_dir_all(&dir);
        rc.attach_state_dir(&dir).map_err(|e| e.to_string())?;
    }
    let dir = rc
        .state_dir()
        .expect("state directory attached")
        .to_path_buf();
    let snap = t
        .span("store.snapshot", || rc.save_snapshot())
        .map_err(|e| e.to_string())?;
    let snapshot_bytes = file_len(&rc_store::snapshot_path(&dir, snap)) as f64;
    if !pod {
        let jpath = rc_store::journal_path(&dir);
        for sub in inputs.submissions.iter().skip(next).take(PROBE_CHANGES) {
            let before = file_len(&jpath);
            submit(&mut rc, inputs.kind, sub)?;
            consumed += 1;
            journal_bytes.push((file_len(&jpath) - before) as f64);
        }
        let (_, jr) = crate::replay::store_open(&dir, &mut t)?;
        replayed = jr.records.len();
        if replayed != journal_bytes.len() {
            failed += 1;
            notes.push(format!(
                "store probe read {replayed} of {} records",
                journal_bytes.len()
            ));
        }
    }

    let mismatches = match expected_configs(inputs, consumed) {
        Ok(expected) => oracle(&rc, expected, &inputs.policies, &mut notes),
        Err(e) => vec![format!("expected configurations: {e}")],
    };
    notes.extend(mismatches.iter().map(|m| format!("oracle mismatch: {m}")));
    failed += mismatches.len();

    let m = layer_metrics(
        &t.spans,
        &subs,
        LayerEnd {
            rules: end_rules,
            ecs: end_ecs,
            trace_records: end_trace_records,
            replayed: replayed as f64,
            snapshot_bytes,
            journal_bytes: median(&journal_bytes),
            trace_packet_us: median(&query_us),
        },
    );
    let span_file = opts.span_dir.join(format!(
        "spans-{}-{}.jsonl",
        inputs.kind.name(),
        inputs.seed
    ));
    std::fs::write(&span_file, t.to_jsonl()).map_err(|e| e.to_string())?;
    let apply =
        m.0.iter()
            .find(|(n, _, _)| n == "core.apply_us")
            .map_or(f64::NAN, |x| x.1);
    let self_frac =
        m.0.iter()
            .find(|(n, _, _)| n == "core.self_frac")
            .map_or(f64::NAN, |x| x.1);
    notes.push(format!(
        "tracing: traced core.apply_us p50 = {apply:.1} (compare verify_p50_ms of an untraced run at this seed); \
         core.self_us is {:.1}% of core.apply_us; {} spans written to {}",
        self_frac * 100.0,
        t.spans.len(),
        span_file.display()
    ));
    notes.push(format!(
        "submissions={attempted} in {traced_s:.1} s failed={failed}"
    ));
    let correct = failed == 0 && m.all_finite();
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        correct,
        notes,
    })
}

struct LayerEnd {
    rules: f64,
    ecs: f64,
    trace_records: f64,
    replayed: f64,
    snapshot_bytes: f64,
    journal_bytes: f64,
    trace_packet_us: f64,
}

/// Per-layer metrics from the spans and counts of the traced run:
/// medians per submission unless the name says otherwise.
fn layer_metrics(spans: &[Span], subs: &[Traced], end: LayerEnd) -> Metrics {
    // Per-submission sum of each span name's time.
    let mut per: BTreeMap<(&str, u32), f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.submission != SETUP) {
        *per.entry((s.name, s.submission)).or_default() += s.us();
    }
    let span_median = |name: &str| {
        let v: Vec<f64> = per
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| *v)
            .collect();
        median(&v)
    };
    // Replay layer time per submission: the root's direct children
    // other than the verifier's own call.
    let mut self_us = Vec::new();
    let mut self_frac = Vec::new();
    for (i, _) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "submission")
    {
        let kids = spans.iter().filter(|s| s.parent == Some(i));
        let (mut apply, mut layers) = (0.0, 0.0);
        for k in kids {
            if k.name == "core.apply" {
                apply += k.us();
            } else {
                layers += k.us();
            }
        }
        self_us.push(apply - layers);
        self_frac.push((apply - layers) / apply);
    }
    let count = |f: &dyn Fn(&Traced) -> f64| median(&subs.iter().map(f).collect::<Vec<_>>());
    let setup_or_probe = |name: &str| {
        median(
            &spans
                .iter()
                .filter(|s| s.name == name && s.submission == SETUP)
                .map(Span::us)
                .collect::<Vec<_>>(),
        )
    };
    let compactions: Vec<&Traced> = subs
        .iter()
        .filter(|s| s.layer.compacted_records.is_some())
        .collect();

    let mut m = Metrics::default();
    m.push(
        "netcfg.change_apply_us",
        span_median("netcfg.change_apply"),
        "us",
    );
    m.push("netcfg.linediff_us", span_median("netcfg.linediff"), "us");
    m.push("netcfg.lower_us", span_median("netcfg.lower"), "us");
    m.push(
        "netcfg.fact_delta_us",
        span_median("netcfg.fact_delta"),
        "us",
    );
    m.push(
        "netcfg.fact_changes",
        count(&|s| s.replay.fact_changes as f64),
        "count",
    );
    m.push(
        "netcfg.diff_useful_frac",
        count(&|s| s.layer.devices_changed as f64 / s.layer.devices_printed as f64),
        "ratio",
    );
    m.push("routing.apply_us", span_median("routing.apply"), "us");
    m.push(
        "routing.records",
        count(&|s| s.layer.dp_records as f64),
        "count",
    );
    m.push(
        "routing.fib_changes",
        count(&|s| s.layer.fib_changes as f64),
        "count",
    );
    m.push("dataflow.compact_us", span_median("dataflow.compact"), "us");
    m.push(
        "dataflow.compact_records",
        compactions
            .iter()
            .map(|s| s.layer.compacted_records.unwrap_or(0) as f64)
            .sum(),
        "count",
    );
    m.push("dataflow.trace_records", end.trace_records, "count");
    m.push(
        "apkeep.apply_batch_us",
        span_median("apkeep.apply_batch"),
        "us",
    );
    m.push(
        "apkeep.rule_updates",
        count(&|s| (s.replay.rules_inserted + s.replay.rules_removed) as f64),
        "count",
    );
    m.push(
        "apkeep.ec_moves",
        count(&|s| s.replay.ec_moves as f64),
        "count",
    );
    m.push(
        "apkeep.ec_splits",
        count(&|s| s.replay.ec_splits as f64),
        "count",
    );
    m.push(
        "apkeep.affected",
        count(&|s| s.replay.affected_ecs as f64),
        "count",
    );
    m.push(
        "apkeep.net_move_frac",
        count(&|s| s.replay.affected_ecs as f64 / s.replay.ec_moves.max(1) as f64),
        "ratio",
    );
    m.push("apkeep.rules", end.rules, "count");
    m.push("apkeep.ecs", end.ecs, "count");
    m.push(
        "policy.link_delta_us",
        span_median("policy.link_delta"),
        "us",
    );
    m.push("policy.check_us", span_median("policy.check"), "us");
    m.push(
        "policy.affected_pairs",
        count(&|s| s.replay.affected_pairs as f64),
        "count",
    );
    m.push(
        "policy.changed_pairs",
        count(&|s| s.replay.changed_pairs as f64),
        "count",
    );
    m.push(
        "policy.useful_frac",
        count(&|s| s.replay.changed_pairs as f64 / s.replay.affected_pairs.max(1) as f64),
        "ratio",
    );
    m.push(
        "policy.policies_checked",
        count(&|s| s.replay.policies_checked as f64),
        "count",
    );
    m.push("store.open_us", setup_or_probe("store.open"), "us");
    m.push("store.replayed_records", end.replayed, "count");
    m.push("store.snapshot_us", setup_or_probe("store.snapshot"), "us");
    m.push("store.snapshot_bytes", end.snapshot_bytes, "bytes");
    m.push("store.journal_bytes", end.journal_bytes, "bytes");
    m.push("core.apply_us", span_median("core.apply"), "us");
    m.push("core.clone_us", span_median("core.clone"), "us");
    m.push("core.convert_us", span_median("core.convert"), "us");
    m.push(
        "telemetry.snapshot_us",
        span_median("telemetry.snapshot"),
        "us",
    );
    m.push("core.self_us", median(&self_us), "us");
    m.push("core.self_frac", median(&self_frac), "ratio");
    m.push("core.trace_packet_us", end.trace_packet_us, "us");
    m
}
