//! The traced replay: the verifier's pipeline driven layer by layer
//! through each crate's public functions, with a span around every
//! call.
//!
//! The replay runs in lockstep with a `RealConfig` fed the same
//! submissions, so its per-layer spans estimate where that verifier's
//! apply time goes, and its per-layer counts must equal the verifier's
//! `ChangeReport` for every submission. FIB grouping is crate-private
//! in `realconfig`, so [`Grouper`] carries a copy of it; the per-
//! submission count comparison guards that copy against drift.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

use rc_apkeep::{ApkModel, ElementKey, ModelRule, PortAction, RuleMatch, RuleUpdate, UpdateOrder};
use rc_netcfg::facts::{fact_delta, lower, Fact, Registry};
use rc_netcfg::linediff::diff_lines;
use rc_netcfg::parser::parse_config;
use rc_netcfg::printer::print_config;
use rc_netcfg::{DeviceConfig, NodeId, Port, Prefix};
use rc_policy::{PolicyChecker, PolicyId};
use rc_routing::{FibAction, FibDelta, FilterRule, RoutingEngine};
use rc_store::Reader;

use crate::gen::PolicySpec;

/// One timed call: what ran, when, under which span, for which
/// submission (`u32::MAX` for set-up).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub submission: u32,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Spans kept in memory for the whole run and written out at the end.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    /// The submission new spans belong to.
    pub submission: u32,
    /// The span new spans are children of.
    pub parent: Option<usize>,
}

pub const SETUP: u32 = u32::MAX;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            submission: SETUP,
            parent: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`]. New spans become
    /// its children until it closes.
    pub fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.parent,
            submission: self.submission,
        });
        let idx = self.spans.len() - 1;
        self.parent = Some(idx);
        idx
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
        self.parent = self.spans[idx].parent;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name);
        let out = f();
        self.close(idx);
        out
    }

    /// Spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let sub = if sp.submission == SETUP {
                "null".into()
            } else {
                sp.submission.to_string()
            };
            s.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"submission\": {sub}}}\n",
                sp.name, sp.start_ns, sp.end_ns
            ));
        }
        s
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Per-submission work counts, in the units of `ChangeReport`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub fact_changes: usize,
    pub rules_inserted: usize,
    pub rules_removed: usize,
    pub ec_moves: usize,
    pub ec_splits: usize,
    pub affected_ecs: usize,
    pub affected_pairs: usize,
    pub changed_pairs: usize,
    pub policies_checked: usize,
    pub newly_violated: Vec<u32>,
    pub newly_satisfied: Vec<u32>,
}

impl Counts {
    pub fn of_report(r: &realconfig::ChangeReport) -> Counts {
        Counts {
            fact_changes: r.fact_changes,
            rules_inserted: r.rules_inserted,
            rules_removed: r.rules_removed,
            ec_moves: r.ec_moves,
            ec_splits: r.ec_splits,
            affected_ecs: r.affected_ecs,
            affected_pairs: r.affected_pairs,
            changed_pairs: r.changed_pairs,
            policies_checked: r.policies_checked,
            newly_violated: r.newly_violated.clone(),
            newly_satisfied: r.newly_satisfied.clone(),
        }
    }
}

/// Per-submission layer counters beyond the `ChangeReport` fields.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    pub devices_printed: usize,
    pub devices_changed: usize,
    pub dp_records: u64,
    pub fib_changes: usize,
    /// Records retained before a compaction this submission triggered.
    pub compacted_records: Option<usize>,
}

/// The pipeline's state, owned layer by layer.
pub struct Layers {
    pub configs: BTreeMap<String, DeviceConfig>,
    registry: Registry,
    facts: BTreeSet<Fact>,
    devices: BTreeSet<NodeId>,
    pub engine: RoutingEngine,
    pub model: ApkModel,
    pub checker: PolicyChecker,
    grouper: Grouper,
    telemetry: rc_telemetry::Telemetry,
    compact_every: Option<u32>,
    changes_since_compact: u32,
}

impl Layers {
    fn wire(
        registry: Registry,
        model: ApkModel,
        checker: PolicyChecker,
        compact_every: Option<u32>,
    ) -> Layers {
        let telemetry = rc_telemetry::Telemetry::new();
        let mut engine = RoutingEngine::new();
        engine.set_telemetry(telemetry.clone());
        let mut layers = Layers {
            configs: BTreeMap::new(),
            registry,
            facts: BTreeSet::new(),
            devices: BTreeSet::new(),
            engine,
            model,
            checker,
            grouper: Grouper::default(),
            telemetry,
            compact_every,
            changes_since_compact: 0,
        };
        layers.model.set_telemetry(&layers.telemetry);
        layers.checker.set_telemetry(&layers.telemetry);
        layers
    }

    /// The full build `RealConfig::new` performs, followed by the
    /// policy registration and re-check the benchmark's set-up does.
    pub fn build(
        configs: BTreeMap<String, DeviceConfig>,
        policies: &[PolicySpec],
        t: &mut Tracer,
    ) -> Result<Layers, String> {
        let model = ApkModel::with_backend(rc_bdd::default_backend());
        let mut l = Layers::wire(
            Registry::new(),
            model,
            PolicyChecker::new(),
            Some(realconfig::DEFAULT_AUTO_COMPACT),
        );
        let lowered = t.span("netcfg.lower", || lower(&configs, &mut l.registry));
        let all: Vec<(Fact, isize)> = lowered.facts.iter().cloned().map(|f| (f, 1)).collect();
        t.span("routing.apply", || l.engine.apply(all.iter().cloned()))
            .map_err(|e| e.to_string())?;
        l.facts = lowered.facts;
        l.configs = configs;
        t.span("policy.link_delta", || l.sync_structure(&all));
        let updates = t.span("core.convert", || l.rule_updates(false));
        t.span("apkeep.apply_batch", || {
            l.model.apply_batch(updates, UpdateOrder::InsertFirst)
        });
        t.span("policy.check", || l.checker.check_full(&mut l.model));
        for spec in policies {
            let policy = spec
                .resolve(|n| l.registry.try_node(n))
                .ok_or(format!("policy {spec:?} names an unknown device"))?;
            l.checker.add_policy(&mut l.model, policy);
        }
        t.span("policy.check", || l.checker.check_full(&mut l.model));
        Ok(l)
    }

    /// The restore `RealConfig::open` performs on a clean state
    /// directory: decode the newest snapshot, re-derive the data plane,
    /// and replay the journal one record at a time. Returns the layers
    /// and the number of records replayed.
    pub fn restore(dir: &Path, t: &mut Tracer) -> Result<(Layers, usize), String> {
        let (sections, journal) = store_open(dir, t)?;
        // Section tags of the verifier's snapshot layout.
        let section = |tag: u32| {
            sections
                .iter()
                .find(|(s, _)| *s == tag)
                .map(|(_, b)| Reader::new(b))
                .ok_or(format!("snapshot missing section {tag}"))
        };
        let werr = |e: rc_store::WireError| e.0;

        let mut r = section(1)?;
        let _order = r.u8().map_err(werr)?;
        let _full_scan = r.u8().map_err(werr)?;
        let compact_every = match r.u8().map_err(werr)? {
            0 => None,
            _ => Some(r.u32().map_err(werr)?),
        };
        let mut r = section(2)?;
        let mut names = || -> Result<Vec<String>, String> {
            let n = r.len_prefix().map_err(werr)?;
            (0..n)
                .map(|_| r.str().map(str::to_string).map_err(werr))
                .collect()
        };
        let (nodes, ifaces) = (names()?, names()?);
        let registry = Registry::from_names(nodes, ifaces)?;
        let mut r = section(3)?;
        let mut configs = BTreeMap::new();
        for _ in 0..r.len_prefix().map_err(werr)? {
            let name = r.str().map_err(werr)?.to_string();
            let cfg = parse_config(r.str().map_err(werr)?).map_err(|e| e.to_string())?;
            configs.insert(name, cfg);
        }
        let model = ApkModel::decode_state(&mut section(4)?).map_err(werr)?;
        let checker =
            PolicyChecker::decode_state(&mut section(5)?, model.pred_slots()).map_err(werr)?;

        let mut l = Layers::wire(registry, model, checker, compact_every);
        let lowered = t.span("netcfg.lower", || lower(&configs, &mut l.registry));
        t.span("routing.apply", || {
            l.engine.apply(lowered.facts.iter().map(|f| (f.clone(), 1)))
        })
        .map_err(|e| e.to_string())?;
        l.devices = lowered
            .facts
            .iter()
            .filter_map(|f| {
                if let Fact::Device(n) = f {
                    Some(*n)
                } else {
                    None
                }
            })
            .collect();
        l.facts = lowered.facts;
        l.configs = configs;
        // Prime the grouper with the full FIB, as restore does.
        let _ = l.rule_updates(false);

        for record in &journal.records {
            let (upserts, removes) = decode_delta(record)?;
            let mut next = l.configs.clone();
            next.extend(upserts);
            for name in removes {
                next.remove(&name);
            }
            l.step(next, t)?;
        }
        Ok((l, journal.records.len()))
    }

    /// One transaction body of the verifier's apply path, layer by
    /// layer, on already-edited configurations.
    pub fn step(
        &mut self,
        new_configs: BTreeMap<String, DeviceConfig>,
        t: &mut Tracer,
    ) -> Result<(Counts, LayerCounts), String> {
        let mut c = Counts::default();
        let mut lc = LayerCounts::default();

        t.span("netcfg.linediff", || {
            for (name, new_cfg) in &new_configs {
                let old = self.configs.get(name).map(print_config).unwrap_or_default();
                let new = print_config(new_cfg);
                lc.devices_printed += 1;
                if old != new {
                    lc.devices_changed += 1;
                    std::hint::black_box(diff_lines(&old, &new));
                }
            }
        });
        let lowered = t.span("netcfg.lower", || lower(&new_configs, &mut self.registry));
        let delta = t.span("netcfg.fact_delta", || {
            fact_delta(&self.facts, &lowered.facts)
        });
        c.fact_changes = delta.len();

        let stats = t
            .span("routing.apply", || self.engine.apply(delta.iter().cloned()))
            .map_err(|e| e.to_string())?;
        lc.dp_records = stats.records;
        lc.fib_changes = stats.fib_changes;

        let touched = t.span("policy.link_delta", || self.sync_structure(&delta));
        let updates = t.span("core.convert", || self.rule_updates(true));
        c.rules_inserted = updates.iter().filter(|u| u.is_insert()).count();
        c.rules_removed = updates.len() - c.rules_inserted;
        let summary = t.span("apkeep.apply_batch", || {
            self.model.apply_batch(updates, UpdateOrder::InsertFirst)
        });
        c.ec_moves = summary.ec_moves;
        c.ec_splits = summary.ec_splits;
        c.affected_ecs = summary.affected.len();

        let check = t.span("policy.check", || {
            self.checker
                .check_incremental(&mut self.model, &summary, touched)
        });
        c.affected_pairs = check.affected_pairs;
        c.changed_pairs = check.changed_pairs;
        c.policies_checked = check.policies_checked;
        c.newly_violated = check
            .newly_violated
            .iter()
            .map(|p: &PolicyId| p.0)
            .collect();
        c.newly_satisfied = check
            .newly_satisfied
            .iter()
            .map(|p: &PolicyId| p.0)
            .collect();

        // Count-based compaction at the verifier's cadence.
        self.changes_since_compact += 1;
        if let Some(every) = self.compact_every {
            if self.changes_since_compact >= every {
                lc.compacted_records = Some(self.engine.trace_records());
                t.span("dataflow.compact", || self.engine.compact());
                self.changes_since_compact = 0;
            }
        }

        self.configs = new_configs;
        self.facts = lowered.facts;
        t.span("telemetry.snapshot", || {
            std::hint::black_box(self.telemetry.snapshot())
        });
        Ok((c, lc))
    }

    /// Device set and checker link map from a fact delta; returns the
    /// ECs invalidated by link changes.
    fn sync_structure(&mut self, delta: &[(Fact, isize)]) -> BTreeSet<rc_apkeep::EcId> {
        let mut links: Vec<(Port, Port, isize)> = Vec::new();
        let mut devices_changed = false;
        for (f, r) in delta {
            match f {
                Fact::Link { src, dst } => links.push((*src, *dst, *r)),
                Fact::Device(n) => {
                    devices_changed = true;
                    if *r > 0 {
                        self.devices.insert(*n);
                    } else {
                        self.devices.remove(n);
                    }
                }
                _ => {}
            }
        }
        if devices_changed {
            self.checker.set_nodes(self.devices.iter().copied());
        }
        self.checker.apply_link_delta(&links)
    }

    /// The last engine apply's FIB and filter deltas as model rule
    /// updates (filter removals only on the incremental path).
    fn rule_updates(&mut self, incremental: bool) -> Vec<RuleUpdate> {
        let mut updates = self.grouper.convert(self.engine.fib_delta());
        let (fins, frem) = self.engine.filter_delta();
        if incremental {
            updates.extend(frem.iter().map(|f| RuleUpdate::Remove(filter_rule(f))));
        }
        updates.extend(fins.iter().map(|f| RuleUpdate::Insert(filter_rule(f))));
        updates
    }

    pub fn num_rules(&self) -> usize {
        self.model.num_rules()
    }

    pub fn num_ecs(&self) -> usize {
        self.model.num_ecs()
    }
}

/// A snapshot's (tag, payload) sections.
type Sections = Vec<(u32, Vec<u8>)>;

/// A journal record: upserted devices and removed device names.
type ConfigDelta = (Vec<(String, DeviceConfig)>, Vec<String>);

/// The store layer's part of an open: read and validate the newest
/// snapshot's sections and the journal that extends it.
pub fn store_open(dir: &Path, t: &mut Tracer) -> Result<(Sections, rc_store::JournalRead), String> {
    t.span("store.open", || {
        let snaps = rc_store::list_snapshots(dir).map_err(|e| e.to_string())?;
        let (_, path) = snaps.first().ok_or("no snapshot in state directory")?;
        let bytes = rc_store::read_file(path).map_err(|e| e.to_string())?;
        let sections = rc_store::decode_snapshot(&bytes).map_err(|e| e.to_string())?;
        let journal =
            rc_store::read_journal(&rc_store::journal_path(dir)).map_err(|e| e.to_string())?;
        Ok((sections, journal))
    })
}

/// Decode one journal record: upserted devices as printed text, then
/// removed device names.
fn decode_delta(bytes: &[u8]) -> Result<ConfigDelta, String> {
    let mut r = Reader::new(bytes);
    let werr = |e: rc_store::WireError| e.0;
    let mut upserts = Vec::new();
    for _ in 0..r.len_prefix().map_err(werr)? {
        let name = r.str().map_err(werr)?.to_string();
        let cfg = parse_config(r.str().map_err(werr)?).map_err(|e| e.to_string())?;
        upserts.push((name, cfg));
    }
    let mut removes = Vec::new();
    for _ in 0..r.len_prefix().map_err(werr)? {
        removes.push(r.str().map_err(werr)?.to_string());
    }
    Ok((upserts, removes))
}

/// Grouped FIB view: one logical rule per `(node, prefix)` whose port
/// action carries the whole ECMP group (a copy of the verifier's
/// crate-private grouper).
#[derive(Default)]
struct Grouper {
    current: BTreeMap<(NodeId, Prefix), PortAction>,
}

impl Grouper {
    fn convert(&mut self, delta: &FibDelta) -> Vec<RuleUpdate> {
        let mut touched: BTreeMap<(NodeId, Prefix), (Vec<FibAction>, Vec<FibAction>)> =
            BTreeMap::new();
        for e in &delta.inserted {
            touched
                .entry((e.node, e.prefix))
                .or_default()
                .0
                .push(e.action);
        }
        for e in &delta.removed {
            touched
                .entry((e.node, e.prefix))
                .or_default()
                .1
                .push(e.action);
        }
        let mut updates = Vec::new();
        for ((node, prefix), (ins, rem)) in touched {
            let old = self.current.get(&(node, prefix)).cloned();
            let new = regroup(old.as_ref(), &ins, &rem);
            if old == new {
                continue;
            }
            let mk = |action: PortAction| ModelRule {
                element: ElementKey::Forward(node),
                priority: prefix.len() as u32,
                rule_match: RuleMatch::DstPrefix(prefix),
                action,
            };
            if let Some(o) = old {
                updates.push(RuleUpdate::Remove(mk(o)));
                self.current.remove(&(node, prefix));
            }
            if let Some(n) = new {
                updates.push(RuleUpdate::Insert(mk(n.clone())));
                self.current.insert((node, prefix), n);
            }
        }
        updates
    }
}

fn regroup(old: Option<&PortAction>, ins: &[FibAction], rem: &[FibAction]) -> Option<PortAction> {
    let (mut fwd, mut local) = match old {
        Some(PortAction::Forward(v)) => (v.clone(), Vec::new()),
        Some(PortAction::Deliver(v)) => (Vec::new(), v.clone()),
        _ => (Vec::new(), Vec::new()),
    };
    let mut drop = matches!(old, Some(PortAction::Drop));
    for a in rem {
        match a {
            FibAction::Forward(i) => fwd.retain(|x| x != i),
            FibAction::Local(i) => local.retain(|x| x != i),
            FibAction::Drop => drop = false,
        }
    }
    for a in ins {
        match a {
            FibAction::Forward(i) if !fwd.contains(i) => fwd.push(*i),
            FibAction::Local(i) if !local.contains(i) => local.push(*i),
            FibAction::Drop => drop = true,
            _ => {}
        }
    }
    if drop {
        Some(PortAction::Drop)
    } else if !local.is_empty() {
        Some(PortAction::deliver(local))
    } else if !fwd.is_empty() {
        Some(PortAction::forward(fwd))
    } else {
        None
    }
}

fn filter_rule(f: &FilterRule) -> ModelRule {
    ModelRule {
        element: ElementKey::Filter(f.node, f.iface, f.dir),
        priority: u32::MAX - f.seq,
        rule_match: RuleMatch::Acl {
            proto: f.proto,
            src: f.src,
            dst: f.dst,
            dst_ports: f.dst_ports,
        },
        action: if f.permit {
            PortAction::Permit
        } else {
            PortAction::Deny
        },
    }
}
