//! Seeded workload inputs: the network, the policy set, the submission
//! stream and the read set. Everything here is a pure function of
//! `(workload, k, seed)`; the verifier only ever sees what these
//! functions return.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rc_netcfg::gen::ProtocolChoice;
use rc_netcfg::printer::print_config;
use rc_netcfg::topology::host_prefix;
use rc_netcfg::{ChangeSet, DeviceConfig, NodeId};
use realconfig::{Packet, PacketClass, Policy};
use realconfig_bench::{stream, Workload};

/// Submissions generated per run. A closed loop consumes them in
/// order and stops early only if a run outlasts the whole stream.
pub const STREAM_LEN: usize = 4096;

/// Cost edits per `pod-maintenance` window.
pub const WINDOW: usize = 4;

/// Journal records a previous `pod-maintenance` verifier run leaves
/// behind, so that set-up is dominated by journal replay.
pub const HISTORY: usize = 24;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// OSPF fat tree, one link fail/restore per submission.
    OspfChurn,
    /// BGP fat tree, one local-pref edit per submission.
    BgpPrefs,
    /// OSPF fat tree restored from a state directory, one coalesced
    /// window of cost edits per submission, reads after each window.
    PodMaintenance,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::OspfChurn, Kind::BgpPrefs, Kind::PodMaintenance];

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::OspfChurn => "ospf-churn",
            Kind::BgpPrefs => "bgp-prefs",
            Kind::PodMaintenance => "pod-maintenance",
        }
    }

    /// Fat-tree arity the benchmark runs at.
    pub fn default_k(self) -> u32 {
        match self {
            Kind::BgpPrefs => 12,
            Kind::OspfChurn | Kind::PodMaintenance => 8,
        }
    }

    fn proto(self) -> ProtocolChoice {
        match self {
            Kind::BgpPrefs => ProtocolChoice::Bgp,
            Kind::OspfChurn | Kind::PodMaintenance => ProtocolChoice::Ospf,
        }
    }
}

/// A policy over device names, resolved against a verifier's registry.
#[derive(Clone, Debug)]
pub enum PolicySpec {
    Reach {
        src: String,
        dst: String,
        dst_idx: u32,
    },
    Waypoint {
        src: String,
        dst: String,
        via: String,
        dst_idx: u32,
    },
    LoopFree {
        dst_idx: u32,
    },
    BlackholeFree {
        src: String,
        dst_idx: u32,
    },
}

impl PolicySpec {
    /// The policy over `node`'s ids; `None` if a device is unknown.
    pub fn resolve(&self, node: impl Fn(&str) -> Option<NodeId>) -> Option<Policy> {
        let class = |i: u32| PacketClass::DstPrefix(host_prefix(i));
        Some(match self {
            PolicySpec::Reach { src, dst, dst_idx } => Policy::Reachability {
                src: node(src)?,
                dst: node(dst)?,
                class: class(*dst_idx),
            },
            PolicySpec::Waypoint {
                src,
                dst,
                via,
                dst_idx,
            } => Policy::Waypoint {
                src: node(src)?,
                dst: node(dst)?,
                via: node(via)?,
                class: class(*dst_idx),
            },
            PolicySpec::LoopFree { dst_idx } => Policy::LoopFree {
                class: class(*dst_idx),
            },
            PolicySpec::BlackholeFree { src, dst_idx } => Policy::BlackholeFree {
                src: node(src)?,
                class: class(*dst_idx),
            },
        })
    }
}

/// One workload's generated inputs.
pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    pub configs: BTreeMap<String, DeviceConfig>,
    pub policies: Vec<PolicySpec>,
    /// The closed loop's submissions in order: one change set each,
    /// or one window of [`WINDOW`] change sets on `pod-maintenance`.
    pub submissions: Vec<Vec<ChangeSet>>,
    /// `pod-maintenance` only: the changes a previous verifier run journaled
    /// after its snapshot (empty otherwise).
    pub history: Vec<ChangeSet>,
    /// The fixed read set, one read per host prefix: (source device,
    /// packet).
    pub reads: Vec<(String, Packet)>,
}

impl Inputs {
    pub fn generate(kind: Kind, k: u32, seed: u64) -> Result<Inputs, String> {
        let w = Workload::fat_tree(k, kind.proto());
        // Edge switches are the devices that originate host prefixes,
        // in host-prefix order.
        let mut edges: Vec<(u32, String)> = Vec::new();
        for (dev, prefixes) in &w.topo.host_prefixes {
            for p in prefixes {
                edges.push((((p.addr().0 >> 8) & 0xFFF), dev.clone()));
            }
        }
        edges.sort();
        let aggrs: Vec<&String> = w
            .topo
            .devices
            .iter()
            .filter(|d| d.contains("aggr"))
            .collect();

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0001);
        let policies = policy_set(&edges, &aggrs, &mut rng);
        // One read per host prefix, each from an edge switch in another
        // pod: every trace walks edge, aggregation, core, aggregation,
        // edge, and the set covers every destination, so its latency
        // distribution does not hinge on which prefixes a seed picks.
        let per_pod = (k / 2) as usize;
        let mut reads = Vec::with_capacity(edges.len());
        for (b, (dst_idx, _)) in edges.iter().enumerate() {
            let a = loop {
                let a = rng.gen_range(0..edges.len());
                if a / per_pod != b / per_pod {
                    break a;
                }
            };
            let pkt = Packet {
                dst_ip: host_prefix(*dst_idx).addr().0 | rng.gen_range(1..255u32),
                src_ip: 0x0A00_0001,
                proto: 6,
                src_port: 40000,
                dst_port: 443,
            };
            reads.push((edges[a].1.clone(), pkt));
        }

        let mut history = Vec::new();
        let submissions = match kind {
            Kind::OspfChurn => stream::uniform_churn(&w, STREAM_LEN, seed)
                .into_iter()
                .map(|cs| vec![cs])
                .collect(),
            Kind::BgpPrefs => {
                // Import preferences on edge switches only: aggregation
                // and core switches always prefer their shorter direct
                // paths, so no preference cycle can form and BGP
                // converges after every edit.
                let mut edits = Edits::new(&w, seed, 100, 101..400, ChangeSet::local_pref);
                edits
                    .ports
                    .retain(|(dev, _)| edges.iter().any(|(_, e)| e == dev));
                (0..STREAM_LEN)
                    .map(|_| edits.next_window(1))
                    .collect::<Result<_, _>>()?
            }
            Kind::PodMaintenance => {
                let mut edits = Edits::new(&w, seed, 1, 2..100, ChangeSet::link_cost);
                for _ in 0..HISTORY {
                    history.extend(edits.next_window(1)?);
                }
                let windows = (0..STREAM_LEN)
                    .map(|_| edits.next_window(WINDOW))
                    .collect::<Result<Vec<_>, _>>()?;
                for window in &windows {
                    if ChangeSet::coalesce(window).1 != 0 {
                        return Err(format!("window {window:?} has a cancellable pair"));
                    }
                }
                windows
            }
        };
        Ok(Inputs {
            kind,
            seed,
            configs: w.configs,
            policies,
            submissions,
            history,
            reads,
        })
    }

    /// FNV-1a over everything the verifier is given: configurations,
    /// policies, history, submissions and reads. Two runs with equal
    /// fingerprints saw identical inputs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for (name, cfg) in &self.configs {
            h.write(name.as_bytes());
            h.write(print_config(cfg).as_bytes());
        }
        h.write(format!("{:?}", self.policies).as_bytes());
        h.write(format!("{:?}", self.history).as_bytes());
        for s in &self.submissions {
            h.write(format!("{s:?}").as_bytes());
        }
        h.write(format!("{:?}", self.reads).as_bytes());
        h.0
    }
}

/// The seeded policy set every workload registers at set-up:
/// reachability, waypoint, loop-freedom and blackhole-freedom.
fn policy_set(edges: &[(u32, String)], aggrs: &[&String], rng: &mut StdRng) -> Vec<PolicySpec> {
    let n = edges.len();
    let pick = |rng: &mut StdRng| edges[rng.gen_range(0..n)].clone();
    let mut out = Vec::new();
    for _ in 0..n.min(32) {
        let (_, src) = pick(rng);
        let (dst_idx, dst) = pick(rng);
        out.push(PolicySpec::Reach { src, dst, dst_idx });
    }
    for _ in 0..8 {
        let (_, src) = pick(rng);
        let (dst_idx, dst) = pick(rng);
        let via = aggrs[rng.gen_range(0..aggrs.len())].clone();
        out.push(PolicySpec::Waypoint {
            src,
            dst,
            via,
            dst_idx,
        });
    }
    for _ in 0..8 {
        out.push(PolicySpec::LoopFree {
            dst_idx: pick(rng).0,
        });
    }
    for _ in 0..8 {
        let (_, src) = pick(rng);
        out.push(PolicySpec::BlackholeFree {
            src,
            dst_idx: pick(rng).0,
        });
    }
    out
}

/// Links moved off their default value at most at once.
const MAX_MOVED: usize = 8;

/// Seeded set-type edits (OSPF cost or local-pref) on link endpoints
/// that keep the network near its generated state: each edit either
/// moves a link off the default value or returns a moved link to it,
/// with at most [`MAX_MOVED`] links moved at once (the value analogue
/// of `stream::uniform_churn`). Every edit is checked against a shadow
/// copy of the configurations so that it really changes them.
struct Edits {
    rng: StdRng,
    ports: Vec<(String, String)>,
    shadow: BTreeMap<String, DeviceConfig>,
    moved: Vec<usize>,
    default: u32,
    values: std::ops::Range<u32>,
    make: fn(&str, &str, u32) -> ChangeSet,
}

impl Edits {
    fn new(
        w: &Workload,
        seed: u64,
        default: u32,
        values: std::ops::Range<u32>,
        make: fn(&str, &str, u32) -> ChangeSet,
    ) -> Edits {
        Edits {
            rng: StdRng::seed_from_u64(seed ^ 0xED17),
            // One endpoint per physical link: distinct ports are
            // distinct links.
            ports: w.sample_ports(w.topo.num_links(), seed),
            shadow: w.configs.clone(),
            moved: Vec::new(),
            default,
            values,
            make,
        }
    }

    /// `n` edits on `n` distinct links (`n` at most [`MAX_MOVED`]).
    fn next_window(&mut self, n: usize) -> Result<Vec<ChangeSet>, String> {
        let mut used: Vec<usize> = Vec::new();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let restore =
                !self.moved.is_empty() && (self.moved.len() >= MAX_MOVED || self.rng.gen_bool(0.5));
            let (idx, value) = if restore {
                (
                    self.moved[self.rng.gen_range(0..self.moved.len())],
                    self.default,
                )
            } else {
                (
                    self.rng.gen_range(0..self.ports.len()),
                    self.rng.gen_range(self.values.clone()),
                )
            };
            if used.contains(&idx) || (!restore && self.moved.contains(&idx)) {
                continue;
            }
            let (dev, iface) = &self.ports[idx];
            let cs = (self.make)(dev, iface, value);
            let before = self.shadow[dev].clone();
            cs.apply(&mut self.shadow).map_err(|e| e.to_string())?;
            if self.shadow[dev] == before {
                return Err(format!("edit {cs:?} does not change the configurations"));
            }
            if restore {
                self.moved.retain(|&m| m != idx);
            } else {
                self.moved.push(idx);
            }
            used.push(idx);
            out.push(cs);
        }
        Ok(out)
    }
}

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
