//! The benchmark's four workloads. Each is the traffic of one paper figure
//! or repository experiment, rebuilt from the public experiment API with
//! the benchmark seed in place of the figure's seed, so `--seed <figure
//! seed>` over the figure's span reproduces the figure's own run.

use aequitas::{AequitasConfig, SloTarget};
use aequitas_experiments::harness::{MacroSetup, PolicyChoice};
use aequitas_experiments::{large, slo};
use aequitas_netsim::{EngineConfig, LinkSpec, ShardSpec, Topology};
use aequitas_rpc::{ArrivalProcess, Priority, PrioritySpec, TrafficPattern, WorkloadSpec};
use aequitas_sim_core::{BitRate, SimDuration};
use aequitas_workloads::{QosMapping, SizeDist};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Star33Burst,
    IncastOverload,
    ClosFleet,
    TraceAudit,
}

/// The simulated span of one repetition and the warm-up cut inside it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub duration: SimDuration,
    pub warmup: SimDuration,
}

/// A figure run a workload must reproduce (`--fidelity`).
#[derive(Debug, Clone, Copy)]
pub struct Fidelity {
    pub seed: u64,
    pub span: Span,
}

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    kind: Kind,
    /// The span every timed repetition simulates.
    pub span: Span,
    /// The figure's own seed and span.
    pub fidelity: Fidelity,
    /// Worker threads of the sharded engine; 1 for single-engine workloads.
    pub threads: usize,
    /// Independent seeds whose median the `sim.*` metrics report: more
    /// where one run's QoSh tail rests on few samples.
    pub sim_seeds: u64,
}

const fn span(duration_us: u64, warmup_us: u64) -> Span {
    Span {
        duration: SimDuration::from_us(duration_us),
        warmup: SimDuration::from_us(warmup_us),
    }
}

/// Fig. 11's 15 us sweep point runs for `40 + 100 * (15 / 8)` ms.
const FIG11_15US_SPAN: Span = span(227_500, 113_750);

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "star33-burst",
        why: "Fig. 12 w/ Aequitas: 33-host star, on/off bursts; engine and qdisc bound, bounded backlogs",
        kind: Kind::Star33Burst,
        span: span(16_000, 10_000),
        fidelity: Fidelity {
            seed: 1002,
            span: span(44_000, 26_000),
        },
        threads: 1,
        sim_seeds: 3,
    },
    Workload {
        name: "incast-overload",
        why: "Fig. 11 15 us point: two line-rate senders into one host; sender backlog grows, host stack bound",
        kind: Kind::IncastOverload,
        span: span(100_000, 50_000),
        fidelity: Fidelity {
            seed: 57,
            span: FIG11_15US_SPAN,
        },
        threads: 1,
        sim_seeds: 1,
    },
    Workload {
        name: "clos-fleet",
        why: "fleet-scale quick Clos on the sharded engine at 2 threads; multi-hop forwarding and shard sync",
        kind: Kind::ClosFleet,
        span: span(2_000, 500),
        fidelity: Fidelity {
            seed: 6001,
            span: span(2_000, 500),
        },
        threads: 2,
        sim_seeds: 9,
    },
    Workload {
        name: "trace-audit",
        why: "trace-demo (full-scale span) with its JSONL trace on, then reconstructed and audited; telemetry emit and replay read",
        kind: Kind::TraceAudit,
        span: span(12_000, 4_000),
        fidelity: Fidelity {
            seed: 42,
            span: span(12_000, 4_000),
        },
        threads: 1,
        sim_seeds: 41,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The Fig. 11 channel: line-rate 32 KB WRITEs, 70% performance-critical.
fn incast_channel(load: f64) -> WorkloadSpec {
    WorkloadSpec {
        arrival: ArrivalProcess::Uniform { load },
        pattern: TrafficPattern::ManyToOne { dst: 2 },
        classes: vec![
            PrioritySpec {
                priority: Priority::PerformanceCritical,
                byte_share: 0.7,
                sizes: SizeDist::Fixed(32_768),
            },
            PrioritySpec {
                priority: Priority::BestEffort,
                byte_share: 0.3,
                sizes: SizeDist::Fixed(32_768),
            },
        ],
        stop: None,
    }
}

/// The fleet-scale all-to-all: Poisson 8 KB RPCs in a 0.6/0.3/0.1 mix.
fn fleet_host(load: f64) -> WorkloadSpec {
    let class = |priority, byte_share| PrioritySpec {
        priority,
        byte_share,
        sizes: SizeDist::Fixed(8_192),
    };
    WorkloadSpec {
        arrival: ArrivalProcess::Poisson { load },
        pattern: TrafficPattern::AllToAll,
        classes: vec![
            class(Priority::PerformanceCritical, 0.6),
            class(Priority::NonCritical, 0.3),
            class(Priority::BestEffort, 0.1),
        ],
        stop: None,
    }
}

/// The 3-host, 2-QoS star shared by Fig. 11 and trace-demo.
fn two_qos_incast(slo_us: u64, load: f64) -> MacroSetup {
    let mut setup = MacroSetup::star_3qos(3);
    setup.engine = EngineConfig::default_2qos();
    setup.mapping = QosMapping::two_level();
    setup.policy = PolicyChoice::Aequitas(AequitasConfig::two_qos(SloTarget::absolute(
        SimDuration::from_us(slo_us),
        8,
        99.9,
    )));
    for h in 0..2 {
        setup.workloads[h] = Some(incast_channel(load));
    }
    setup
}

impl Workload {
    /// Whether the workload writes a JSONL trace and audits it.
    pub fn traces(&self) -> bool {
        self.kind == Kind::TraceAudit
    }

    /// The `k`-th of the workload's `sim_seeds` seeds; the 0th is `seed`.
    pub fn sim_seed(&self, seed: u64, k: u64) -> u64 {
        seed ^ (k << 32)
    }

    /// Build the experiment setup for `seed` over `span`, plus the shard
    /// partition for sharded workloads.
    pub fn setup(&self, seed: u64, span: Span) -> (MacroSetup, Option<ShardSpec>) {
        let (mut setup, shards) = match self.kind {
            Kind::Star33Burst => {
                let mut s = MacroSetup::star_3qos(33);
                s.policy = PolicyChoice::Aequitas(slo::slo_config_33());
                for w in s.workloads.iter_mut() {
                    *w = Some(slo::node33_workload([0.6, 0.3, 0.1], None));
                }
                (s, None)
            }
            Kind::IncastOverload => (two_qos_incast(15, 1.0), None),
            Kind::ClosFleet => {
                // The fleet-scale quick shape: 2 pods x (2 spines, 2 leaves
                // x 8 hosts), 2 cores, 2 us core links.
                let core = LinkSpec {
                    rate: BitRate::from_gbps(100),
                    propagation: SimDuration::from_us(2),
                };
                let (pods, spines, leaves) = (2, 2, 2);
                let topo = Topology::clos(
                    pods,
                    spines,
                    leaves,
                    8,
                    2,
                    LinkSpec::default_100g(),
                    LinkSpec::default_100g(),
                    core,
                );
                let spec = ShardSpec::clos_pods(&topo, pods, spines, leaves);
                let mut s = MacroSetup::star_3qos(topo.num_hosts());
                s.topo = topo;
                s.policy = PolicyChoice::Aequitas(large::production_slo_config());
                for w in s.workloads.iter_mut() {
                    *w = Some(fleet_host(0.2));
                }
                (s, Some(spec))
            }
            Kind::TraceAudit => {
                let mut s = two_qos_incast(15, 0.8);
                s.name = "trace-demo";
                (s, None)
            }
        };
        setup.seed = seed;
        setup.duration = span.duration;
        setup.warmup = span.warmup;
        (setup, shards)
    }
}

/// The admission config a setup's hosts run (every workload runs Aequitas).
pub fn aequitas_config(setup: &MacroSetup) -> AequitasConfig {
    match &setup.policy {
        PolicyChoice::Aequitas(cfg) | PolicyChoice::DropExcess(cfg) => cfg.clone(),
        PolicyChoice::Static => panic!("every benchmark workload runs Aequitas"),
    }
}
