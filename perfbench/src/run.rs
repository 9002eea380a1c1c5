//! One repetition of a workload: build the fabric, simulate the span in
//! fixed 100 us slices of `run_until`, harvest and digest the completions.

use crate::fabric::{wrap, Fabric, Host};
use crate::workload::{Span, Workload};
use aequitas::AequitasConfig;
use aequitas_experiments::harness;
use aequitas_experiments::slo::p999_rnl_us;
use aequitas_netsim::{FlowKey, HostId, NodeRef};
use aequitas_replay::audit::audit;
use aequitas_replay::{AuditOptions, CheckStatus, Reconstruction};
use aequitas_rpc::{RpcCompletion, WorkloadHost};
use aequitas_sim_core::{SimDuration, SimTime};
use aequitas_telemetry::{Telemetry, TelemetryConfig};
use aequitas_workloads::{size_in_mtus, QosClass};
use criterion::time_once;
use std::hint::black_box;
use std::path::Path;

/// Simulated time per `run_until` slice, as in `benches/micro.rs`.
pub const SLICE: SimDuration = SimDuration::from_us(100);

/// How to run one repetition.
#[derive(Clone, Copy)]
pub struct RepOpts<'a> {
    pub seed: u64,
    pub span: Span,
    pub threads: usize,
    /// Wrap every host agent in a timing span (the traced run).
    pub timed: bool,
    /// Write the workload's JSONL trace here, then read it back and audit it.
    pub trace: Option<&'a Path>,
}

/// What the simulation produced, reduced to what the checks and the
/// `sim.*` metrics need.
pub struct Outcome {
    /// FNV-1a digest of every completion, sorted by (src, rpc id).
    pub digest: u64,
    pub issued: u64,
    pub completed: u64,
    pub failed: u64,
    pub dropped: u64,
    pub outstanding: u64,
    pub qosh_p999_us: Option<f64>,
    pub goodput_gbps: f64,
    /// Every completion, warm-up included, sorted by (src, rpc id).
    pub completions: Vec<RpcCompletion>,
}

impl Outcome {
    /// RPC conservation: every issued RPC completed, failed, was dropped by
    /// admission, or is still outstanding.
    pub fn conserved(&self) -> bool {
        self.issued == self.completed + self.failed + self.dropped + self.outstanding
    }
}

/// Deterministic per-layer counters read from public getters at run end.
#[derive(Default)]
pub struct Counts {
    pub events: u64,
    pub tx_packets: u64,
    pub drops: u64,
    pub max_backlog_bytes: u64,
    pub max_class_depth_pkts: u64,
    pub sent_segments: u64,
    pub retransmits: u64,
    pub admission_issued: u64,
    pub admission_downgraded: u64,
    /// Events per shard domain (empty for a single engine).
    pub domain_events: Vec<u64>,
    /// Packets sent on switch ports whose peer switch is in another domain.
    pub cross_domain_pkts: u64,
}

/// Host-callback spans of a traced repetition.
pub struct Timing {
    pub callbacks: u64,
    pub timer_callbacks: u64,
    pub callback_s: f64,
    /// ns per callback in the last tenth of slices over the first tenth.
    pub cost_growth: f64,
    /// Largest per-host `queued_messages()` seen at a slice end.
    pub queued_msgs_max: u64,
    /// Largest per-host `unacked_packets()` seen at a slice end.
    pub unacked_max: u64,
}

/// The trace written by a repetition, read back and audited.
pub struct Replay {
    pub flush_s: f64,
    pub read_s: f64,
    pub audit_s: f64,
    pub bytes: u64,
    pub lines: u64,
    pub fail_checks: u64,
    /// `rpc_complete` events the reconstruction saw.
    pub rpc_completes: u64,
    /// No parse errors and no sequence gaps.
    pub intact: bool,
    /// FNV-1a digest of the trace file's bytes.
    pub file_digest: u64,
    pub error: Option<String>,
}

pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub slice_s: Vec<f64>,
    pub replay: Option<Replay>,
    pub out: Outcome,
    pub counts: Counts,
    pub timing: Option<Timing>,
}

impl Rep {
    /// Share of `wall_s` covered by the setup, slice and replay spans.
    pub fn coverage(&self) -> f64 {
        let replay = self
            .replay
            .as_ref()
            .map_or(0.0, |r| r.flush_s + r.read_s + r.audit_s);
        (self.setup_s + self.slice_s.iter().sum::<f64>() + replay) / self.wall_s
    }
}

fn build(wl: &Workload, o: &RepOpts) -> (Fabric<WorkloadHost>, aequitas_netsim::EngineConfig) {
    let (mut setup, shards) = wl.setup(o.seed, o.span);
    let config = setup.engine.clone();
    if let Some(path) = o.trace {
        let cfg = TelemetryConfig {
            sample_every: SLICE,
        };
        setup.telemetry = Telemetry::to_file(path, cfg)
            .unwrap_or_else(|e| panic!("cannot create trace {}: {e}", path.display()));
    }
    let fabric = match shards {
        None => Fabric::Single(Box::new(harness::build_engine(setup))),
        Some(spec) => Fabric::Sharded(harness::build_sharded_engine(setup, spec, o.threads)),
    };
    (fabric, config)
}

/// Host seconds to build the workload's fabric, without running it.
pub fn setup_only(wl: &Workload, o: &RepOpts) -> f64 {
    let (took, built) = time_once(|| build(wl, o));
    drop(built);
    took.as_secs_f64()
}

/// Run one repetition.
pub fn rep(wl: &Workload, o: &RepOpts) -> Rep {
    if o.timed {
        drive(o, || {
            let (fabric, config) = build(wl, o);
            wrap(fabric, config, o.threads)
        })
    } else {
        drive(o, || build(wl, o).0)
    }
}

fn drive<A: Host>(o: &RepOpts, build: impl FnOnce() -> Fabric<A>) -> Rep {
    let mut probe = o.timed.then(SliceProbe::default);
    let (wall, (setup, fabric, slice_s, mut replay, harvested)) = time_once(|| {
        let (setup, mut fabric) = time_once(build);
        let tel = match &fabric {
            Fabric::Single(e) => e.telemetry().clone(),
            Fabric::Sharded(_) => Telemetry::disabled(),
        };
        let end = SimTime::ZERO + o.span.duration;
        let mut slice_s = Vec::with_capacity(o.span.duration.div_duration(SLICE) as usize + 1);
        let mut t = SimTime::ZERO;
        while t < end {
            t = (t + SLICE).min(end);
            let (took, ()) = time_once(|| {
                fabric.run_until(t);
                if tel.is_enabled() {
                    sample_telemetry(&fabric, &tel, t);
                }
            });
            slice_s.push(took.as_secs_f64());
            if let Some(p) = probe.as_mut() {
                p.observe(&fabric);
            }
        }
        let replay = o.trace.map(|path| replay(&tel, path));
        let harvested = harvest(&mut fabric);
        (setup, fabric, slice_s, replay, harvested)
    });

    if let (Some(r), Some(path)) = (replay.as_mut(), o.trace) {
        r.file_digest = std::fs::read(path).map_or(0, |b| fnv(FNV_OFFSET, &b));
    }
    let timing = probe.map(|p| p.finish(&fabric));
    let counts = counts(&fabric);
    Rep {
        setup_s: setup.as_secs_f64(),
        wall_s: wall.as_secs_f64(),
        slice_s,
        replay,
        out: outcome(harvested, o.span),
        counts,
        timing,
    }
}

/// The harness's telemetry tick: engine and stack gauges, then a snapshot.
fn sample_telemetry<A: Host>(fabric: &Fabric<A>, tel: &Telemetry, now: SimTime) {
    if let Fabric::Single(e) = fabric {
        e.sample_metrics();
    }
    for h in 0..fabric.hosts() {
        fabric.host(h).workload().stack().sample_metrics();
    }
    tel.sample(now);
}

fn replay(tel: &Telemetry, path: &Path) -> Replay {
    let (flush, ()) = time_once(|| tel.flush());
    let (read, recon) = time_once(|| Reconstruction::from_file(path));
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    let mut r = Replay {
        flush_s: flush.as_secs_f64(),
        read_s: read.as_secs_f64(),
        audit_s: 0.0,
        bytes,
        lines: 0,
        fail_checks: 0,
        rpc_completes: 0,
        intact: false,
        file_digest: 0,
        error: None,
    };
    match recon {
        Ok(mut recon) => {
            let (took, report) = time_once(|| audit(&mut recon, &AuditOptions::default()));
            r.audit_s = took.as_secs_f64();
            r.lines = recon.events;
            r.fail_checks = report
                .checks
                .iter()
                .filter(|c| c.status == CheckStatus::Fail)
                .count() as u64;
            r.rpc_completes = recon.kind_counts.get("rpc_complete").copied().unwrap_or(0);
            r.intact = recon.integrity.parse_errors == 0 && recon.integrity.seq_gaps == 0;
        }
        Err(e) => r.error = Some(e),
    }
    r
}

struct Harvest {
    issued: u64,
    failed: u64,
    dropped: u64,
    outstanding: u64,
    completions: Vec<RpcCompletion>,
}

fn harvest<A: Host>(fabric: &mut Fabric<A>) -> Harvest {
    let mut h = Harvest {
        issued: 0,
        failed: 0,
        dropped: 0,
        outstanding: 0,
        completions: Vec::new(),
    };
    for host in 0..fabric.hosts() {
        let w = fabric.host_mut(host).workload_mut();
        h.issued += w.issued();
        h.completions.extend(w.take_completions());
        let stack = w.stack_mut();
        h.completions.extend(stack.take_completions());
        h.failed += stack.take_rpc_failures().len() as u64;
        h.dropped += stack.dropped().0;
        h.outstanding += stack.outstanding() as u64;
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn digest(completions: &[RpcCompletion]) -> u64 {
    let mut h = FNV_OFFSET;
    for c in completions {
        for v in [
            c.rpc_id,
            c.src.0 as u64,
            c.dst.0 as u64,
            c.priority as u64,
            c.qos_requested.0 as u64,
            c.qos_run.0 as u64,
            c.downgraded as u64,
            c.size_bytes,
            c.issued_at.as_ps(),
            c.completed_at.as_ps(),
            c.attempts as u64,
        ] {
            h = fnv(h, &v.to_le_bytes());
        }
    }
    h
}

fn outcome(mut h: Harvest, span: Span) -> Outcome {
    h.completions.sort_by_key(|c| (c.src.0, c.rpc_id));
    let warm = SimTime::ZERO + span.warmup;
    // The figures' population: RPCs issued after warm-up.
    let measured: Vec<RpcCompletion> = h
        .completions
        .iter()
        .filter(|c| c.issued_at >= warm)
        .copied()
        .collect();
    let window = span.duration.saturating_sub(span.warmup).as_secs_f64();
    let bytes: u64 = h
        .completions
        .iter()
        .filter(|c| c.completed_at >= warm)
        .map(|c| c.size_bytes)
        .sum();
    Outcome {
        digest: digest(&h.completions),
        issued: h.issued,
        completed: h.completions.len() as u64,
        failed: h.failed,
        dropped: h.dropped,
        outstanding: h.outstanding,
        qosh_p999_us: p999_rnl_us(&measured, QosClass::HIGH),
        goodput_gbps: bytes as f64 * 8.0 / window / 1e9,
        completions: h.completions,
    }
}

fn counts<A: Host>(fabric: &Fabric<A>) -> Counts {
    let mut c = Counts {
        events: fabric.events(),
        ..Counts::default()
    };
    let ports = fabric.port_stats();
    let classes = ports.first().map_or(0, |p| p.tx_packets.len());
    for p in &ports {
        c.tx_packets += p.tx_packets.iter().sum::<u64>();
        c.drops += p.total_drops();
        c.max_backlog_bytes = c.max_backlog_bytes.max(p.max_backlog_bytes);
        let depth = p.max_class_depth_pkts.iter().copied().max().unwrap_or(0);
        c.max_class_depth_pkts = c.max_class_depth_pkts.max(depth);
    }
    let hosts = fabric.hosts();
    for h in 0..hosts {
        let stack = fabric.host(h).workload().stack();
        let transport = stack.transport();
        for dst in 0..hosts {
            for class in 0..classes as u8 {
                let flow = FlowKey {
                    src: HostId(h),
                    dst: HostId(dst),
                    class,
                };
                if let Some(s) = transport.connection_stats(&flow) {
                    c.sent_segments += s.sent_segments;
                    c.retransmits += s.retransmits;
                }
            }
        }
        if let Some((issued, downgraded)) = stack.admission_counters() {
            c.admission_issued += issued;
            c.admission_downgraded += downgraded;
        }
    }
    if let Fabric::Sharded(e) = fabric {
        let spec = e.spec();
        c.domain_events = (0..e.num_domains())
            .map(|d| e.domain(d).events_processed())
            .collect();
        for (sw, ports) in fabric.topology().switch_ports.iter().enumerate() {
            for (p, port) in ports.iter().enumerate() {
                if let NodeRef::Switch(peer) = port.peer {
                    if spec.domain_of_switch[peer.0] != spec.domain_of_switch[sw] {
                        c.cross_domain_pkts += fabric
                            .switch_port_stats(sw, p)
                            .tx_packets
                            .iter()
                            .sum::<u64>();
                    }
                }
            }
        }
    }
    c
}

/// Per-slice readings of the traced run, taken between slices.
#[derive(Default)]
struct SliceProbe {
    last: (u64, u64),
    /// (callbacks, ns) in each slice.
    per_slice: Vec<(u64, u64)>,
    queued_msgs_max: u64,
    unacked_max: u64,
}

impl SliceProbe {
    fn observe<A: Host>(&mut self, fabric: &Fabric<A>) {
        let (mut calls, mut ns) = (0, 0);
        for h in 0..fabric.hosts() {
            let host = fabric.host(h);
            let (c, _, n) = host.busy();
            calls += c;
            ns += n;
            let transport = host.workload().stack().transport();
            self.queued_msgs_max = self.queued_msgs_max.max(transport.queued_messages() as u64);
            self.unacked_max = self.unacked_max.max(transport.unacked_packets() as u64);
        }
        self.per_slice.push((calls - self.last.0, ns - self.last.1));
        self.last = (calls, ns);
    }

    fn finish<A: Host>(self, fabric: &Fabric<A>) -> Timing {
        let (mut callbacks, mut timer_callbacks, mut ns) = (0, 0, 0);
        for h in 0..fabric.hosts() {
            let (c, t, n) = fabric.host(h).busy();
            callbacks += c;
            timer_callbacks += t;
            ns += n;
        }
        let tenth = (self.per_slice.len() / 10).max(1);
        let cost = |slices: &[(u64, u64)]| {
            let (c, n) = slices
                .iter()
                .fold((0, 0), |(c, n), &(dc, dn)| (c + dc, n + dn));
            n as f64 / c.max(1) as f64
        };
        let first = cost(&self.per_slice[..tenth]);
        let last = cost(&self.per_slice[self.per_slice.len() - tenth..]);
        Timing {
            callbacks,
            timer_callbacks,
            callback_s: ns as f64 / 1e9,
            cost_growth: if first > 0.0 { last / first } else { 0.0 },
            queued_msgs_max: self.queued_msgs_max,
            unacked_max: self.unacked_max,
        }
    }
}

/// Replay the run's issue/completion stream into fresh admission
/// controllers, one per sending host, and time only the controller calls.
/// Returns `(calls, ns per call)`.
pub fn core_replay(completions: &[RpcCompletion], config: &AequitasConfig) -> (u64, f64) {
    let hosts = completions.iter().map(|c| c.src.0 + 1).max().unwrap_or(0);
    // (t_ps, is_completion, completion index), per sending host.
    let mut streams: Vec<Vec<(u64, bool, usize)>> = vec![Vec::new(); hosts];
    for (i, c) in completions.iter().enumerate() {
        streams[c.src.0].push((c.issued_at.as_ps(), false, i));
        streams[c.src.0].push((c.completed_at.as_ps(), true, i));
    }
    for s in streams.iter_mut() {
        s.sort_unstable();
    }
    let calls = 2 * completions.len() as u64;
    let (took, ()) = time_once(|| {
        for (src, stream) in streams.iter().enumerate() {
            let mut ctl = aequitas::AdmissionController::new(config.clone(), src as u64);
            for &(t_ps, done, i) in stream {
                let c = &completions[i];
                let now = SimTime::from_ps(t_ps);
                let mtus = size_in_mtus(c.size_bytes);
                if done {
                    ctl.on_completion(now, c.dst.0, c.qos_run.0, mtus, c.rnl());
                } else {
                    black_box(ctl.on_issue(now, c.dst.0, c.qos_requested.0, mtus));
                }
            }
            black_box(&ctl);
        }
    });
    (calls, took.as_nanos() as f64 / calls.max(1) as f64)
}
