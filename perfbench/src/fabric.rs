//! One handle over the single and sharded engines, and the timing wrapper
//! the traced run puts around every host agent.

use aequitas_netsim::{
    Engine, EngineConfig, HostAgent, HostCtx, HostId, Packet, PortStats, ShardedEngine, SwitchId,
    Topology,
};
use aequitas_rpc::{Policy, RpcStack, WorkloadHost};
use aequitas_sim_core::{BitRate, SimTime};
use aequitas_transport::TransportConfig;
use aequitas_workloads::QosMapping;
use criterion::time_once;
use std::time::Duration;

/// A host agent the benchmark can read back.
pub trait Host: HostAgent + Send {
    fn workload(&self) -> &WorkloadHost;
    fn workload_mut(&mut self) -> &mut WorkloadHost;
    /// `(callbacks, timer callbacks, host ns spent in them)`; zero when
    /// the agent is not timed.
    fn busy(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }
}

impl Host for WorkloadHost {
    fn workload(&self) -> &WorkloadHost {
        self
    }
    fn workload_mut(&mut self) -> &mut WorkloadHost {
        self
    }
}

/// Times each call into the host stack (`on_start`, `on_packet`,
/// `on_timer`): the child spans of an engine slice. The wrapped agent sees
/// exactly the calls it would see unwrapped.
pub struct Timed {
    inner: WorkloadHost,
    callbacks: u64,
    timer_callbacks: u64,
    busy_ns: u64,
}

impl Timed {
    fn span(&mut self, (took, ()): (Duration, ())) {
        self.callbacks += 1;
        self.busy_ns += took.as_nanos() as u64;
    }
}

impl HostAgent for Timed {
    fn on_start(&mut self, ctx: &mut HostCtx) {
        let took = time_once(|| self.inner.on_start(ctx));
        self.span(took);
    }

    fn on_packet(&mut self, ctx: &mut HostCtx, pkt: Packet) {
        let took = time_once(|| self.inner.on_packet(ctx, pkt));
        self.span(took);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        let took = time_once(|| self.inner.on_timer(ctx, token));
        self.span(took);
        self.timer_callbacks += 1;
    }
}

impl Host for Timed {
    fn workload(&self) -> &WorkloadHost {
        &self.inner
    }
    fn workload_mut(&mut self) -> &mut WorkloadHost {
        &mut self.inner
    }
    fn busy(&self) -> (u64, u64, u64) {
        (self.callbacks, self.timer_callbacks, self.busy_ns)
    }
}

/// A single engine, or a sharded one.
pub enum Fabric<A: HostAgent> {
    Single(Box<Engine<A>>),
    Sharded(ShardedEngine<A>),
}

impl<A: Host> Fabric<A> {
    pub fn run_until(&mut self, t: SimTime) {
        match self {
            Fabric::Single(e) => e.run_until(t),
            Fabric::Sharded(e) => e.run_until(t),
        }
    }

    pub fn topology(&self) -> &Topology {
        match self {
            Fabric::Single(e) => e.topology(),
            Fabric::Sharded(e) => e.domain(0).topology(),
        }
    }

    pub fn hosts(&self) -> usize {
        self.topology().num_hosts()
    }

    pub fn host(&self, h: usize) -> &A {
        match self {
            Fabric::Single(e) => &e.agents()[h],
            Fabric::Sharded(e) => e.agent(HostId(h)),
        }
    }

    pub fn host_mut(&mut self, h: usize) -> &mut A {
        match self {
            Fabric::Single(e) => &mut e.agents_mut()[h],
            Fabric::Sharded(e) => e.agent_mut(HostId(h)),
        }
    }

    pub fn events(&self) -> u64 {
        match self {
            Fabric::Single(e) => e.events_processed(),
            Fabric::Sharded(e) => e.events_processed(),
        }
    }

    pub fn switch_port_stats(&self, sw: usize, port: usize) -> &PortStats {
        match self {
            Fabric::Single(e) => e.switch_port_stats(SwitchId(sw), port),
            Fabric::Sharded(e) => e.switch_port_stats(SwitchId(sw), port),
        }
    }

    /// Every egress port's counters: switch ports, then host NICs.
    pub fn port_stats(&self) -> Vec<&PortStats> {
        let topo = self.topology();
        let mut out = Vec::new();
        for (sw, ports) in topo.switch_ports.iter().enumerate() {
            for p in 0..ports.len() {
                out.push(self.switch_port_stats(sw, p));
            }
        }
        for h in 0..topo.num_hosts() {
            out.push(match self {
                Fabric::Single(e) => e.host_nic_stats(HostId(h)),
                Fabric::Sharded(e) => e.host_nic_stats(HostId(h)),
            });
        }
        out
    }
}

/// An inert agent left behind when [`wrap`] moves the real one out.
fn placeholder(host: usize, hosts: usize) -> WorkloadHost {
    let stack = RpcStack::new(
        HostId(host),
        QosMapping::two_level(),
        Policy::Static,
        TransportConfig::default(),
    );
    WorkloadHost::new(stack, None, hosts, BitRate::from_gbps(100), 0)
}

/// Move the harness-built agents of an unstarted fabric into timing
/// wrappers and rebuild the fabric around them. The agents keep the seeds,
/// policies and telemetry the harness gave them, so the wrapped run must
/// produce the same completions as the plain one.
pub fn wrap(fabric: Fabric<WorkloadHost>, config: EngineConfig, threads: usize) -> Fabric<Timed> {
    let hosts = fabric.hosts();
    let topo = fabric.topology().clone();
    let take = |a: &mut WorkloadHost, h: usize| Timed {
        inner: std::mem::replace(a, placeholder(h, hosts)),
        callbacks: 0,
        timer_callbacks: 0,
        busy_ns: 0,
    };
    match fabric {
        Fabric::Single(mut e) => {
            let telemetry = e.telemetry().clone();
            let agents = (0..hosts)
                .map(|h| take(&mut e.agents_mut()[h], h))
                .collect();
            let mut wrapped = Engine::new(topo, agents, config);
            if telemetry.is_enabled() {
                wrapped.set_telemetry(telemetry);
            }
            Fabric::Single(Box::new(wrapped))
        }
        Fabric::Sharded(mut e) => {
            let spec = e.spec().clone();
            let agents = (0..hosts)
                .map(|h| take(e.agent_mut(HostId(h)), h))
                .collect();
            Fabric::Sharded(ShardedEngine::new(topo, agents, config, spec, threads))
        }
    }
}
