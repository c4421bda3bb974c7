//! The trace-replay simulation engine.
//!
//! Replays a workload trace through a [`SystemConfig`]: every access goes to
//! its serving memory module's behavioural model, element transfers move
//! over the connectivity link carrying the CPU↔module channel, and misses
//! additionally pay a DRAM transaction over the module↔DRAM channel. Reads
//! block the CPU (their latency feeds the average-memory-latency metric and
//! delays subsequent accesses); writes are posted but still occupy links and
//! energy. Link contention — the paper's "bus multiplexing, or bus
//! conflicts" — emerges from the reservation tables and arbiters in
//! `mce-connlib`.

use crate::stats::{ChannelStats, DsLatencyStats, ModuleStats, SimStats};
use crate::system::SystemConfig;
use crate::tape::{ModuleTape, TapeReader};
use mce_appmodel::{DsId, MemAccess, Workload};
use mce_connlib::{ChannelId, LinkId, LinkState, TransferCost};
use mce_memlib::energy::{dram_transaction_nj, module_access_nj, CPU_INTERFACE_NJ};
use mce_memlib::{DramState, ModuleId, ModuleModel};
use mce_obs as obs;

/// Backpressure bound: posted (non-blocking) traffic may run at most this
/// many cycles ahead of the CPU on any link. When a link's backlog exceeds
/// the bound, the CPU stalls until it drains — modelling the finite write/
/// prefetch buffering of real systems. This also keeps the reservation
/// tables bounded, so heavily oversubscribed design points (which the paper
/// likewise observed as "designs exhibiting very bad performance") simulate
/// in linear time instead of degenerating.
pub const BACKPRESSURE_CYCLES: u64 = 256;

/// Where a transfer goes: the link carrying its channel and the channel's
/// master index on that link (for arbitration).
#[derive(Debug, Clone, Copy)]
struct Route {
    link: usize,
    master: usize,
}

/// A module's downstream route and per-access energy, resolved once per
/// candidate.
#[derive(Debug, Clone, Copy)]
struct ModulePlan {
    /// Module↔backing or module↔DRAM route (None for scratchpads and the
    /// DRAM).
    downstream: Option<Route>,
    /// Next-level cache, for backed modules.
    backing: Option<ModuleId>,
    access_nj: f64,
}

/// Everything an access to one data structure needs, resolved once per
/// candidate: [`Simulator::step`] reads one of these and no other table to
/// find its module, element size and CPU-side link.
#[derive(Debug, Clone, Copy)]
struct DsPlan {
    /// Index of the serving module (the DRAM's for off-chip data).
    module: usize,
    /// False when the data structure is mapped directly to the DRAM.
    on_chip: bool,
    elem_bytes: u64,
    /// The CPU↔module route, or CPU↔DRAM for off-chip data.
    cpu: Route,
    /// One element's cost on the `cpu` route's link.
    cpu_cost: TransferCost,
    /// The serving module's access energy (unused off-chip).
    access_nj: f64,
}

/// Mutable state of one simulation run. Create with [`Simulator::new`],
/// feed accesses in trace order with [`Simulator::step`], and read the
/// result from [`Simulator::finish`].
///
/// `new` compiles the system into flat per-module and per-data-structure
/// plans, so `step` does no endpoint search, no per-link scan and — for
/// the built-in components, whose widths are powers of two — no integer
/// division.
#[derive(Debug)]
pub struct Simulator<'a> {
    sys: &'a SystemConfig,
    workload: &'a Workload,
    /// Behavioural state per module (None for the DRAM slot — the DRAM is
    /// modelled by `dram` below so row state is shared by all requesters —
    /// and for modules whose responses come from `tape`).
    modules: Vec<Option<Box<dyn ModuleModel>>>,
    /// Responses of the taped modules, in step order (empty when the run
    /// has no tape).
    tape: TapeReader<'a>,
    links: Vec<LinkState>,
    dram: DramState,
    module_plans: Vec<ModulePlan>,
    ds_plans: Vec<DsPlan>,
    /// Per-link monotonic ready floor, keeping reservation-table calls in
    /// nondecreasing order even when posted writes reorder ready times.
    link_floor: Vec<u64>,
    /// Completion cycle of the latest-finishing transfer on any link: the
    /// horizon posted traffic has reached, for backpressure.
    posted_horizon: u64,
    now: u64,
    prev_tick: u64,
    module_accesses: Vec<u64>,
    module_hits: Vec<u64>,
    ds_accesses: Vec<u64>,
    ds_latency: Vec<u64>,
    accesses: u64,
    reads: u64,
    hits: u64,
    total_latency: u64,
    energy_nj: f64,
    /// Observability tallies, kept as plain fields on the hot path and
    /// flushed to the `mce-obs` counters once, in [`Simulator::finish`].
    stall_events: u64,
    stall_cycles: u64,
    backlog_highwater: u64,
}

impl<'a> Simulator<'a> {
    /// Prepares a cold simulation of `sys` for `workload`.
    pub fn new(sys: &'a SystemConfig, workload: &'a Workload) -> Self {
        Self::with_tape(sys, workload, None)
    }

    /// A cold simulation whose taped modules answer from `tape` instead of
    /// live models. The caller steps exactly the accesses the tape was
    /// recorded over, in order.
    pub(crate) fn with_tape(
        sys: &'a SystemConfig,
        workload: &'a Workload,
        tape: Option<&'a ModuleTape>,
    ) -> Self {
        let mem = sys.mem();
        let dram_id = mem.dram_id();
        let modules = mem
            .modules()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let taped = tape.is_some_and(|t| t.is_taped(ModuleId::new(i)));
                (i != dram_id.index() && !taped).then(|| m.kind().instantiate())
            })
            .collect();
        let conn = sys.conn();
        let links: Vec<LinkState> = conn
            .links()
            .iter()
            .enumerate()
            .map(|(j, l)| LinkState::new(*l.component(), conn.ports(LinkId::new(j))))
            .collect();
        // Master index = position of the channel among its link's channels.
        let mut seen_per_link = vec![0usize; links.len()];
        let routes: Vec<Route> = (0..conn.channels().len())
            .map(|i| {
                let link = conn
                    .link_of(ChannelId::new(i))
                    .expect("validated system has full assignment")
                    .index();
                let master = seen_per_link[link];
                seen_per_link[link] += 1;
                Route { link, master }
            })
            .collect();
        let route = |ch: ChannelId| routes[ch.index()];
        let module_plans: Vec<ModulePlan> = mem
            .modules()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let id = ModuleId::new(i);
                ModulePlan {
                    downstream: sys.downstream_channel(id).map(route),
                    backing: mem.backing_of(id),
                    access_nj: module_access_nj(m.kind()),
                }
            })
            .collect();
        let ds_plans = workload
            .data_structures()
            .iter()
            .enumerate()
            .map(|(i, ds)| {
                let module = mem.serving_module(DsId::new(i));
                let on_chip = module != dram_id;
                let cpu = if on_chip {
                    sys.cpu_channel(module)
                        .expect("on-chip module has a CPU channel")
                } else {
                    sys.cpu_dram_channel()
                        .expect("direct mapping implies a CPU<->DRAM channel")
                };
                let cpu = route(cpu);
                let elem_bytes = ds.element_size();
                DsPlan {
                    module: module.index(),
                    on_chip,
                    elem_bytes,
                    cpu,
                    cpu_cost: links[cpu.link].cost(elem_bytes),
                    access_nj: module_plans[module.index()].access_nj,
                }
            })
            .collect();
        let n_links = links.len();
        let n_modules = mem.modules().len();
        Simulator {
            sys,
            workload,
            modules,
            tape: tape.map(ModuleTape::reader).unwrap_or_default(),
            links,
            dram: DramState::new(mem.dram_config()),
            module_plans,
            ds_plans,
            link_floor: vec![0; n_links],
            posted_horizon: 0,
            now: 0,
            prev_tick: 0,
            module_accesses: vec![0; n_modules],
            module_hits: vec![0; n_modules],
            ds_accesses: vec![0; workload.len()],
            ds_latency: vec![0; workload.len()],
            accesses: 0,
            reads: 0,
            hits: 0,
            total_latency: 0,
            energy_nj: 0.0,
            stall_events: 0,
            stall_cycles: 0,
            backlog_highwater: 0,
        }
    }

    /// Current simulated time in cycles.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedules `bytes` on `route`'s link, at the earliest nondecreasing
    /// time ≥ `ready`. Returns the completion cycle.
    fn link_transfer(&mut self, route: Route, ready: u64, bytes: u64) -> u64 {
        let cost = self.links[route.link].cost(bytes);
        self.link_transfer_at_cost(route, ready, bytes, cost)
    }

    /// [`Simulator::link_transfer`] with the cost of `bytes` on the link
    /// already resolved.
    fn link_transfer_at_cost(
        &mut self,
        route: Route,
        ready: u64,
        bytes: u64,
        cost: TransferCost,
    ) -> u64 {
        let floor = &mut self.link_floor[route.link];
        let ready = ready.max(*floor);
        *floor = ready;
        let complete = self.links[route.link]
            .transfer_at_cost(ready, bytes, cost, route.master)
            .complete;
        // A zero-byte transfer occupies nothing and moves no horizon.
        if bytes > 0 && complete > self.posted_horizon {
            self.posted_horizon = complete;
        }
        complete
    }

    /// Performs one DRAM transaction and accounts its energy. Returns the
    /// DRAM-internal cycles.
    fn dram_transaction(&mut self, addr: mce_appmodel::Addr, bytes: u64) -> u32 {
        let misses_before = self.dram.row_misses();
        let cycles = self.dram.access_cycles(addr, bytes);
        let row_miss = self.dram.row_misses() > misses_before;
        self.energy_nj += dram_transaction_nj(bytes, row_miss);
        cycles
    }

    /// Demand-fetches `bytes` into `module` from its downstream store —
    /// the next-level cache for backed modules (the multi-level extension),
    /// or the off-chip DRAM — recursing down the (validated acyclic)
    /// backing chain on nested misses. Returns the completion cycle.
    fn fetch_downstream(
        &mut self,
        module: ModuleId,
        addr: mce_appmodel::Addr,
        bytes: u64,
        ready: u64,
    ) -> u64 {
        let plan = self.module_plans[module.index()];
        let route = plan
            .downstream
            .expect("a missing module always has a downstream channel");
        match plan.backing {
            None => {
                let dram_cycles = self.dram_transaction(addr, bytes);
                let bus_done = self.link_transfer(route, ready, bytes);
                bus_done + dram_cycles as u64
            }
            Some(l2) => {
                self.energy_nj += self.module_plans[l2.index()].access_nj;
                let resp = self.modules[l2.index()]
                    .as_mut()
                    .expect("backing module has a behavioural model")
                    .access(addr, mce_appmodel::AccessKind::Read, ready);
                let link_done = self.link_transfer(route, ready, bytes);
                let mut done = link_done + resp.service_cycles as u64;
                if resp.demand_fill_bytes > 0 {
                    done = self.fetch_downstream(l2, addr, resp.demand_fill_bytes, done);
                }
                if resp.background_bytes > 0 {
                    self.background_downstream(l2, resp.background_bytes, done);
                }
                done
            }
        }
    }

    /// Schedules `module`'s posted (non-blocking) downstream traffic —
    /// prefetches and writebacks. Over an off-chip channel this is a DRAM
    /// transaction (energy included); over a module↔module channel the
    /// next-level cache absorbs it (its own evictions surface when it is
    /// accessed).
    fn background_downstream(&mut self, module: ModuleId, bytes: u64, ready: u64) {
        let plan = self.module_plans[module.index()];
        if let Some(route) = plan.downstream {
            let _ = self.link_transfer(route, ready, bytes);
            if plan.backing.is_none() {
                self.energy_nj += dram_transaction_nj(bytes, false);
            }
        }
    }

    /// Advances CPU time to the access's issue point (compute gap since the
    /// previous trace entry), without performing an access. Used by the
    /// time-sampling estimator for "off" periods.
    ///
    /// With nondecreasing ticks the gaps telescope, so skipping straight
    /// to the last access of a run of skipped accesses is the same as
    /// skipping each one in turn.
    pub fn skip(&mut self, acc: &MemAccess) {
        self.now += acc.tick.saturating_sub(self.prev_tick);
        self.prev_tick = acc.tick;
    }

    /// Simulates one access; returns its memory latency in cycles.
    pub fn step(&mut self, acc: &MemAccess) -> u64 {
        self.now += acc.tick.saturating_sub(self.prev_tick);
        self.prev_tick = acc.tick;
        let issue = self.now;

        let plan = self.ds_plans[acc.ds.index()];
        let elem = plan.elem_bytes;
        self.energy_nj += CPU_INTERFACE_NJ;

        let (done, on_chip) = if !plan.on_chip {
            // Direct CPU<->DRAM traffic over the off-chip bus.
            let bus_done = self.link_transfer_at_cost(plan.cpu, issue, elem, plan.cpu_cost);
            let dram_cycles = self.dram_transaction(acc.addr, elem);
            (bus_done + dram_cycles as u64, false)
        } else {
            self.energy_nj += plan.access_nj;
            let resp = match self.modules[plan.module].as_mut() {
                Some(model) => model.access(acc.addr, acc.kind, issue),
                None => self.tape.next_response(),
            };

            // CPU <-> module element transfer.
            let cpu_done = self.link_transfer_at_cost(plan.cpu, issue, elem, plan.cpu_cost);
            let served = cpu_done + resp.service_cycles as u64;

            let mut done = served;
            let serving = ModuleId::new(plan.module);
            if resp.demand_fill_bytes > 0 {
                done = self.fetch_downstream(serving, acc.addr, resp.demand_fill_bytes, served);
            }
            if resp.background_bytes > 0 {
                self.background_downstream(serving, resp.background_bytes, done);
            }
            (done, resp.hit)
        };

        let latency = done.saturating_sub(issue);
        self.ds_accesses[acc.ds.index()] += 1;
        self.ds_latency[acc.ds.index()] += latency;
        self.module_accesses[plan.module] += 1;
        if on_chip {
            self.module_hits[plan.module] += 1;
        }
        self.accesses += 1;
        if acc.kind.is_read() {
            self.reads += 1;
            // Reads block the CPU.
            self.now = done;
        } else {
            // Writes are posted, but finite buffering applies backpressure:
            // the CPU stalls once any link's backlog exceeds the bound.
            let horizon = self.posted_horizon;
            let backlog = horizon.saturating_sub(self.now);
            if backlog > self.backlog_highwater {
                self.backlog_highwater = backlog;
            }
            if horizon > self.now + BACKPRESSURE_CYCLES {
                self.stall_events += 1;
                self.stall_cycles += horizon - BACKPRESSURE_CYCLES - self.now;
                self.now = horizon - BACKPRESSURE_CYCLES;
            }
        }
        if on_chip {
            self.hits += 1;
        }
        self.total_latency += latency;
        latency
    }

    /// Finalizes the run and produces the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the run had a module tape and did not read all of it.
    pub fn finish(self) -> SimStats {
        assert!(
            self.tape.is_done(),
            "replay stepped fewer taped accesses than were recorded"
        );
        // Flush the run's observability tallies in one go (each call is a
        // no-op relaxed load when no sink is installed).
        obs::counter_add("sim.accesses_replayed", self.accesses);
        obs::counter_add("sim.backpressure_stalls", self.stall_events);
        obs::counter_add("sim.backpressure_stall_cycles", self.stall_cycles);
        obs::gauge_max("sim.posted_backlog_highwater", self.backlog_highwater);
        let conn = self.sys.conn();
        let link_energy: f64 = self.links.iter().map(LinkState::energy_nj).sum();
        let total_energy = self.energy_nj + link_energy;
        let links = self
            .links
            .iter()
            .enumerate()
            .map(|(j, l)| ChannelStats {
                name: conn.links()[j].name().to_owned(),
                transfers: l.transfers(),
                bytes: l.bytes(),
                busy_cycles: l.busy_cycles(),
            })
            .collect();
        let modules = self
            .sys
            .mem()
            .modules()
            .iter()
            .enumerate()
            .map(|(i, m)| ModuleStats {
                name: m.name().to_owned(),
                accesses: self.module_accesses[i],
                hits: self.module_hits[i],
            })
            .collect();
        let data_structures = self
            .workload
            .data_structures()
            .iter()
            .enumerate()
            .map(|(i, ds)| DsLatencyStats {
                name: ds.name().to_owned(),
                accesses: self.ds_accesses[i],
                total_latency: self.ds_latency[i],
            })
            .collect();
        SimStats {
            accesses: self.accesses,
            reads: self.reads,
            on_chip_hits: self.hits,
            avg_latency_cycles: if self.accesses == 0 {
                0.0
            } else {
                self.total_latency as f64 / self.accesses as f64
            },
            avg_energy_nj: if self.accesses == 0 {
                0.0
            } else {
                total_energy / self.accesses as f64
            },
            total_cycles: self.now,
            total_energy_nj: total_energy,
            links,
            modules,
            data_structures,
        }
    }
}

/// Fully simulates the first `trace_len` accesses of `workload` on `sys`.
///
/// This is the paper's Phase-II full simulation.
pub fn simulate(sys: &SystemConfig, workload: &Workload, trace_len: usize) -> SimStats {
    simulate_trace(sys, workload, workload.trace(trace_len))
}

/// Replays an arbitrary access stream — e.g. one captured externally and
/// loaded with [`mce_appmodel::trace_io::read_trace`] — through `sys`.
///
/// `workload` supplies the data-structure metadata (element sizes, the
/// DS→module mapping domain); the stream's [`DsId`]s
/// must refer to it, and ticks must be nondecreasing.
pub fn simulate_trace<I>(sys: &SystemConfig, workload: &Workload, trace: I) -> SimStats
where
    I: IntoIterator<Item = mce_appmodel::MemAccess>,
{
    let mut sim = Simulator::new(sys, workload);
    for acc in trace {
        sim.step(&acc);
    }
    sim.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_appmodel::benchmarks;
    use mce_connlib::{ChannelId, ConnComponent, ConnComponentKind, ConnectivityArchitecture};
    use mce_memlib::{CacheConfig, MemModuleKind, MemoryArchitecture};

    const N: usize = 20_000;

    fn shared_bus(w: &Workload, mem: MemoryArchitecture) -> SystemConfig {
        SystemConfig::with_shared_bus(w, mem).expect("valid")
    }

    /// A system with dedicated CPU links and AHB off-chip-side sharing.
    fn fast_conn(w: &Workload, mem: MemoryArchitecture) -> SystemConfig {
        let channels = crate::system::channels_for(&mem, w);
        let mut conn = ConnectivityArchitecture::new(channels.clone());
        let ext = conn.add_link("ext0", ConnComponent::new(ConnComponentKind::OffChipBus));
        for (i, ch) in channels.iter().enumerate() {
            if ch.off_chip {
                conn.assign(ChannelId::new(i), ext);
            } else {
                let ded = conn.add_link(
                    format!("ded{i}"),
                    ConnComponent::new(ConnComponentKind::Dedicated),
                );
                conn.assign(ChannelId::new(i), ded);
            }
        }
        SystemConfig::new(w, mem, conn).expect("valid")
    }

    #[test]
    fn bigger_cache_is_faster_on_compress() {
        let w = benchmarks::compress();
        let small = simulate(
            &shared_bus(
                &w,
                MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(1)),
            ),
            &w,
            N,
        );
        let big = simulate(
            &shared_bus(
                &w,
                MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(32)),
            ),
            &w,
            N,
        );
        assert!(
            big.avg_latency_cycles < small.avg_latency_cycles,
            "32K {} vs 1K {}",
            big.avg_latency_cycles,
            small.avg_latency_cycles
        );
        assert!(big.miss_ratio() < small.miss_ratio());
    }

    #[test]
    fn dma_slashes_latency_on_pointer_chasing() {
        let w = benchmarks::li();
        let cache_only = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(8));
        let with_dma = MemoryArchitecture::builder("dma")
            .module("L1", MemModuleKind::Cache(CacheConfig::kilobytes(8)))
            .module(
                "dma",
                MemModuleKind::SelfIndirectDma {
                    depth: 16,
                    element_bytes: 8,
                },
            )
            .map(mce_appmodel::DsId::new(0), 1) // cons_heap
            .map_rest_to(0)
            .build(&w)
            .unwrap();
        let base = simulate(&shared_bus(&w, cache_only), &w, N);
        let dma = simulate(&shared_bus(&w, with_dma), &w, N);
        assert!(
            dma.avg_latency_cycles < base.avg_latency_cycles,
            "dma {} vs cache {}",
            dma.avg_latency_cycles,
            base.avg_latency_cycles
        );
    }

    #[test]
    fn connectivity_choice_changes_latency_same_memory() {
        let w = benchmarks::compress();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(8));
        let slow = simulate(&shared_bus(&w, mem.clone()), &w, N);
        let fast = simulate(&fast_conn(&w, mem), &w, N);
        assert!(
            fast.avg_latency_cycles < slow.avg_latency_cycles,
            "fast {} vs slow {}",
            fast.avg_latency_cycles,
            slow.avg_latency_cycles
        );
    }

    #[test]
    fn energy_dominated_by_memory_not_connectivity() {
        // The paper: "the connectivity consumes a small amount of power
        // compared to the memory modules".
        let w = benchmarks::compress();
        let mem = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(8));
        let sys = shared_bus(&w, mem);
        let mut sim = Simulator::new(&sys, &w);
        for acc in w.trace(N) {
            sim.step(&acc);
        }
        let link_energy: f64 = sim.links.iter().map(LinkState::energy_nj).sum();
        let stats = sim.finish();
        assert!(
            link_energy < 0.25 * stats.total_energy_nj,
            "connectivity {} of total {}",
            link_energy,
            stats.total_energy_nj
        );
    }

    #[test]
    fn stats_are_internally_consistent() {
        let w = benchmarks::vocoder();
        let sys = shared_bus(
            &w,
            MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4)),
        );
        let s = simulate(&sys, &w, N);
        assert_eq!(s.accesses, N as u64);
        assert!(s.reads <= s.accesses);
        assert!(s.on_chip_hits <= s.accesses);
        assert!(s.total_cycles > 0);
        assert!(s.avg_latency_cycles >= 1.0);
        assert!(s.total_energy_nj > 0.0);
        assert_eq!(s.links.len(), sys.conn().links().len());
    }

    #[test]
    fn simulation_is_deterministic() {
        let w = benchmarks::li();
        let sys = shared_bus(
            &w,
            MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4)),
        );
        let a = simulate(&sys, &w, 5_000);
        let b = simulate(&sys, &w, 5_000);
        assert_eq!(a, b);
    }

    #[test]
    fn vocoder_is_faster_than_compress_on_same_system() {
        // Stream-dominated traffic with small hot state should behave far
        // better than pointer chasing on an identical memory system.
        let vw = benchmarks::vocoder();
        let cw = benchmarks::compress();
        let v = simulate(
            &shared_bus(
                &vw,
                MemoryArchitecture::cache_only(&vw, CacheConfig::kilobytes(4)),
            ),
            &vw,
            N,
        );
        let c = simulate(
            &shared_bus(
                &cw,
                MemoryArchitecture::cache_only(&cw, CacheConfig::kilobytes(4)),
            ),
            &cw,
            N,
        );
        assert!(
            v.avg_latency_cycles < c.avg_latency_cycles,
            "vocoder {} vs compress {}",
            v.avg_latency_cycles,
            c.avg_latency_cycles
        );
    }

    #[test]
    fn direct_dram_mapping_works() {
        let w = benchmarks::vocoder();
        let mem = MemoryArchitecture::builder("raw").build(&w).unwrap(); // everything off-chip
        let sys = shared_bus(&w, mem);
        let s = simulate(&sys, &w, 2_000);
        assert_eq!(s.on_chip_hits, 0);
        assert!((s.miss_ratio() - 1.0).abs() < 1e-12);
        assert!(s.avg_latency_cycles > 5.0);
    }

    #[test]
    fn per_module_stats_split_traffic() {
        let w = benchmarks::li();
        let mem = MemoryArchitecture::builder("dma")
            .module("L1", MemModuleKind::Cache(CacheConfig::kilobytes(8)))
            .module(
                "dma",
                MemModuleKind::SelfIndirectDma {
                    depth: 16,
                    element_bytes: 8,
                },
            )
            .map(mce_appmodel::DsId::new(0), 1)
            .map_rest_to(0)
            .build(&w)
            .unwrap();
        let sys = shared_bus(&w, mem);
        let s = simulate(&sys, &w, N);
        let by_name = |n: &str| s.modules.iter().find(|m| m.name == n).unwrap();
        let l1 = by_name("L1");
        let dma = by_name("dma");
        assert!(l1.accesses > 0);
        assert!(dma.accesses > 0);
        assert_eq!(
            s.modules.iter().map(|m| m.accesses).sum::<u64>(),
            s.accesses,
            "every access belongs to exactly one module"
        );
        assert!(
            dma.hit_ratio() > l1.hit_ratio(),
            "DMA should out-hit the cache on li"
        );
        assert_eq!(
            s.modules.iter().map(|m| m.hits).sum::<u64>(),
            s.on_chip_hits
        );
    }

    #[test]
    fn simulate_trace_matches_simulate() {
        let w = benchmarks::vocoder();
        let sys = shared_bus(
            &w,
            MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(2)),
        );
        let a = simulate(&sys, &w, 5_000);
        let collected: Vec<_> = w.trace(5_000).collect();
        let b = simulate_trace(&sys, &w, collected);
        assert_eq!(a, b);
    }

    #[test]
    fn external_trace_round_trips_through_csv() {
        let w = benchmarks::vocoder();
        let sys = shared_bus(
            &w,
            MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(2)),
        );
        let mut csv = Vec::new();
        mce_appmodel::write_trace(&mut csv, w.trace(3_000)).unwrap();
        let replayed = mce_appmodel::read_trace(csv.as_slice()).unwrap();
        let a = simulate(&sys, &w, 3_000);
        let b = simulate_trace(&sys, &w, replayed);
        assert_eq!(a, b, "CSV round trip must not change simulation results");
    }

    #[test]
    fn per_ds_latency_identifies_the_culprit() {
        // compress: the self-indirect hash table must show far worse
        // average latency than the stack-like locals on a cache-only
        // system.
        let w = benchmarks::compress();
        let sys = shared_bus(
            &w,
            MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(4)),
        );
        let s = simulate(&sys, &w, N);
        let by_name = |n: &str| {
            s.data_structures
                .iter()
                .find(|d| d.name == n)
                .unwrap_or_else(|| panic!("no ds {n}"))
        };
        let htab = by_name("htab");
        let locals = by_name("locals");
        assert!(
            htab.avg_latency() > 2.0 * locals.avg_latency(),
            "htab {} vs locals {}",
            htab.avg_latency(),
            locals.avg_latency()
        );
        assert_eq!(
            s.data_structures.iter().map(|d| d.accesses).sum::<u64>(),
            s.accesses
        );
    }

    #[test]
    fn zero_length_trace() {
        let w = benchmarks::vocoder();
        let sys = shared_bus(
            &w,
            MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(2)),
        );
        let s = simulate(&sys, &w, 0);
        assert_eq!(s.accesses, 0);
        assert_eq!(s.avg_latency_cycles, 0.0);
    }
}
