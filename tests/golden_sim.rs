//! Golden `SimStats` pins: value-level regression tests for the
//! simulator.
//!
//! The determinism tests elsewhere prove self-consistency (serial ==
//! parallel, hot == cold, resumed == uninterrupted); these prove the
//! *values* do not move. Each committed CSV trace under
//! `tests/fixtures/golden/` (written with `appmodel::write_trace`, so the
//! pins do not depend on the trace generator or its random number source)
//! is replayed with `simulate_trace` through hand-built systems that
//! together exercise every module kind, link kind and arbiter. An FNV-1a
//! digest over every `SimStats` field — floats by their bit patterns,
//! per-link, per-module and per-data-structure vectors included — is
//! pinned per system.
//!
//! The same fixtures, compiled with `TraceBlocks::from_accesses`, also
//! pin the sampled block replay Phase I runs
//! (`simulate_sampled_blocks` at the paper's 1:9 windows, and at 100:700
//! windows that re-enter an on window three times per fixture).
//!
//! A simulator change that alters any simulated number fails here. If the
//! change is intended, say so in the change log and re-pin.

use memory_conex::appmodel::{
    benchmarks, read_trace, DsId, MemAccess, TraceBlocks, Workload, BLOCK_LEN,
};
use memory_conex::connlib::{
    ArbiterKind, ChannelId, ConnComponent, ConnComponentKind, ConnectivityArchitecture, LinkId,
};
use memory_conex::memlib::{
    CacheConfig, MemModuleKind, MemoryArchitecture, ModuleId, WriteMissPolicy, WritePolicy,
};
use memory_conex::obs;
use memory_conex::sim::system::{channel_endpoints, channels_for};
use memory_conex::sim::tape::is_tapeable;
use memory_conex::sim::{
    simulate_blocks_cancellable, simulate_sampled_blocks, simulate_sampled_blocks_cancellable,
    simulate_trace, ChannelEndpoint, ModuleTape, SamplingConfig, SimStats, SystemConfig,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The recorder is process-global; the coverage test installs a sink to
/// read the backpressure counter, so both tests serialize on this lock.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    RECORDER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `(system name, pinned digest)`, in [`systems`] order.
const PINS: [(&str, u64); 8] = [
    ("compress_shared_wb", 0xc514_45e5_2739_9a50),
    ("compress_template_ahb", 0x8b46_a554_dacd_9592),
    ("compress_wt_around_asb", 0x2e3a_c912_d83a_ef66),
    ("compress_backed_l2", 0x7058_2934_4307_5543),
    ("li_dma_mux_wt", 0xc8b5_b92d_f939_94cc),
    ("li_sram_fifo_replacement", 0xe742_2ce9_b491_c338),
    ("vocoder_direct_dram_tdma", 0x895b_6076_8c40_3d17),
    ("vocoder_stream_fifo_apb", 0xb5d6_235d_44c4_feb9),
];

/// `(system name, pinned digest)` of `simulate_sampled_blocks` with
/// [`SamplingConfig::paper`] over each fixture, in [`systems`] order.
const SAMPLED_PINS: [(&str, u64); 8] = [
    ("compress_shared_wb", 0x53f4_5e97_8aba_c46c),
    ("compress_template_ahb", 0x090d_4fe7_4fc2_404e),
    ("compress_wt_around_asb", 0x3834_17c9_7772_0d52),
    ("compress_backed_l2", 0xcc27_f58b_4974_63f4),
    ("li_dma_mux_wt", 0x7ed0_8b23_db5c_b66b),
    ("li_sram_fifo_replacement", 0x3cde_8e30_af82_7f9f),
    ("vocoder_direct_dram_tdma", 0x3c44_ab44_eb6c_c843),
    ("vocoder_stream_fifo_apb", 0x9329_3246_37e9_38b5),
];

/// The sampled window of [`SAMPLED_REENTRY_PINS`]: 100 on, 700 off. Over
/// a 3,000-access fixture it re-enters an on window at 800, 1,600 and
/// 2,400; its off windows straddle the 1,024 and 2,048 block boundaries,
/// and the trace ends 500 accesses into a 700-access off window.
const REENTRY_WINDOW: SamplingConfig = SamplingConfig {
    on_accesses: 100,
    off_ratio: 7,
};

/// `(system name, pinned digest)` of `simulate_sampled_blocks` with
/// [`REENTRY_WINDOW`] over each fixture, in [`systems`] order.
const SAMPLED_REENTRY_PINS: [(&str, u64); 8] = [
    ("compress_shared_wb", 0xcb57_2103_b4e0_c80c),
    ("compress_template_ahb", 0x2f27_0232_80e6_fae6),
    ("compress_wt_around_asb", 0x13da_2a57_1709_3b18),
    ("compress_backed_l2", 0x52d2_a439_2e6e_1e13),
    ("li_dma_mux_wt", 0x8226_a441_799d_dad6),
    ("li_sram_fifo_replacement", 0xefc5_f2d1_2d5d_f657),
    ("vocoder_direct_dram_tdma", 0x5434_fa23_b505_606d),
    ("vocoder_stream_fifo_apb", 0x468a_99d1_6c8a_90fa),
];

fn fixture(name: &str) -> Vec<MemAccess> {
    let path = format!(
        "{}/tests/fixtures/golden/{name}.csv",
        env!("CARGO_MANIFEST_DIR")
    );
    let file = std::fs::File::open(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    read_trace(std::io::BufReader::new(file)).expect("fixture parses")
}

fn link(kind: ConnComponentKind, arbiter: ArbiterKind) -> ConnComponent {
    let mut params = kind.params();
    params.arbiter = arbiter;
    ConnComponent::with_params(kind, params)
}

/// Wires `mem` with `links`, assigning each derived channel to the link
/// index `route` picks for its endpoint.
fn wire(
    w: &Workload,
    mem: MemoryArchitecture,
    links: &[(&str, ConnComponent)],
    route: impl Fn(ChannelEndpoint) -> usize,
) -> SystemConfig {
    let endpoints = channel_endpoints(&mem, w);
    let mut conn = ConnectivityArchitecture::new(channels_for(&mem, w));
    let ids: Vec<LinkId> = links
        .iter()
        .map(|(name, c)| conn.add_link(*name, *c))
        .collect();
    for (i, e) in endpoints.into_iter().enumerate() {
        conn.assign(ChannelId::new(i), ids[route(e)]);
    }
    SystemConfig::new(w, mem, conn).expect("golden system is valid")
}

fn cache(kib: u64, write: WritePolicy, write_miss: WriteMissPolicy) -> CacheConfig {
    CacheConfig {
        write,
        write_miss,
        ..CacheConfig::kilobytes(kib)
    }
}

fn wb(kib: u64) -> MemModuleKind {
    MemModuleKind::Cache(CacheConfig::kilobytes(kib))
}

/// Index 0 for CPU-side channels, 1 for everything downstream.
fn cpu_or_downstream(e: ChannelEndpoint) -> usize {
    usize::from(!matches!(e, ChannelEndpoint::CpuToModule(_)))
}

/// The golden systems: `(name, workload, system)`.
fn systems() -> Vec<(&'static str, Workload, SystemConfig)> {
    use ConnComponentKind::*;
    let fixed = ArbiterKind::FixedPriority;
    let rr = ArbiterKind::RoundRobin;
    let tdma = ArbiterKind::Tdma { slot_cycles: 8 };
    let compress = benchmarks::compress();
    let li = benchmarks::li();
    let vocoder = benchmarks::vocoder();
    let mut out = Vec::new();

    // The paper's APEX baseline: one write-back cache on the shared ASB.
    let mem = MemoryArchitecture::cache_only(&compress, CacheConfig::kilobytes(4));
    let sys = SystemConfig::with_shared_bus(&compress, mem).expect("valid");
    out.push(("compress_shared_wb", compress.clone(), sys));

    // The full Figure 2 template behind one split-transaction AHB:
    // scratchpad, cache, linked-list DMA, stream buffer and FIFO.
    let mem = MemoryArchitecture::builder("template")
        .module("sp", MemModuleKind::Sram { bytes: 4096 })
        .module("L1", wb(2))
        .module(
            "dma",
            MemModuleKind::SelfIndirectDma {
                depth: 16,
                element_bytes: 8,
            },
        )
        .module(
            "sb",
            MemModuleKind::StreamBuffer {
                entries: 4,
                line_bytes: 32,
            },
        )
        .module(
            "fifo",
            MemModuleKind::Fifo {
                entries: 1,
                line_bytes: 2,
            },
        )
        .map(DsId::new(4), 0) // locals
        .map(DsId::new(0), 2) // htab
        .map(DsId::new(2), 3) // input_stream
        .map(DsId::new(3), 4) // output_stream
        .map_rest_to(1)
        .build(&compress)
        .expect("valid");
    let links = [
        ("ahb0", link(AmbaAhb, rr)),
        ("ext0", link(OffChipBus, fixed)),
    ];
    let sys = wire(&compress, mem, &links, cpu_or_downstream);
    out.push(("compress_template_ahb", compress.clone(), sys));

    // Write-through + write-around: every write is posted off-chip and
    // write misses never allocate.
    let mem = MemoryArchitecture::cache_only(
        &compress,
        cache(2, WritePolicy::WriteThrough, WriteMissPolicy::WriteAround),
    );
    let sys = SystemConfig::with_shared_bus(&compress, mem).expect("valid");
    out.push(("compress_wt_around_asb", compress.clone(), sys));

    // Two-level hierarchy: an L1 and a stream buffer both backed by an
    // on-chip L2, sharing a split-transaction AHB to it.
    let mem = MemoryArchitecture::builder("two-level")
        .module("L1", wb(1))
        .module(
            "sb",
            MemModuleKind::StreamBuffer {
                entries: 4,
                line_bytes: 32,
            },
        )
        .module("L2", wb(16))
        .map(DsId::new(2), 1) // input_stream
        .map_rest_to(0)
        .backed_by(0, 2)
        .backed_by(1, 2)
        .build(&compress)
        .expect("valid");
    let links = [
        ("ded_l1", link(Dedicated, fixed)),
        ("ded_sb", link(Dedicated, fixed)),
        ("ahb_l2", link(AmbaAhb, fixed)),
        ("ext0", link(OffChipBus, fixed)),
    ];
    let sys = wire(&compress, mem, &links, |e| match e {
        ChannelEndpoint::CpuToModule(m) => m.index(),
        ChannelEndpoint::ModuleToModule(..) => 2,
        _ => 3,
    });
    out.push(("compress_backed_l2", compress.clone(), sys));

    // Linked-list DMA for the cons heap beside a write-through cache, on
    // a MUX; the off-chip bus round-robins the two refill streams.
    let mem = MemoryArchitecture::builder("dma")
        .module(
            "L1",
            MemModuleKind::Cache(cache(
                4,
                WritePolicy::WriteThrough,
                WriteMissPolicy::WriteAllocate,
            )),
        )
        .module(
            "dma",
            MemModuleKind::SelfIndirectDma {
                depth: 16,
                element_bytes: 8,
            },
        )
        .map(DsId::new(0), 1) // cons_heap
        .map_rest_to(0)
        .build(&li)
        .expect("valid");
    let links = [("mux0", link(Mux, fixed)), ("ext0", link(OffChipBus, rr))];
    let sys = wire(&li, mem, &links, cpu_or_downstream);
    out.push(("li_dma_mux_wt", li.clone(), sys));

    // Scratchpad for the stack and globals, FIFO-replacement cache for
    // the rest, on a round-robin MUX.
    let mem = MemoryArchitecture::builder("sp")
        .module("sp", MemModuleKind::Sram { bytes: 8192 })
        .module(
            "L1",
            MemModuleKind::Cache(CacheConfig {
                replacement: memory_conex::memlib::ReplacementPolicy::Fifo,
                ..CacheConfig::kilobytes(2)
            }),
        )
        .map(DsId::new(2), 0) // eval_stack
        .map(DsId::new(4), 0) // globals
        .map_rest_to(1)
        .build(&li)
        .expect("valid");
    let links = [("mux0", link(Mux, rr)), ("ext0", link(OffChipBus, fixed))];
    let sys = wire(&li, mem, &links, cpu_or_downstream);
    out.push(("li_sram_fifo_replacement", li.clone(), sys));

    // Streams mapped straight to DRAM: a direct CPU<->DRAM channel shares
    // a TDMA off-chip bus with the write-around cache's refills.
    let mem = MemoryArchitecture::builder("direct")
        .module(
            "L1",
            MemModuleKind::Cache(cache(
                2,
                WritePolicy::WriteThrough,
                WriteMissPolicy::WriteAround,
            )),
        )
        .map(DsId::new(2), 0) // lpc_state
        .map(DsId::new(3), 0) // filter_taps
        .map(DsId::new(4), 0) // codebook
        .build(&vocoder)
        .expect("valid");
    let links = [
        ("ded0", link(Dedicated, fixed)),
        ("ext0", link(OffChipBus, tdma)),
    ];
    let sys = wire(&vocoder, mem, &links, cpu_or_downstream);
    out.push(("vocoder_direct_dram_tdma", vocoder.clone(), sys));

    // Stream buffer and FIFO on a TDMA ASB, scratchpad and cache on an
    // APB.
    let mem = MemoryArchitecture::builder("streams")
        .module(
            "sb",
            MemModuleKind::StreamBuffer {
                entries: 4,
                line_bytes: 32,
            },
        )
        .module(
            "fifo",
            MemModuleKind::Fifo {
                entries: 2,
                line_bytes: 32,
            },
        )
        .module("sp", MemModuleKind::Sram { bytes: 4096 })
        .module("L1", wb(1))
        .map(DsId::new(0), 0) // speech_in
        .map(DsId::new(1), 1) // frame_out
        .map(DsId::new(2), 2) // lpc_state
        .map(DsId::new(3), 2) // filter_taps
        .map(DsId::new(4), 3) // codebook
        .build(&vocoder)
        .expect("valid");
    let links = [
        ("asb0", link(AmbaAsb, tdma)),
        ("apb0", link(AmbaApb, fixed)),
        ("ext0", link(OffChipBus, rr)),
    ];
    let sys = wire(&vocoder, mem, &links, |e| match e {
        ChannelEndpoint::CpuToModule(m) if m.index() < 2 => 0,
        ChannelEndpoint::CpuToModule(_) => 1,
        _ => 2,
    });
    out.push(("vocoder_stream_fifo_apb", vocoder, sys));
    out
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn text(&mut self, t: &str) {
        self.word(t.len() as u64);
        self.bytes(t.as_bytes());
    }
}

/// FNV-1a over every `SimStats` field.
fn digest(s: &SimStats) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for v in [
        s.accesses,
        s.reads,
        s.on_chip_hits,
        s.avg_latency_cycles.to_bits(),
        s.avg_energy_nj.to_bits(),
        s.total_cycles,
        s.total_energy_nj.to_bits(),
        s.links.len() as u64,
        s.modules.len() as u64,
        s.data_structures.len() as u64,
    ] {
        h.word(v);
    }
    for l in &s.links {
        h.text(&l.name);
        h.word(l.transfers);
        h.word(l.bytes);
        h.word(l.busy_cycles);
    }
    for m in &s.modules {
        h.text(&m.name);
        h.word(m.accesses);
        h.word(m.hits);
    }
    for d in &s.data_structures {
        h.text(&d.name);
        h.word(d.accesses);
        h.word(d.total_latency);
    }
    h.0
}

fn replay(w: &Workload, sys: &SystemConfig) -> SimStats {
    simulate_trace(sys, w, fixture(w.name()))
}

fn blocks(w: &Workload) -> TraceBlocks {
    TraceBlocks::from_accesses(fixture(w.name()))
}

/// Checks `run`'s digest per golden system against `pins`.
fn check_pins(pins: [(&str, u64); 8], run: impl Fn(&Workload, &SystemConfig) -> SimStats) {
    let systems = systems();
    assert_eq!(systems.len(), pins.len());
    let mut mismatches = Vec::new();
    for ((name, w, sys), (pin_name, pin)) in systems.iter().zip(pins) {
        assert_eq!(*name, pin_name, "pins are in systems() order");
        let got = digest(&run(w, sys));
        if got != pin {
            mismatches.push(format!("{name}: got {got:#018x}, pinned {pin:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "simulated values moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn golden_sim_stats_are_pinned() {
    let _guard = lock();
    check_pins(PINS, replay);
}

#[test]
fn golden_sampled_replay_stats_are_pinned() {
    let _guard = lock();
    for (pins, window) in [
        (SAMPLED_PINS, SamplingConfig::paper()),
        (SAMPLED_REENTRY_PINS, REENTRY_WINDOW),
    ] {
        check_pins(pins, |w, sys| {
            let blocks = blocks(w);
            simulate_sampled_blocks(sys, w, &blocks, blocks.len(), window)
        });
    }
}

#[test]
fn taped_replay_matches_live_replay_on_every_golden_system() {
    let _guard = lock();
    let sampling = |on_accesses, off_ratio| {
        Some(SamplingConfig {
            on_accesses,
            off_ratio,
        })
    };
    let fixture_len = 3_000;
    let cases = [
        // Full replay.
        (None, fixture_len),
        (Some(SamplingConfig::paper()), fixture_len),
        // Off windows (2,100 accesses) straddle BLOCK_LEN boundaries.
        (sampling(700, 3), fixture_len),
        // The trace ends mid-off-window, partway through a block.
        (sampling(700, 3), 2 * BLOCK_LEN + 500),
        // Windows shorter than a block, several per batch.
        (sampling(37, 2), fixture_len),
        // No off windows.
        (sampling(500, 0), fixture_len),
        // Empty on windows: each on window steps one access.
        (sampling(0, 4), fixture_len),
    ];
    for (name, w, sys) in systems() {
        let blocks = blocks(&w);
        assert_eq!(blocks.len(), fixture_len, "{name}");
        let mem = sys.mem();
        for (i, module) in mem.modules().iter().enumerate() {
            let id = ModuleId::new(i);
            let live = match module.kind() {
                MemModuleKind::SelfIndirectDma { .. }
                | MemModuleKind::Fifo { .. }
                | MemModuleKind::OffChipDram(_) => true,
                _ => mem.is_backing_target(id),
            };
            assert_eq!(is_tapeable(mem, id), !live, "{name}: {}", module.name());
        }
        for (window, len) in cases {
            let replay = |tape: Option<&ModuleTape>| match window {
                None => simulate_blocks_cancellable(&sys, &w, &blocks, len, tape, &|| false),
                Some(cfg) => {
                    simulate_sampled_blocks_cancellable(&sys, &w, &blocks, len, cfg, tape, &|| {
                        false
                    })
                }
            };
            let tape = ModuleTape::record(mem, &w, &blocks, len, window)
                .expect("every golden system has a tapeable module serving data");
            assert!(!tape.is_empty(), "{name} {window:?} over {len}");
            assert_eq!(
                replay(Some(&tape)),
                replay(None),
                "{name} {window:?} over {len}"
            );
        }
    }
}

#[test]
fn golden_systems_cover_every_module_link_and_arbiter_kind() {
    let _guard = lock();
    obs::install(Arc::new(obs::NullSink::new()));
    // class name -> (hits, misses) summed over all systems.
    let mut module_traffic: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut cache_modes = BTreeSet::new();
    let mut link_kinds = BTreeSet::new();
    let mut arbiters = BTreeSet::new();
    let mut split_ports = 0;
    let mut direct_dram = false;
    let mut stalling = Vec::new();
    for (name, w, sys) in systems() {
        obs::reset_counters();
        let stats = replay(&w, &sys);
        if obs::counter_value("sim.backpressure_stall_cycles") > 0 {
            stalling.push(name);
        }
        for (i, m) in stats.modules.iter().enumerate() {
            let kind = sys.mem().module(ModuleId::new(i)).kind();
            let entry = module_traffic.entry(kind.class_name()).or_default();
            entry.0 += m.hits;
            entry.1 += m.accesses - m.hits;
            if let MemModuleKind::Cache(c) = kind {
                if m.accesses > 0 {
                    cache_modes.insert(format!("{:?}/{:?}", c.write, c.write_miss));
                }
            }
        }
        let conn = sys.conn();
        for (j, l) in conn.links().iter().enumerate() {
            let ports = conn.ports(LinkId::new(j));
            let c = l.component();
            link_kinds.insert(format!("{:?}", c.kind()));
            if ports > 1 {
                arbiters.insert(format!("{:?}", c.params().arbiter));
                if c.params().split_transaction {
                    split_ports = split_ports.max(ports);
                }
            }
        }
        direct_dram |= sys.endpoints().contains(&ChannelEndpoint::CpuToDram);
    }
    obs::uninstall();

    for kind in ["cache", "SRAM", "stream buffer", "linked-list DMA", "FIFO"] {
        let (hits, misses) = module_traffic.get(kind).copied().unwrap_or_default();
        assert!(hits > 0, "{kind} records hits");
        // A scratchpad serves every mapped access on-chip by construction.
        assert!(kind == "SRAM" || misses > 0, "{kind} records misses");
    }
    for mode in [
        "WriteBack/WriteAllocate",
        "WriteThrough/WriteAllocate",
        "WriteThrough/WriteAround",
    ] {
        assert!(cache_modes.contains(mode), "cache mode {mode} covered");
    }
    for kind in [
        "Dedicated",
        "Mux",
        "AmbaApb",
        "AmbaAsb",
        "AmbaAhb",
        "OffChipBus",
    ] {
        assert!(link_kinds.contains(kind), "link kind {kind} covered");
    }
    assert!(split_ports >= 2, "a split-transaction link is contended");
    assert!(direct_dram, "a direct CPU<->DRAM channel is covered");
    assert_eq!(
        arbiters.len(),
        3,
        "every arbiter arbitrates a contended link: {arbiters:?}"
    );
    assert!(
        !stalling.is_empty(),
        "at least one system stalls on backpressure"
    );
}
