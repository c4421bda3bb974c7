//! Design points: a complete system configuration with its metrics, and
//! the canonical structural hashing that identifies a design point for
//! cross-scenario memoization.
//!
//! ## Canonical hashing
//!
//! The evaluation engine caches metrics under a [`CanonKey`]: a 128-bit
//! structural digest of *(workload, memory architecture, connectivity
//! architecture, trace length, evaluation mode)*. The digest is
//! **canonical**: it covers exactly the structure that determines the
//! simulated metrics and nothing else —
//!
//! * memory-architecture and connectivity names are excluded (they label
//!   reports, never timing, energy or gate cost);
//! * connectivity links are hashed as an unordered set of
//!   (component, assigned-channel-indices) fingerprints, so two
//!   architectures that differ only in link declaration order or link
//!   names collide deliberately — they describe the same hardware. (For
//!   such permuted twins the simulator's link-order energy summation can
//!   differ in the last ulp; the cache canonically returns the
//!   first-evaluated metrics for both.)
//!
//! The hash is the workspace's dual-lane FNV-1a ([`mce_obs::Fnv128`])
//! over the structural fields (no serialization in the loop), so it is
//! stable across runs, platforms and JSON formats.

use mce_appmodel::{AccessPattern, Workload};
use mce_connlib::{ConnComponent, ConnectivityArchitecture, LinkId};
use mce_memlib::{
    MemModuleKind, MemoryArchitecture, ReplacementPolicy, WriteMissPolicy, WritePolicy,
};
use mce_obs::{json, Fnv128};
use mce_sim::{SamplingConfig, SystemConfig};
use std::fmt;

/// The three metrics the exploration trades off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Total gate cost (memory modules + connectivity).
    pub cost_gates: u64,
    /// Average memory latency per access, cycles.
    pub latency_cycles: f64,
    /// Average energy per access, nJ.
    pub energy_nj: f64,
}

mce_obs::json_codec! { struct Metrics { cost_gates, latency_cycles, energy_nj } }

impl Metrics {
    /// Creates a metrics triple.
    ///
    /// # Panics
    ///
    /// Panics if latency or energy is not finite and non-negative.
    pub fn new(cost_gates: u64, latency_cycles: f64, energy_nj: f64) -> Self {
        assert!(
            latency_cycles.is_finite() && latency_cycles >= 0.0,
            "latency must be finite and non-negative"
        );
        assert!(
            energy_nj.is_finite() && energy_nj >= 0.0,
            "energy must be finite and non-negative"
        );
        Metrics {
            cost_gates,
            latency_cycles,
            energy_nj,
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} gates, {:.2} cyc, {:.2} nJ",
            self.cost_gates, self.latency_cycles, self.energy_nj
        )
    }
}

/// A combined memory + connectivity design with its measured (or estimated)
/// metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The full system configuration (re-simulatable).
    pub system: SystemConfig,
    /// The metrics this point was ranked by.
    pub metrics: Metrics,
    /// True if `metrics` came from time-sampled estimation (Phase I) rather
    /// than full simulation (Phase II).
    pub estimated: bool,
}

mce_obs::json_codec! { struct DesignPoint { system, metrics, estimated } }

impl DesignPoint {
    /// Creates a design point.
    pub fn new(system: SystemConfig, metrics: Metrics, estimated: bool) -> Self {
        DesignPoint {
            system,
            metrics,
            estimated,
        }
    }

    /// One-line architecture description (memory `|` connectivity).
    pub fn describe(&self) -> String {
        self.system.describe()
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{} — {}",
            self.describe(),
            if self.estimated { " (est.)" } else { "" },
            self.metrics
        )
    }
}

// ---------------------------------------------------------------------------
// Canonical structural hashing
// ---------------------------------------------------------------------------

/// A 128-bit canonical digest identifying one evaluation of one design
/// point (see the module docs for what it covers and deliberately omits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonKey {
    /// High 64 bits (standard FNV-1a lane).
    pub hi: u64,
    /// Low 64 bits (second, decorrelated lane).
    pub lo: u64,
}

impl CanonKey {
    /// Renders the key as 32 lowercase hex digits (the spill-file form).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses the [`CanonKey::to_hex`] form.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(CanonKey { hi, lo })
    }
}

impl fmt::Display for CanonKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// A key travels as its [`CanonKey::to_hex`] string.
impl json::ToJson for CanonKey {
    fn write_json(&self, w: &mut json::Writer) {
        w.str(&self.to_hex());
    }
}

impl json::FromJson for CanonKey {
    fn from_json(value: &json::Value) -> Result<Self, json::Error> {
        value
            .as_str()
            .and_then(CanonKey::from_hex)
            .ok_or_else(|| json::Error {
                message: "expected a 32-hex-digit key".to_owned(),
            })
    }
}

/// Which evaluation a cache entry holds: Phase-I time-sampled estimation
/// (keyed by its sampling window) or Phase-II full simulation. The two
/// never alias — a sampled estimate must not satisfy a full-simulation
/// lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// Time-sampled estimation with the given windows.
    Estimated(SamplingConfig),
    /// Full simulation of the whole trace prefix.
    Full,
}

/// Two-lane FNV-1a ([`Fnv128`]) over structural fields, giving an
/// effectively 128-bit key from two cheap 64-bit streams.
struct CanonHasher(Fnv128);

impl CanonHasher {
    fn new(domain: &str) -> Self {
        let mut h = CanonHasher(Fnv128::default());
        h.str(domain);
        h
    }

    fn byte(&mut self, x: u8) {
        self.0.byte(x);
    }

    fn u64(&mut self, x: u64) {
        self.0.bytes(&x.to_le_bytes());
    }

    fn u32(&mut self, x: u32) {
        self.u64(u64::from(x));
    }

    fn bool(&mut self, x: bool) {
        self.byte(u8::from(x));
    }

    /// Bit-exact: distinguishes every f64 payload, including -0.0 vs 0.0.
    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Length-prefixed, so consecutive strings cannot alias.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.bytes(s.as_bytes());
    }

    fn key(&self) -> CanonKey {
        let (hi, lo) = self.0.lanes();
        CanonKey { hi, lo }
    }
}

/// Digest of everything that determines the generated trace: the seed, the
/// compute gap, every data structure's shape and the phase schedule.
/// Workload *names* are included — distinct workloads must never collide,
/// and over-distinguishing only costs cache hits, never correctness.
pub fn workload_digest(workload: &Workload) -> CanonKey {
    let mut h = CanonHasher::new("mce.workload.v1");
    h.str(workload.name());
    h.u64(workload.seed());
    h.u64(workload.compute_gap());
    h.u64(workload.len() as u64);
    for ds in workload.data_structures() {
        h.str(ds.name());
        h.u64(ds.footprint());
        h.u64(ds.element_size());
        hash_pattern(&mut h, ds.pattern());
        h.f64(ds.hotness());
        h.f64(ds.write_fraction());
    }
    h.u64(workload.phases().len() as u64);
    for phase in workload.phases() {
        h.str(phase.name());
        h.u64(phase.accesses());
        h.u64(phase.hotness_scale().len() as u64);
        for &s in phase.hotness_scale() {
            h.f64(s);
        }
    }
    h.key()
}

fn hash_pattern(h: &mut CanonHasher, p: AccessPattern) {
    match p {
        AccessPattern::Stream { stride } => {
            h.byte(0);
            h.u64(stride);
        }
        AccessPattern::SelfIndirect => h.byte(1),
        AccessPattern::Indexed { index_stride } => {
            h.byte(2);
            h.u64(index_stride);
        }
        AccessPattern::LoopNest { working_set, reuse } => {
            h.byte(3);
            h.u64(working_set);
            h.u32(reuse);
        }
        AccessPattern::Random => h.byte(4),
        AccessPattern::Stack => h.byte(5),
    }
}

/// Digest of a memory architecture's structure: module kinds and
/// parameters in order (module order is semantic — the DS mapping and
/// backing chains refer to module indices), the DS→module mapping and the
/// backing topology. Module and architecture names are excluded.
///
/// `workload` supplies the mapping domain (one entry per data structure).
pub fn mem_digest(mem: &MemoryArchitecture, workload: &Workload) -> CanonKey {
    let mut h = CanonHasher::new("mce.mem.v1");
    h.u64(mem.modules().len() as u64);
    for m in mem.modules() {
        hash_module_kind(&mut h, m.kind());
    }
    h.u64(mem.dram_id().index() as u64);
    for (i, _) in mem.modules().iter().enumerate() {
        match mem.backing_of(mce_memlib::ModuleId::new(i)) {
            Some(l2) => h.u64(l2.index() as u64),
            None => h.u64(u64::MAX),
        }
    }
    h.u64(workload.len() as u64);
    for i in 0..workload.len() {
        h.u64(mem.serving_module(mce_appmodel::DsId::new(i)).index() as u64);
    }
    h.key()
}

fn hash_module_kind(h: &mut CanonHasher, kind: MemModuleKind) {
    match kind {
        MemModuleKind::Cache(c) => {
            h.byte(0);
            h.u64(c.size_bytes);
            h.u32(c.line_bytes);
            h.u32(c.ways);
            h.byte(match c.replacement {
                ReplacementPolicy::Lru => 0,
                ReplacementPolicy::Fifo => 1,
            });
            h.byte(match c.write {
                WritePolicy::WriteBack => 0,
                WritePolicy::WriteThrough => 1,
            });
            h.byte(match c.write_miss {
                WriteMissPolicy::WriteAllocate => 0,
                WriteMissPolicy::WriteAround => 1,
            });
            h.u32(c.hit_cycles);
        }
        MemModuleKind::Sram { bytes } => {
            h.byte(1);
            h.u64(bytes);
        }
        MemModuleKind::StreamBuffer {
            entries,
            line_bytes,
        } => {
            h.byte(2);
            h.u32(entries);
            h.u32(line_bytes);
        }
        MemModuleKind::SelfIndirectDma {
            depth,
            element_bytes,
        } => {
            h.byte(3);
            h.u32(depth);
            h.u32(element_bytes);
        }
        MemModuleKind::Fifo {
            entries,
            line_bytes,
        } => {
            h.byte(4);
            h.u32(entries);
            h.u32(line_bytes);
        }
        MemModuleKind::OffChipDram(d) => {
            h.byte(5);
            h.u64(d.row_bytes);
            h.u32(d.row_miss_cycles);
            h.u32(d.cas_cycles);
            h.u32(d.burst_bytes);
            h.u32(d.beat_cycles);
        }
    }
}

/// Digest of a connectivity architecture's structure: the channel sequence
/// (chip-boundary flags; channel order is semantic — it defines each
/// master's position on its link) and the **unordered set** of link
/// fingerprints. Link order and all names are excluded; see the module
/// docs for why that is the canonical choice.
pub fn conn_digest(conn: &ConnectivityArchitecture) -> CanonKey {
    let mut h = CanonHasher::new("mce.conn.v1");
    h.u64(conn.channels().len() as u64);
    for ch in conn.channels() {
        h.bool(ch.off_chip);
    }
    let mut links: Vec<CanonKey> = conn
        .links()
        .iter()
        .enumerate()
        .map(|(j, link)| {
            let mut lh = CanonHasher::new("mce.link.v1");
            hash_component(&mut lh, link.component());
            // Assigned channel indices, ascending by construction (the
            // assignment table is scanned in channel order).
            for ci in 0..conn.channels().len() {
                if conn.link_of(mce_connlib::ChannelId::new(ci)) == Some(LinkId::new(j)) {
                    lh.u64(ci as u64);
                }
            }
            lh.key()
        })
        .collect();
    links.sort_unstable();
    h.u64(links.len() as u64);
    for k in links {
        h.u64(k.hi);
        h.u64(k.lo);
    }
    h.key()
}

fn hash_component(h: &mut CanonHasher, component: &ConnComponent) {
    use mce_connlib::ConnComponentKind as K;
    h.byte(match component.kind() {
        K::Dedicated => 0,
        K::Mux => 1,
        K::AmbaApb => 2,
        K::AmbaAsb => 3,
        K::AmbaAhb => 4,
        K::OffChipBus => 5,
    });
    let p = component.params();
    h.u32(p.width_bytes);
    h.u32(p.cycles_per_beat);
    h.u32(p.arbitration_cycles);
    h.bool(p.pipelined);
    h.bool(p.split_transaction);
    h.u32(p.max_ports);
    h.u32(p.outstanding);
    h.u64(p.base_gates);
    h.u64(p.gates_per_port);
    h.u64(p.wire_gates_per_bit);
    h.f64(p.energy_per_transfer_nj);
    h.f64(p.energy_per_byte_nj);
    h.bool(p.off_chip);
    match p.arbiter {
        mce_connlib::ArbiterKind::FixedPriority => h.byte(0),
        mce_connlib::ArbiterKind::RoundRobin => h.byte(1),
        mce_connlib::ArbiterKind::Tdma { slot_cycles } => {
            h.byte(2);
            h.u64(u64::from(slot_cycles));
        }
    }
}

/// Combines the three structural digests with the evaluation parameters
/// into the final cache key.
pub fn eval_key(
    workload: CanonKey,
    mem: CanonKey,
    conn: CanonKey,
    trace_len: usize,
    mode: EvalMode,
) -> CanonKey {
    let mut h = CanonHasher::new("mce.eval.v1");
    for part in [workload, mem, conn] {
        h.u64(part.hi);
        h.u64(part.lo);
    }
    h.u64(trace_len as u64);
    match mode {
        EvalMode::Estimated(s) => {
            h.byte(0);
            h.u32(s.on_accesses);
            h.u32(s.off_ratio);
        }
        EvalMode::Full => h.byte(1),
    }
    h.key()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_display() {
        let m = Metrics::new(1000, 5.5, 12.25);
        let s = m.to_string();
        assert!(s.contains("1000"), "{s}");
        assert!(s.contains("5.50"), "{s}");
        assert!(s.contains("12.25"), "{s}");
    }

    #[test]
    #[should_panic(expected = "latency")]
    fn nan_latency_rejected() {
        let _ = Metrics::new(1, f64::NAN, 0.0);
    }

    #[test]
    #[should_panic(expected = "energy")]
    fn negative_energy_rejected() {
        let _ = Metrics::new(1, 0.0, -1.0);
    }

    // --- canonical hashing ---

    use mce_appmodel::benchmarks;
    use mce_connlib::{Channel, ChannelId, ConnComponentKind};
    use mce_memlib::CacheConfig;

    fn channels() -> Vec<Channel> {
        vec![Channel::on_chip("cpu<->L1"), Channel::off_chip("L1<->dram")]
    }

    /// Two links (one per channel); `flipped` swaps their declaration
    /// order while keeping the same channel assignment.
    fn conn_with_link_order(flipped: bool) -> ConnectivityArchitecture {
        let mut conn = ConnectivityArchitecture::new(channels());
        let kinds = if flipped {
            [ConnComponentKind::OffChipBus, ConnComponentKind::AmbaAhb]
        } else {
            [ConnComponentKind::AmbaAhb, ConnComponentKind::OffChipBus]
        };
        let a = conn.add_link("first", ConnComponent::new(kinds[0]));
        let b = conn.add_link("second", ConnComponent::new(kinds[1]));
        let (on_chip_link, off_chip_link) = if flipped { (b, a) } else { (a, b) };
        conn.assign(ChannelId::new(0), on_chip_link);
        conn.assign(ChannelId::new(1), off_chip_link);
        conn
    }

    #[test]
    fn conn_digest_ignores_link_order_and_names() {
        let digest = conn_digest(&conn_with_link_order(false));
        assert_eq!(digest, conn_digest(&conn_with_link_order(true)));

        let mut renamed = ConnectivityArchitecture::new(channels());
        let l1 = renamed.add_link("totally", ConnComponent::new(ConnComponentKind::AmbaAhb));
        let l2 = renamed.add_link(
            "different",
            ConnComponent::new(ConnComponentKind::OffChipBus),
        );
        renamed.assign(ChannelId::new(0), l1);
        renamed.assign(ChannelId::new(1), l2);
        assert_eq!(digest, conn_digest(&renamed));
    }

    #[test]
    fn conn_digest_sees_component_changes() {
        let ahb = conn_with_link_order(false);
        let mut apb = ConnectivityArchitecture::new(channels());
        let l1 = apb.add_link("first", ConnComponent::new(ConnComponentKind::AmbaApb));
        let l2 = apb.add_link("second", ConnComponent::new(ConnComponentKind::OffChipBus));
        apb.assign(ChannelId::new(0), l1);
        apb.assign(ChannelId::new(1), l2);
        assert_ne!(conn_digest(&ahb), conn_digest(&apb));
    }

    #[test]
    fn conn_digest_sees_assignment_changes() {
        // Both channels on one shared bus vs one link each.
        let split = conn_with_link_order(false);
        let mut shared = ConnectivityArchitecture::new(channels());
        let bus = shared.add_link("bus", ConnComponent::new(ConnComponentKind::OffChipBus));
        shared.assign(ChannelId::new(0), bus);
        shared.assign(ChannelId::new(1), bus);
        assert_ne!(conn_digest(&split), conn_digest(&shared));
    }

    #[test]
    fn mem_digest_ignores_names_but_sees_structure() {
        let w = benchmarks::vocoder();
        let a = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(8));
        let b = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(8));
        assert_eq!(mem_digest(&a, &w), mem_digest(&b, &w));
        let c = MemoryArchitecture::cache_only(&w, CacheConfig::kilobytes(16));
        assert_ne!(mem_digest(&a, &w), mem_digest(&c, &w));
    }

    #[test]
    fn workload_digest_separates_benchmarks() {
        let mut keys: Vec<CanonKey> = [
            benchmarks::compress(),
            benchmarks::li(),
            benchmarks::vocoder(),
        ]
        .iter()
        .map(workload_digest)
        .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 3);
    }

    #[test]
    fn eval_modes_never_alias() {
        let w = workload_digest(&benchmarks::vocoder());
        let wl = benchmarks::vocoder();
        let mem = MemoryArchitecture::cache_only(&wl, CacheConfig::kilobytes(4));
        let m = mem_digest(&mem, &wl);
        let c = conn_digest(&conn_with_link_order(false));
        let estimated = eval_key(w, m, c, 1000, EvalMode::Estimated(SamplingConfig::paper()));
        let full = eval_key(w, m, c, 1000, EvalMode::Full);
        let longer = eval_key(w, m, c, 2000, EvalMode::Full);
        assert_ne!(estimated, full);
        assert_ne!(full, longer);
    }

    #[test]
    fn canon_key_hex_round_trips() {
        let k = CanonKey {
            hi: 0x0123_4567_89ab_cdef,
            lo: 0xfedc_ba98_7654_3210,
        };
        assert_eq!(CanonKey::from_hex(&k.to_hex()), Some(k));
        assert_eq!(k.to_hex().len(), 32);
        assert_eq!(json::to_string(&k), format!("\"{k}\""));
        assert_eq!(json::from_str(&json::to_string(&k)), Ok(k));
        assert!(json::from_str::<CanonKey>("\"xyz\"").is_err());
        assert_eq!(CanonKey::from_hex("xyz"), None);
        assert_eq!(CanonKey::from_hex(""), None);
    }
}
