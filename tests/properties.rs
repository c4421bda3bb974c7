//! Property-based tests over the core data structures and invariants:
//! pareto fronts, coverage metrics, reservation tables, caches, pattern
//! generators, arbitration and trace generation.

use memory_conex::appmodel::rng::Rng;
use memory_conex::appmodel::{AccessPattern, DataStructure, WorkloadBuilder};
use memory_conex::conex::{Axis, CoverageReport, Metrics, ParetoFront};
use memory_conex::connlib::{Arbiter, ConnComponent, ConnComponentKind, ReservationTable};
use memory_conex::memlib::{
    CacheConfig, CacheState, FifoState, ModuleModel, SelfIndirectDmaState, StreamBufferState,
};
use memory_conex::prelude::*;
use proptest::prelude::*;

fn arb_metrics() -> impl Strategy<Value = Metrics> {
    (1u64..1_000_000, 0.1f64..1000.0, 0.1f64..100.0).prop_map(|(c, l, e)| Metrics::new(c, l, e))
}

fn dominates_2d(a: &Metrics, b: &Metrics) -> bool {
    let better_somewhere = a.cost_gates < b.cost_gates || a.latency_cycles < b.latency_cycles;
    a.cost_gates <= b.cost_gates && a.latency_cycles <= b.latency_cycles && better_somewhere
}

proptest! {
    #[test]
    fn pareto_front_members_are_mutually_nondominated(
        points in proptest::collection::vec(arb_metrics(), 1..60)
    ) {
        let axes = [Axis::Cost, Axis::Latency];
        let front = ParetoFront::of(&points, &axes);
        let sel = front.select(&points);
        for a in &sel {
            for b in &sel {
                // Domination requires strictly-better somewhere, so no
                // front member may dominate any other (or itself).
                prop_assert!(!dominates_2d(a, b), "{a:?} dominates {b:?}");
            }
        }
    }

    #[test]
    fn pareto_covers_every_point(
        points in proptest::collection::vec(arb_metrics(), 1..60)
    ) {
        // Every point off the front is dominated by (or equal to) a front
        // member.
        let axes = [Axis::Cost, Axis::Latency];
        let front = ParetoFront::of(&points, &axes);
        let sel = front.select(&points);
        for p in &points {
            let covered = sel.iter().any(|f| dominates_2d(f, p) || *f == p);
            prop_assert!(covered, "{p:?} uncovered");
        }
    }

    #[test]
    fn pareto_front_sorted_by_cost(
        points in proptest::collection::vec(arb_metrics(), 1..60)
    ) {
        let front = ParetoFront::of(&points, &[Axis::Cost, Axis::Latency]);
        let sel = front.select(&points);
        for pair in sel.windows(2) {
            prop_assert!(pair[0].cost_gates <= pair[1].cost_gates);
        }
    }

    #[test]
    fn pareto_front_is_permutation_invariant(
        points in proptest::collection::vec(arb_metrics(), 1..40)
    ) {
        let axes = [Axis::Cost, Axis::Latency];
        let forward = ParetoFront::of(&points, &axes);
        let mut reversed_points = points.clone();
        reversed_points.reverse();
        let backward = ParetoFront::of(&reversed_points, &axes);
        let mut a: Vec<(u64, u64)> = forward
            .select(&points)
            .iter()
            .map(|m| (m.cost_gates, m.latency_cycles.to_bits()))
            .collect();
        let mut b: Vec<(u64, u64)> = backward
            .select(&reversed_points)
            .iter()
            .map(|m| (m.cost_gates, m.latency_cycles.to_bits()))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn coverage_of_self_is_total(
        points in proptest::collection::vec(arb_metrics(), 1..30)
    ) {
        let r = CoverageReport::compare(&points, &points, 1e-9);
        prop_assert!((r.coverage_pct - 100.0).abs() < 1e-9);
        prop_assert_eq!(r.avg_cost_dist_pct, 0.0);
    }

    #[test]
    fn coverage_monotone_in_tolerance(
        reference in proptest::collection::vec(arb_metrics(), 1..20),
        found in proptest::collection::vec(arb_metrics(), 1..20),
        t1 in 0.001f64..0.1,
        t2 in 0.1f64..2.0,
    ) {
        let tight = CoverageReport::compare(&reference, &found, t1);
        let loose = CoverageReport::compare(&reference, &found, t2);
        prop_assert!(loose.coverage_pct >= tight.coverage_pct);
    }

    #[test]
    fn reservation_schedule_never_overlaps(
        durations in proptest::collection::vec(1u32..20, 1..50),
        gaps in proptest::collection::vec(0u64..30, 1..50),
    ) {
        let mut table = ReservationTable::new(1);
        let mut ready = 0;
        let mut scheduled: Vec<(u64, u64)> = Vec::new();
        for (d, g) in durations.iter().zip(&gaps) {
            ready += g;
            let t = table.schedule(0, *d, ready);
            prop_assert!(t >= ready);
            scheduled.push((t, t + *d as u64));
        }
        for i in 0..scheduled.len() {
            for j in (i + 1)..scheduled.len() {
                let (s1, e1) = scheduled[i];
                let (s2, e2) = scheduled[j];
                prop_assert!(e1 <= s2 || e2 <= s1, "overlap {:?} {:?}", scheduled[i], scheduled[j]);
            }
        }
    }

    #[test]
    fn cache_counts_are_consistent(
        addrs in proptest::collection::vec(0u64..16_384, 1..300),
        kib in 1u64..16,
    ) {
        let mut cache = CacheState::new(CacheConfig::kilobytes(kib));
        for (i, &a) in addrs.iter().enumerate() {
            cache.access(memory_conex::appmodel::Addr::new(a), AccessKind::Read, i as u64);
        }
        prop_assert_eq!(cache.hits() + cache.misses(), addrs.len() as u64);
        prop_assert!((0.0..=1.0).contains(&cache.miss_ratio()));
        // Immediate re-access of the last address must hit.
        let last = *addrs.last().unwrap();
        let r = cache.access(
            memory_conex::appmodel::Addr::new(last),
            AccessKind::Read,
            addrs.len() as u64,
        );
        prop_assert!(r.hit);
    }

    #[test]
    fn pattern_offsets_stay_in_footprint(
        pattern_id in 0usize..6,
        footprint_kib in 1u64..64,
        elem_pow in 0u32..4,
        n in 1usize..500,
    ) {
        let elem = 1u64 << elem_pow; // 1..8 bytes
        let footprint = footprint_kib * 1024;
        let pattern = match pattern_id {
            0 => AccessPattern::Stream { stride: elem },
            1 => AccessPattern::SelfIndirect,
            2 => AccessPattern::Indexed { index_stride: elem },
            3 => AccessPattern::LoopNest { working_set: 256, reuse: 4 },
            4 => AccessPattern::Random,
            _ => AccessPattern::Stack,
        };
        let mut gen = pattern.generator(footprint, elem);
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..n {
            let off = gen.next_offset(&mut rng);
            prop_assert!(off < footprint, "{pattern}: {off} >= {footprint}");
        }
    }

    #[test]
    fn tdma_grants_land_in_the_master_slot(
        slot in 1u32..16,
        masters in 1usize..8,
        master in 0usize..8,
        now in 0u64..10_000,
    ) {
        let mut arb = Arbiter::tdma(slot, masters);
        let m = master % masters;
        let wait = arb.grant_delay(m, now, true) as u64;
        let frame = slot as u64 * masters as u64;
        let grant = (now + wait) % frame;
        let slot_start = m as u64 * slot as u64;
        prop_assert!(grant >= slot_start && grant < slot_start + slot as u64,
            "grant at {grant}, slot [{slot_start}, {})", slot_start + slot as u64);
    }

    #[test]
    fn traces_stay_inside_the_layout(
        seed in 0u64..1000,
        n in 1usize..400,
    ) {
        let w = WorkloadBuilder::new("p")
            .data_structure(DataStructure::new("a", 4096, 4, AccessPattern::Random))
            .data_structure(DataStructure::new(
                "b",
                8192,
                8,
                AccessPattern::Stream { stride: 8 },
            ))
            .seed(seed)
            .build();
        let layout = w.layout();
        let mut prev_tick = None;
        for acc in w.trace(n) {
            prop_assert!(layout[acc.ds.index()].contains(acc.addr));
            if let Some(p) = prev_tick {
                prop_assert!(acc.tick > p, "ticks must strictly increase");
            }
            prev_tick = Some(acc.tick);
        }
    }
}

/// Random access sequences for driving module models.
fn arb_accesses() -> impl Strategy<Value = Vec<(u64, bool, u64)>> {
    // (addr, is_write, tick_gap)
    proptest::collection::vec((0u64..65_536, any::<bool>(), 0u64..50), 1..300)
}

proptest! {
    #[test]
    fn fifo_occupancy_never_exceeds_capacity(
        accesses in arb_accesses(),
        entries in 1u32..16,
    ) {
        let mut fifo = FifoState::new(entries, 32);
        let mut tick = 0;
        for (addr, is_write, gap) in accesses {
            tick += gap;
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            let r = fifo.access(memory_conex::appmodel::Addr::new(addr), kind, tick);
            prop_assert!(fifo.occupancy() <= entries as usize);
            // A response never both demands and claims a hit.
            prop_assert!(!(r.hit && r.demand_fill_bytes > 0));
        }
    }

    #[test]
    fn dma_buffer_bounded_and_responses_sane(
        accesses in arb_accesses(),
        depth in 1u32..32,
    ) {
        let mut dma = SelfIndirectDmaState::new(depth, 8);
        let mut tick = 0;
        for (addr, is_write, gap) in accesses {
            tick += gap;
            let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
            let r = dma.access(memory_conex::appmodel::Addr::new(addr), kind, tick);
            prop_assert!(dma.buffered() <= depth);
            prop_assert!(r.service_cycles > 0);
            if is_write {
                prop_assert!(r.hit, "writes are always absorbed");
            }
        }
    }

    #[test]
    fn stream_buffer_never_hits_cold(
        entries in 1u32..8,
        line in proptest::sample::select(vec![16u32, 32, 64]),
        first_addr in 0u64..4096,
    ) {
        let mut sb = StreamBufferState::new(entries, line);
        let r = sb.access(
            memory_conex::appmodel::Addr::new(first_addr),
            AccessKind::Read,
            0,
        );
        prop_assert!(!r.hit, "first access can never hit");
        prop_assert_eq!(r.demand_fill_bytes, line as u64);
    }

    #[test]
    fn module_models_are_reset_deterministic(
        accesses in arb_accesses(),
    ) {
        // Running a sequence, resetting, and running it again must produce
        // identical responses — the contract re-simulation relies on.
        let mut cache = CacheState::new(CacheConfig::kilobytes(2));
        let run = |c: &mut CacheState| -> Vec<(bool, u64)> {
            let mut tick = 0;
            accesses
                .iter()
                .map(|&(addr, is_write, gap)| {
                    tick += gap;
                    let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
                    let r = c.access(memory_conex::appmodel::Addr::new(addr), kind, tick);
                    (r.hit, r.demand_fill_bytes + r.background_bytes)
                })
                .collect()
        };
        let first = run(&mut cache);
        cache.reset();
        let second = run(&mut cache);
        prop_assert_eq!(first, second);
    }

    #[test]
    fn link_transfers_complete_after_ready(
        transfers in proptest::collection::vec((0u64..40, 1u64..128), 1..100),
        ports in 1u32..4,
    ) {
        use memory_conex::connlib::LinkState;
        let mut link = LinkState::new(ConnComponent::new(ConnComponentKind::AmbaAhb), ports);
        let mut ready = 0;
        for (gap, bytes) in transfers {
            ready += gap;
            let t = link.transfer(ready, bytes, 0);
            prop_assert!(t.start >= ready, "start {} before ready {ready}", t.start);
            prop_assert!(t.complete > t.start);
        }
    }

    #[test]
    fn fixed_priority_links_schedule_like_the_reservation_table(
        kind in proptest::sample::select(vec![
            ConnComponentKind::Dedicated,
            ConnComponentKind::Mux,
            ConnComponentKind::AmbaApb,
            ConnComponentKind::AmbaAsb,
            ConnComponentKind::AmbaAhb,
            ConnComponentKind::OffChipBus,
        ]),
        outstanding in 0u32..5,
        ports in 1u32..5,
        transfers in proptest::collection::vec((0u64..40, 0u64..200, 0usize..4), 1..150),
    ) {
        // A fixed-priority link's busy-until slots against a reservation
        // table driven the way `LinkState::transfer` drives one for
        // round-robin and TDMA links: `schedule` on one slot, or
        // `advance_horizon` plus the earliest slot (lowest on ties) and
        // `reserve` on several. `outstanding` 0 keeps the kind's own slots.
        use memory_conex::connlib::{ArbiterKind, LinkState};
        let mut params = kind.params();
        params.arbiter = ArbiterKind::FixedPriority;
        if outstanding > 0 {
            params.outstanding = outstanding;
        }
        let component = ConnComponent::with_params(kind, params);
        let mut link = LinkState::new(component, ports);
        let mut table = ReservationTable::new(params.outstanding.max(1) as usize);
        let wait = if ports > 1 { params.arbitration_cycles as u64 } else { 0 };
        let mut ready = 0;
        for (gap, bytes, master) in transfers {
            ready += gap;
            let t = link.transfer(ready, bytes, master % ports as usize);
            if bytes == 0 {
                prop_assert_eq!((t.start, t.complete), (ready, ready));
                continue;
            }
            let beats = bytes.div_ceil(params.width_bytes as u64) as u32;
            let occupancy = if params.pipelined {
                beats
            } else {
                beats * params.cycles_per_beat
            };
            let cycles = occupancy.max(1);
            let start = if table.num_resources() > 1 {
                table.advance_horizon(ready);
                let (slot, start) = (0..table.num_resources())
                    .map(|slot| (slot, table.earliest_start(slot, cycles, ready + wait)))
                    .min_by_key(|&(slot, start)| (start, slot))
                    .unwrap();
                table.reserve(slot, cycles, start);
                start
            } else {
                table.schedule(0, cycles, ready + wait)
            };
            let complete = start + component.transfer_cycles(bytes, false) as u64;
            prop_assert_eq!((t.start, t.complete), (start, complete), "{} ports {}", kind, ports);
        }
    }

    #[test]
    fn conn_validation_is_total(
        n_channels in 1usize..6,
        assignments in proptest::collection::vec(0usize..4, 1..6),
    ) {
        // Arbitrary (possibly bogus) assignments must yield Ok or a typed
        // error — never a panic.
        use memory_conex::connlib::{Channel, ChannelId, ConnectivityArchitecture, LinkId};
        let channels: Vec<Channel> = (0..n_channels)
            .map(|i| {
                if i % 2 == 0 {
                    Channel::on_chip(format!("c{i}"))
                } else {
                    Channel::off_chip(format!("c{i}"))
                }
            })
            .collect();
        let mut arch = ConnectivityArchitecture::new(channels);
        arch.add_link("ahb", ConnComponent::new(ConnComponentKind::AmbaAhb));
        arch.add_link("ext", ConnComponent::new(ConnComponentKind::OffChipBus));
        for (i, link) in assignments.iter().enumerate().take(n_channels) {
            arch.assign(ChannelId::new(i), LinkId::new(*link));
        }
        let _ = arch.validate(); // must not panic
    }
}

/// The link costs the simulator resolves without a division — one per
/// (link, byte count) for each data structure's element, a shift for
/// power-of-two widths otherwise — are exact: for every component kind,
/// and for custom widths that are not powers of two, a transfer's
/// occupancy is the beat formula's and its completion latency is
/// `transfer_cycles`, over every size up to 1 KiB.
#[test]
fn division_free_link_costs_are_exact() {
    use memory_conex::connlib::LinkState;
    let mut components: Vec<ConnComponent> = ConnComponentKind::ON_CHIP
        .into_iter()
        .chain([ConnComponentKind::OffChipBus])
        .map(ConnComponent::new)
        .collect();
    for width_bytes in [3, 6] {
        for pipelined in [false, true] {
            let mut params = ConnComponentKind::AmbaAsb.params();
            params.width_bytes = width_bytes;
            params.pipelined = pipelined;
            params.cycles_per_beat = 3;
            components.push(ConnComponent::with_params(
                ConnComponentKind::AmbaAsb,
                params,
            ));
        }
    }
    for c in components {
        let p = c.params();
        for ports in [1, 3] {
            let link = LinkState::new(c, ports);
            for bytes in 0..=1024u64 {
                let beats = bytes.div_ceil(u64::from(p.width_bytes)) as u32;
                let occupancy = if p.pipelined {
                    beats
                } else {
                    beats * p.cycles_per_beat
                };
                let cost = link.cost(bytes);
                assert_eq!(cost, c.transfer_cost(bytes), "{c} {bytes} B");
                assert_eq!(cost.occupancy, occupancy, "{c} {bytes} B");
                assert_eq!(
                    cost.latency,
                    c.transfer_cycles(bytes, false),
                    "{c} {bytes} B"
                );
                // Scheduled on a fresh link, the transfer holds its slot
                // for the occupancy and completes after the latency.
                let mut fresh = LinkState::new(c, ports);
                let t = fresh.transfer(0, bytes, 0);
                assert_eq!(
                    t.complete - t.start,
                    u64::from(cost.latency),
                    "{c} {bytes} B"
                );
                assert_eq!(fresh.busy_cycles(), u64::from(occupancy), "{c} {bytes} B");
            }
        }
    }
}
