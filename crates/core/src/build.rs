//! Network-flow graph construction (§5.1) over a [`Segmentation`].
//!
//! Every segment contributes a write node `w_i(v)` and a read node `r_i(v)`
//! joined by a unit-capacity arc (lower bound 1 when the segment is forced
//! into the register file, §5.2). Hand-off arcs `r_i(v1) → w_j(v2)` connect
//! compatible segments; which pairs are connected depends on the
//! [`GraphStyle`]:
//!
//! * [`GraphStyle::Regions`] — the paper's construction. A hand-off arc is
//!   admitted only if no *region of maximum lifetime density* lies strictly
//!   between the read and the write; this is the generalisation of the
//!   "complete bipartite graph between adjacent regions" of §5.1 to events
//!   that fall inside regions, and it is what guarantees a minimum number of
//!   memory storage locations (§7).
//! * [`GraphStyle::AllPairs`] — ref \[8\]: every compatible pair is connected.
//!
//! The total flow is fixed at the register count `R`; a zero-cost `s → t`
//! bypass absorbs registers the optimum leaves unused, and optional relief
//! arcs (`r → t` everywhere, `s → w` into forced segments) keep irregular
//! instances feasible. Both are cost-neutral (DESIGN.md §4.3).

use crate::costs::CostCalculator;
use crate::problem::{AllocationProblem, GraphStyle};
use crate::segment::{SegmentId, Segmentation};
use crate::CoreError;
use lemra_energy::MicroEnergy;
use lemra_ir::{DensityProfile, Tick, TickRange};
use lemra_netflow::{ArcId, FlowNetwork, NodeId};
use std::cell::RefCell;

/// The constructed flow network plus the maps back to segments.
///
/// The arc maps beyond `segment_arc` exist for white-box tests and
/// diagnostics; the allocator itself only needs the segment arcs.
#[derive(Debug)]
#[allow(dead_code)]
pub(crate) struct BuiltNetwork {
    pub net: FlowNetwork,
    pub s: NodeId,
    pub t: NodeId,
    /// Per segment: its `w → r` arc.
    pub segment_arc: Vec<ArcId>,
    /// Per segment: its read node (tail of hand-off arcs).
    pub read_node: Vec<NodeId>,
    /// Per segment: its write node.
    pub write_node: Vec<NodeId>,
    /// `(from_segment, to_segment)` per hand-off/chain arc, by [`ArcId`].
    pub handoff_of: Vec<(ArcId, SegmentId, SegmentId)>,
    /// Chain arcs `(from_segment, arc)`; `to` is from's successor segment.
    pub chain_of: Vec<(ArcId, SegmentId)>,
    /// Source hook-ups `s → w(seg)` as `(arc, segment)`.
    pub source_of: Vec<(ArcId, SegmentId)>,
    /// Sink hook-ups `r(seg) → t` as `(arc, segment)`.
    pub sink_of: Vec<(ArcId, SegmentId)>,
    /// The `s → t` bypass arc.
    pub bypass: ArcId,
    /// Factor every (gcd-reduced) arc cost was scaled by for deterministic
    /// tie-breaking (1 when the perturbation was skipped); see
    /// [`apply_tie_break`].
    pub cost_scale: i64,
    /// Common quantum divided out of every raw cost before scaling (1 when
    /// the perturbation was skipped).
    pub cost_unit: i64,
    /// Per-arc tie-break weight added after scaling; empty when
    /// `cost_scale == 1`. A solution's raw cost is
    /// `(cost - Σ flow(a)·tie_weights[a]) / cost_scale · cost_unit`.
    pub tie_weights: Vec<i64>,
    /// Which arcs get the tie-break preference discount (chains and
    /// hand-offs). Pure topology — [`refresh`] reuses it instead of
    /// rebuilding the mask per sweep point.
    pub preferred: Vec<bool>,
    /// Weight resolution [`apply_tie_break`] picked (0 when the perturbation
    /// was skipped). Cache key: when a refresh lands on the same resolution,
    /// the splitmix64 weight vector is reused verbatim instead of re-hashed,
    /// because every weight is a pure function of (arc index, bits,
    /// preferred) and those are all topology-stable.
    pub tie_bits: u32,
}

impl BuiltNetwork {
    /// Heap footprint of the built view — the arc arena plus every handle
    /// map and tie-break table, charged at capacity. The counted two-pass
    /// build sizes each buffer exactly, so this is also the Build stage's
    /// peak retained footprint, which the `--timings` peak-bytes column
    /// reports.
    pub(crate) fn heap_bytes(&self) -> usize {
        fn cap_bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        self.net.heap_bytes()
            + cap_bytes(&self.segment_arc)
            + cap_bytes(&self.read_node)
            + cap_bytes(&self.write_node)
            + cap_bytes(&self.handoff_of)
            + cap_bytes(&self.chain_of)
            + cap_bytes(&self.source_of)
            + cap_bytes(&self.sink_of)
            + cap_bytes(&self.tie_weights)
            + cap_bytes(&self.preferred)
    }
}

/// Per-thread scratch for the Build stage. The one-endpoint precompute
/// tables and the start-order index are `n`-sized and were rebuilt from
/// scratch for every block, so whole-program pipelines — one worker
/// allocating dozens of blocks back to back — churned six allocations per
/// build. The arena keeps the buffers across builds on the same thread;
/// clearing retains capacity, so steady-state builds allocate nothing here.
#[derive(Default)]
struct BuildArena {
    exit_cost: Vec<MicroEnergy>,
    enter_cost: Vec<MicroEnergy>,
    register_carried_first: Vec<bool>,
    starts: Vec<Tick>,
    ends: Vec<Tick>,
    var_of: Vec<u32>,
    by_start: Vec<u32>,
}

impl BuildArena {
    fn clear(&mut self) {
        self.exit_cost.clear();
        self.enter_cost.clear();
        self.register_carried_first.clear();
        self.starts.clear();
        self.ends.clear();
        self.var_of.clear();
        self.by_start.clear();
    }
}

thread_local! {
    static BUILD_ARENA: RefCell<BuildArena> = RefCell::default();
}

/// True if a hand-off from a read at `from` to a write at `to` is admitted
/// under the region rule: `from <= to` and no maximum-density region lies
/// strictly inside the open interval `(from, to)`.
///
/// `regions` comes from [`DensityProfile::max_regions`]: sorted by start and
/// disjoint, so ends ascend in the same order and the earliest region
/// starting after `from` has the smallest end among all candidates — one
/// binary search decides the query. The network builder calls this for every
/// segment pair, so it must not scan the region list linearly.
fn region_allows(regions: &[TickRange], from: Tick, to: Tick) -> bool {
    if from > to {
        return false;
    }
    debug_assert!(regions.windows(2).all(|w| w[0].end < w[1].start));
    let i = regions.partition_point(|r| r.start <= from);
    regions.get(i).is_none_or(|r| r.end >= to)
}

/// The Profile stage: the maximum-lifetime-density regions that gate
/// hand-off arcs under [`GraphStyle::Regions`] (empty for
/// [`GraphStyle::AllPairs`], which admits every compatible pair).
pub(crate) fn profile_regions(
    problem: &AllocationProblem,
    segmentation: &Segmentation,
) -> Vec<TickRange> {
    match problem.style {
        GraphStyle::Regions => DensityProfile::from_intervals(
            segmentation.block_len(),
            segmentation.iter().map(|(_, s)| (s.start(), s.end())),
        )
        .max_regions(),
        GraphStyle::AllPairs => Vec::new(),
    }
}

pub(crate) fn build(
    problem: &AllocationProblem,
    segmentation: &Segmentation,
) -> Result<BuiltNetwork, CoreError> {
    let regions = profile_regions(problem, segmentation);
    build_with_regions(problem, segmentation, &regions)
}

/// The BuildNetwork stage proper: emits the §5.1 network over a
/// [`Segmentation`] whose max-density `regions` were already profiled.
///
/// Construction is a counted two-pass: a cheap census over the hand-off
/// windows and hook-up rules first establishes the exact arc total, then
/// every buffer — the arc arena, the handle maps, the tie-break tables — is
/// allocated once at its final size and filled. No buffer ever doubles, so
/// the stage's peak heap equals its retained result, which is what keeps
/// 4k-variable whole-program builds from dominating peak RSS.
pub(crate) fn build_with_regions(
    problem: &AllocationProblem,
    segmentation: &Segmentation,
    regions: &[TickRange],
) -> Result<BuiltNetwork, CoreError> {
    BUILD_ARENA.with(|arena| {
        build_with_regions_in(problem, segmentation, regions, &mut arena.borrow_mut())
    })
}

fn build_with_regions_in(
    problem: &AllocationProblem,
    segmentation: &Segmentation,
    regions: &[TickRange],
    arena: &mut BuildArena,
) -> Result<BuiltNetwork, CoreError> {
    let costs = CostCalculator::new(
        &problem.energy,
        problem.register_energy,
        &problem.activity,
        &problem.carried_in_memory,
        &problem.carried_in_register,
    );
    // t sits after every event; s before every event.
    let infinity = Tick(u32::MAX);
    let source_tick = Tick(0);
    let n = segmentation.len();

    // ---- pass 1: per-segment precompute + exact arc census ---------------
    //
    // The hand-off double loop visits every admitted segment pair;
    // everything that depends on one endpoint only is computed once per
    // segment here, so both the census and the emission loop below are left
    // with an O(1) window test per candidate (plus, in the emission loop,
    // the pair-specific Hamming transition term).
    arena.clear();
    let mut chain_count = 0usize;
    for (_, seg) in segmentation.iter() {
        arena.exit_cost.push(costs.exit(seg));
        arena.enter_cost.push(costs.enter(seg));
        arena
            .register_carried_first
            .push(seg.is_first && problem.carried_in_register.contains(&seg.var));
        arena.starts.push(seg.start());
        arena.ends.push(seg.end());
        arena.var_of.push(seg.var.0);
        chain_count += usize::from(!seg.is_last);
    }
    // Segment ids ordered by start tick (ties by id): the hand-off loop
    // binary-searches this order for the first feasible `to` and stops at the
    // end of the region window, instead of scanning all O(n²) pairs. The sort
    // key depends only on the segmentation, never on costs or capacities, so
    // two problems over the same lifetime table emit identical arc numbering
    // — the determinism the warm-start diff layer relies on.
    arena.by_start.extend(0..n as u32);
    let (starts, by_start) = (&arena.starts, &mut arena.by_start);
    by_start.sort_by_key(|&i| (starts[i as usize], i));

    // Census of the hand-off windows: the same candidate walk as the
    // emission loop, minus the cost terms — cheap enough that running it
    // twice costs far less than letting the arc arena double its way up.
    let mut handoff_count = 0usize;
    for from_idx in 0..n {
        let from_end = arena.ends[from_idx];
        let first_beyond = regions.partition_point(|r| r.start <= from_end);
        let window_end = regions.get(first_beyond).map_or(Tick(u32::MAX), |r| r.end);
        let lo = arena
            .by_start
            .partition_point(|&i| arena.starts[i as usize] < from_end);
        for &to_idx in &arena.by_start[lo..] {
            if arena.starts[to_idx as usize] > window_end {
                break;
            }
            let to = to_idx as usize;
            if arena.var_of[to] == arena.var_of[from_idx] || arena.register_carried_first[to] {
                continue;
            }
            handoff_count += 1;
        }
    }
    let mut source_count = 0usize;
    let mut sink_count = 0usize;
    for (id, seg) in segmentation.iter() {
        let source_ok = region_allows(regions, source_tick, seg.start());
        let carried_register = arena.register_carried_first[id.index()];
        source_count += usize::from(
            source_ok || carried_register || (problem.relief_arcs && seg.forced_register),
        );
        let sink_ok = region_allows(regions, seg.end(), infinity);
        sink_count += usize::from(sink_ok || problem.relief_arcs);
    }
    // n segment arcs + chains + hand-offs + hook-ups + the bypass.
    let arc_total = n + chain_count + handoff_count + source_count + sink_count + 1;

    // ---- pass 2: emission into exactly-sized buffers ---------------------
    let mut net = FlowNetwork::with_capacity(2 + 2 * n, arc_total);
    let s = net.add_node();
    let t = net.add_node();
    let mut write_node = Vec::with_capacity(n);
    let mut read_node = Vec::with_capacity(n);
    let mut segment_arc = Vec::with_capacity(n);
    for (_, seg) in segmentation.iter() {
        let w = net.add_node();
        let r = net.add_node();
        let lb = i64::from(seg.forced_register);
        segment_arc.push(net.add_arc_bounded(w, r, lb, 1, 0)?);
        write_node.push(w);
        read_node.push(r);
    }

    let mut handoff_of = Vec::with_capacity(handoff_count);
    let mut chain_of = Vec::with_capacity(chain_count);
    for (from_id, from) in segmentation.iter() {
        // Chain arc to the variable's next segment — eq. (9).
        if !from.is_last {
            let next = segmentation.id_of(from.var, from.index + 1);
            let arc = net.add_arc(
                read_node[from_id.index()],
                write_node[next.index()],
                1,
                costs.chain(from).raw(),
            )?;
            chain_of.push((arc, from_id));
        }
        // Hand-off window out of `from` under the region rule: a write at
        // `to_start >= from.end()` is admitted unless the first max-density
        // region starting after `from.end()` ends before it (regions are
        // sorted and disjoint, so that region has the smallest end among the
        // candidates `region_allows` would inspect).
        let from_end = from.end();
        let first_beyond = regions.partition_point(|r| r.start <= from_end);
        let window_end = regions.get(first_beyond).map_or(Tick(u32::MAX), |r| r.end);
        // Hand-off arcs to other variables' segments. A register-carried
        // variable's first segment is only reachable from `s` — its value
        // is already in a register at block entry, so it cannot take over
        // another variable's register. Candidates come from `by_start`: the
        // first segment starting at or after `from_end` through the last one
        // inside the region window.
        let lo = arena
            .by_start
            .partition_point(|&i| arena.starts[i as usize] < from_end);
        for &to_idx in &arena.by_start[lo..] {
            let to_start = arena.starts[to_idx as usize];
            if to_start > window_end {
                break;
            }
            let to_id = SegmentId(to_idx);
            if arena.var_of[to_id.index()] == from.var.0
                || arena.register_carried_first[to_id.index()]
            {
                continue;
            }
            let to = segmentation.segment(to_id);
            debug_assert!(region_allows(regions, from_end, to_start));
            let cost = arena.exit_cost[from_id.index()]
                + arena.enter_cost[to_id.index()]
                + costs.transition(from, to);
            debug_assert_eq!(cost, costs.handoff(from, to));
            let arc = net.add_arc(
                read_node[from_id.index()],
                write_node[to_id.index()],
                1,
                cost.raw(),
            )?;
            handoff_of.push((arc, from_id, to_id));
        }
    }

    // Source and sink hook-ups.
    let mut source_of = Vec::with_capacity(source_count);
    let mut sink_of = Vec::with_capacity(sink_count);
    for (id, seg) in segmentation.iter() {
        let source_ok = region_allows(regions, source_tick, seg.start());
        let carried_register = arena.register_carried_first[id.index()];
        if source_ok || carried_register || (problem.relief_arcs && seg.forced_register) {
            let arc = net.add_arc(s, write_node[id.index()], 1, costs.source(seg).raw())?;
            source_of.push((arc, id));
        }
        let sink_ok = region_allows(regions, seg.end(), infinity);
        if sink_ok || problem.relief_arcs {
            let arc = net.add_arc(read_node[id.index()], t, 1, costs.sink(seg).raw())?;
            sink_of.push((arc, id));
        }
    }

    // Unused registers flow straight through.
    let bypass = net.add_arc(s, t, i64::from(problem.registers), 0)?;
    debug_assert_eq!(net.arc_count(), arc_total, "arc census out of sync");

    // Chain and hand-off arcs get the tie-break discount: among equal-cost
    // optima, prefer the maximally-chained one (fewest registers touched).
    let mut preferred = vec![false; net.arc_count()];
    for &(arc, _, _) in &handoff_of {
        preferred[arc.index()] = true;
    }
    for &(arc, _) in &chain_of {
        preferred[arc.index()] = true;
    }
    let (cost_scale, cost_unit, tie_weights, tie_bits) =
        apply_tie_break(&mut net, &preferred, None);

    // Chains and hand-offs only join a segment's read to the write of a
    // segment starting at or after its end, so the network is a DAG and SSP
    // never meets a negative-cost cycle.
    debug_assert!(
        net.is_positive_capacity_dag(),
        "allocation network has a cycle"
    );

    Ok(BuiltNetwork {
        net,
        s,
        t,
        segment_arc,
        read_node,
        write_node,
        handoff_of,
        chain_of,
        source_of,
        sink_of,
        bypass,
        cost_scale,
        cost_unit,
        tie_weights,
        preferred,
        tie_bits,
    })
}

/// Re-prices a previously [`build`]-t network for a new parameter point over
/// the *same* topology (lifetimes, split, style, relief and register-carry
/// sets unchanged): every arc's raw cost is recomputed from the new
/// problem's energy model, the bypass capacity is reset to the new register
/// count, and the tie-break transform is re-applied. The result is
/// bit-identical to what a fresh [`build`] would produce — only ~3× cheaper,
/// because the segmentation scan, region profile and hand-off window search
/// are all skipped. [`SweepAllocator`](crate::SweepAllocator) calls this on
/// topology-stable sweep points so warm solves don't pay construction costs.
pub(crate) fn refresh(
    problem: &AllocationProblem,
    segmentation: &Segmentation,
    built: &mut BuiltNetwork,
) -> Result<(), CoreError> {
    let costs = CostCalculator::new(
        &problem.energy,
        problem.register_energy,
        &problem.activity,
        &problem.carried_in_memory,
        &problem.carried_in_register,
    );
    // Capacity before costs: `apply_tie_break` reads capacities when sizing
    // the weight resolution, and the bypass carries the register count.
    built
        .net
        .set_arc_capacity(built.bypass, i64::from(problem.registers))
        .map_err(CoreError::Flow)?;
    built.net.set_arc_cost(built.bypass, 0);
    for &arc in &built.segment_arc {
        built.net.set_arc_cost(arc, 0);
    }
    for &(arc, from) in &built.chain_of {
        let cost = costs.chain(segmentation.segment(from));
        built.net.set_arc_cost(arc, cost.raw());
    }
    // Same one-endpoint precompute as `build`, in the same per-thread
    // arena: the hand-off list is the quadratic part of the network.
    BUILD_ARENA.with(|arena| {
        let mut arena = arena.borrow_mut();
        arena.clear();
        for (_, seg) in segmentation.iter() {
            arena.exit_cost.push(costs.exit(seg));
            arena.enter_cost.push(costs.enter(seg));
        }
        for &(arc, from_id, to_id) in &built.handoff_of {
            let from = segmentation.segment(from_id);
            let to = segmentation.segment(to_id);
            let cost = arena.exit_cost[from_id.index()]
                + arena.enter_cost[to_id.index()]
                + costs.transition(from, to);
            debug_assert_eq!(cost, costs.handoff(from, to));
            built.net.set_arc_cost(arc, cost.raw());
        }
    });
    for &(arc, seg) in &built.source_of {
        let cost = costs.source(segmentation.segment(seg));
        built.net.set_arc_cost(arc, cost.raw());
    }
    for &(arc, seg) in &built.sink_of {
        let cost = costs.sink(segmentation.segment(seg));
        built.net.set_arc_cost(arc, cost.raw());
    }
    // The preference mask is topology-only and the splitmix64 weights are a
    // pure function of (arc index, resolution, preference), so both carry
    // over from the previous point. Only the resolution choice depends on
    // the new costs; when it lands on the same width — the common case in a
    // sweep — the cached weight vector is reused bit-for-bit and the refresh
    // reduces to the arc-cost rewrite.
    let cached =
        (built.tie_bits > 0).then(|| (built.tie_bits, std::mem::take(&mut built.tie_weights)));
    let (cost_scale, cost_unit, tie_weights, tie_bits) =
        apply_tie_break(&mut built.net, &built.preferred, cached);
    built.cost_scale = cost_scale;
    built.cost_unit = cost_unit;
    built.tie_weights = tie_weights;
    built.tie_bits = tie_bits;
    Ok(())
}

/// Deterministic per-arc tie-break weight at a given resolution: the top
/// `bits` bits of a splitmix64-finalised hash of the arc index. The
/// xor-shift rounds matter — a bare multiply is linear, so crossing
/// hand-off swaps with equal arc-index sums (`a1+a2 == a3+a4`, routine when
/// two rows list the same candidates) would collide in aggregate no matter
/// how wide the weights are. Preferred arcs (chains and hand-offs) are
/// shifted down by a full `2^bits` so every one of them undercuts every
/// non-preferred arc in a tie.
fn tie_weight(arc: usize, bits: u32, preferred: bool) -> i64 {
    let mut z = (arc as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let hashed = (z >> (64 - bits)) as i64;
    if preferred {
        hashed - (1i64 << bits)
    } else {
        hashed
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a.abs()
    } else {
        gcd(b, a % b)
    }
}

/// Makes the min-cost flow optimum (generically) unique: every arc cost is
/// divided by the costs' common quantum (their gcd — energy deltas are
/// heavily quantised, so this is typically worth ~11 bits of headroom),
/// scaled by a common factor `M`, and offset by its [`tie_weight`], with `M`
/// exceeding any possible weight total a flow can accumulate. Flows that
/// differ in raw cost then still compare the same way (the raw gap is ≥ 1
/// quantum, worth more than `M` > any weight sum), while raw-cost ties are
/// broken by the hashed weights — so warm-started and cold solves land on
/// the *same* optimum instead of two equal-cost alternatives, which is what
/// lets a sweep promise identical placements, not just identical objectives.
///
/// The weight resolution adapts to the instance: the widest width up to 24
/// bits whose scaled magnitudes leave the solver's `i64` arithmetic ample
/// headroom. Wider weights make an aggregate hash collision — two tied
/// flows whose weight sums also tie — exponentially less likely. Returns
/// `(scale, unit, weights, bits)`; `(1, 1, [], 0)` when even 1-bit weights
/// would not fit, in which case the costs are left untouched. Every decision
/// depends only on the network, so all solvers see the same costs for a
/// problem.
///
/// `cached` may carry a previous application's `(bits, weights)` over the
/// same topology: when the freshly-chosen resolution matches, the weight
/// vector is reused instead of re-hashed — bit-identical by construction,
/// since weights depend only on arc index, resolution and preference.
fn apply_tie_break(
    net: &mut FlowNetwork,
    preferred: &[bool],
    cached: Option<(u32, Vec<i64>)>,
) -> (i64, i64, Vec<i64>, u32) {
    let unit = net.arcs().fold(0i64, |g, (_, arc)| gcd(g, arc.cost)).max(1);
    // Σ cap·|c/unit| ≥ any flow's |cost| total, in quanta.
    let cost_magnitude = net.arcs().fold(0i64, |m, (_, arc)| {
        m.saturating_add(arc.capacity.saturating_mul((arc.cost / unit).abs()))
    });
    let headroom = i64::MAX / 8;
    let cap_total = net
        .arcs()
        .fold(0i64, |t, (_, arc)| t.saturating_add(arc.capacity));
    // Pick the widest weight resolution whose *bound* fits — `cap_total·2^b`
    // over-estimates Σ cap·|w| by at most 2×, and using the bound keeps the
    // selection a cheap O(1)-per-candidate scan instead of an O(arcs) pass
    // per candidate width.
    let Some(bits) = (1..=24u32).rev().find(|&bits| {
        let bound = cap_total.saturating_mul(1i64 << bits);
        cost_magnitude
            .checked_mul(bound.saturating_add(1))
            .and_then(|v| v.checked_add(bound))
            .is_some_and(|total| total < headroom)
    }) else {
        return (1, 1, Vec::new(), 0);
    };
    let weights: Vec<i64> = match cached {
        Some((cached_bits, weights)) if cached_bits == bits && weights.len() == net.arc_count() => {
            debug_assert!(weights
                .iter()
                .enumerate()
                .all(|(a, &w)| w == tie_weight(a, bits, preferred[a])));
            weights
        }
        _ => (0..net.arc_count())
            .map(|a| tie_weight(a, bits, preferred[a]))
            .collect(),
    };
    // Σ cap·|w| ≥ any |Σ Δf·w| over flow pairs.
    let weight_total = net.arcs().fold(0i64, |t, (id, arc)| {
        t.saturating_add(arc.capacity.saturating_mul(weights[id.index()].abs()))
    });
    let scale = weight_total.saturating_add(1);
    // In place, one version bump: no staging buffer of (arc, cost) pairs —
    // on a 4k-variable network that intermediate was several MB of churn
    // per build and per sweep point.
    net.map_costs(|id, arc| (arc.cost / unit) * scale + weights[id.index()]);
    (scale, unit, weights, bits)
}

/// The §5.1 flow network of a problem together with its stable arc-handle
/// maps — the problem-diff layer's view of [`build`]'s output.
///
/// Construction is deterministic: node and arc numbering depend only on the
/// segmentation (lifetime table plus split options), never on costs,
/// capacities or the register count. Two problems over the same lifetime
/// table therefore produce networks whose arcs line up index-for-index,
/// which is what lets a sweep express successive parameter points as arc
/// deltas on one retained network (see
/// [`SweepAllocator`](crate::SweepAllocator)).
#[derive(Debug)]
pub struct NetworkView {
    /// The flow network (solve it for `R` units from `source` to `sink`).
    pub net: FlowNetwork,
    /// Source node `s`.
    pub source: NodeId,
    /// Sink node `t`.
    pub sink: NodeId,
    /// Per segment (by [`SegmentId`] index): its `w → r` arc; unit flow on
    /// it places the segment in a register.
    pub segment_arc: Vec<ArcId>,
    /// Hand-off arcs as `(arc, from_segment, to_segment)`.
    pub handoff_arcs: Vec<(ArcId, SegmentId, SegmentId)>,
    /// Chain arcs as `(arc, from_segment)`; the head is the variable's next
    /// segment.
    pub chain_arcs: Vec<(ArcId, SegmentId)>,
    /// The zero-cost `s → t` bypass absorbing unused registers.
    pub bypass: ArcId,
    /// Arc costs are energy deltas divided by [`Self::cost_unit`], scaled by
    /// this factor, and offset by a small deterministic per-arc tie-break
    /// weight so the optimum is unique; de-weight a solution's cost, divide
    /// by this, and multiply by the unit to recover micro-energy units. 1
    /// when the perturbation was skipped for headroom.
    pub cost_scale: i64,
    /// Common quantum divided out of every raw cost before scaling (1 when
    /// the perturbation was skipped).
    pub cost_unit: i64,
}

/// Builds the flow network for `problem` and returns it with the arc-handle
/// maps; see [`NetworkView`] for the determinism guarantee.
///
/// # Errors
///
/// Returns [`CoreError::Flow`] if network construction fails (an internal
/// error for well-formed problems).
pub fn build_network(problem: &AllocationProblem) -> Result<NetworkView, CoreError> {
    let segmentation = Segmentation::new(&problem.lifetimes, &problem.split);
    let built = build(problem, &segmentation)?;
    Ok(NetworkView {
        net: built.net,
        source: built.s,
        sink: built.t,
        segment_arc: built.segment_arc,
        handoff_arcs: built.handoff_of,
        chain_arcs: built.chain_of,
        bypass: built.bypass,
        cost_scale: built.cost_scale,
        cost_unit: built.cost_unit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SplitOptions;
    use lemra_ir::{LifetimeTable, Step};

    fn figure1_table() -> LifetimeTable {
        LifetimeTable::from_intervals(
            7,
            vec![
                (1, vec![3], false), // a
                (1, vec![3], false), // b
                (2, vec![], true),   // c
                (3, vec![], true),   // d
                (5, vec![7], false), // e
            ],
        )
        .unwrap()
    }

    #[test]
    fn region_rule() {
        let regions = vec![
            TickRange {
                start: Tick(5),
                end: Tick(7),
            },
            TickRange {
                start: Tick(11),
                end: Tick(14),
            },
        ];
        // Within one gap: fine.
        assert!(region_allows(&regions, Tick(8), Tick(10)));
        // Region boundary contact: fine.
        assert!(region_allows(&regions, Tick(5), Tick(10)));
        assert!(region_allows(&regions, Tick(2), Tick(7)));
        // Spans the second region entirely: rejected.
        assert!(!region_allows(&regions, Tick(8), Tick(16)));
        // Backwards in time: rejected.
        assert!(!region_allows(&regions, Tick(9), Tick(8)));
    }

    #[test]
    fn figure1_network_shape() {
        let problem = crate::AllocationProblem::new(figure1_table(), 2);
        let segs = Segmentation::new(&problem.lifetimes, &SplitOptions::none());
        let built = build(&problem, &segs).unwrap();
        // 2 terminals + 2 nodes per segment.
        assert_eq!(built.net.node_count(), 2 + 2 * segs.len());
        // a's read (t3r) can hand off to d (t3w) and e (t5w): both in the
        // gap between the two max-density regions.
        let a_handoffs: Vec<_> = built
            .handoff_of
            .iter()
            .filter(|(_, from, _)| segs.segment(*from).var == lemra_ir::VarId(0))
            .map(|(_, _, to)| segs.segment(*to).var)
            .collect();
        assert!(a_handoffs.contains(&lemra_ir::VarId(3))); // d
        assert!(a_handoffs.contains(&lemra_ir::VarId(4))); // e
                                                           // a cannot hand off to c (c starts before a ends).
        assert!(!a_handoffs.contains(&lemra_ir::VarId(2)));
    }

    #[test]
    fn all_pairs_has_at_least_region_arcs() {
        let table = figure1_table();
        let p_regions = crate::AllocationProblem::new(table.clone(), 2);
        let p_all = crate::AllocationProblem::new(table, 2)
            .with_style(GraphStyle::AllPairs)
            .with_relief_arcs(false);
        let segs = Segmentation::new(&p_regions.lifetimes, &SplitOptions::none());
        let built_r = build(&p_regions, &segs).unwrap();
        let built_a = build(&p_all, &segs).unwrap();
        assert!(built_a.handoff_of.len() >= built_r.handoff_of.len());
    }

    #[test]
    fn forced_segment_arc_has_lower_bound() {
        let table = LifetimeTable::from_intervals(8, vec![(2, vec![4], false)]).unwrap();
        let problem = crate::AllocationProblem::new(table, 1).with_access_period(4);
        let segs = Segmentation::new(&problem.lifetimes, &problem.split);
        assert!(segs.segment(crate::SegmentId(0)).forced_register);
        let built = build(&problem, &segs).unwrap();
        let arc = built.net.arc(built.segment_arc[0]);
        assert_eq!(arc.lower_bound, 1);
    }

    #[test]
    fn chain_arcs_connect_split_segments() {
        let table = LifetimeTable::from_intervals(8, vec![(1, vec![3, 7], false)]).unwrap();
        let problem = crate::AllocationProblem::new(table, 1);
        let segs = Segmentation::new(&problem.lifetimes, &problem.split);
        assert_eq!(segs.len(), 2);
        let built = build(&problem, &segs).unwrap();
        assert_eq!(built.chain_of.len(), 1);
        let (arc, from) = built.chain_of[0];
        assert_eq!(from, crate::SegmentId(0));
        let a = built.net.arc(arc);
        assert_eq!(a.from, built.read_node[0]);
        assert_eq!(a.to, built.write_node[1]);
    }

    #[test]
    fn arc_numbering_is_deterministic_across_parameter_points() {
        // Two sweep points over one lifetime table — different energy
        // model, objective and register count — must produce networks whose
        // arcs line up index-for-index (endpoints and lower bounds equal),
        // with identical handle maps. This is the contract the warm-start
        // diff layer depends on.
        let table = figure1_table();
        let a = crate::AllocationProblem::new(table.clone(), 2);
        let b = crate::AllocationProblem::new(table, 5)
            .with_energy(lemra_energy::EnergyModel::default_16bit().with_memory_voltage(1.2))
            .with_register_energy(lemra_energy::RegisterEnergyKind::Static);
        let va = build_network(&a).unwrap();
        let vb = build_network(&b).unwrap();
        assert_eq!(va.net.node_count(), vb.net.node_count());
        assert_eq!(va.net.arc_count(), vb.net.arc_count());
        for ((_, x), (_, y)) in va.net.arcs().zip(vb.net.arcs()) {
            assert_eq!(x.from, y.from);
            assert_eq!(x.to, y.to);
            assert_eq!(x.lower_bound, y.lower_bound);
        }
        assert_eq!(va.segment_arc, vb.segment_arc);
        assert_eq!(va.handoff_arcs, vb.handoff_arcs);
        assert_eq!(va.chain_arcs, vb.chain_arcs);
        assert_eq!(va.bypass, vb.bypass);
        // Only the bypass capacity (the register count) may differ.
        assert_eq!(va.net.arc(va.bypass).capacity, 2);
        assert_eq!(vb.net.arc(vb.bypass).capacity, 5);
        // Hand-off arcs out of each segment are emitted in start-tick order.
        let segs = Segmentation::new(&a.lifetimes, &a.split);
        for w in va.handoff_arcs.windows(2) {
            let ((_, f0, t0), (_, f1, t1)) = (w[0], w[1]);
            if f0 == f1 {
                let key0 = (segs.segment(t0).start(), t0);
                let key1 = (segs.segment(t1).start(), t1);
                assert!(key0 <= key1, "hand-offs out of order");
            }
        }
    }

    #[test]
    fn refresh_reprices_bit_identically_to_fresh_build() {
        // Re-pricing point a's network for point b (different voltage,
        // register accounting and register count) must reproduce b's fresh
        // build exactly — costs, capacities and tie-break encoding alike —
        // so the warm path solves the very same instance the cold path does.
        let table = figure1_table();
        let a = crate::AllocationProblem::new(table.clone(), 2);
        let b = crate::AllocationProblem::new(table, 5)
            .with_energy(lemra_energy::EnergyModel::default_16bit().with_memory_voltage(1.2))
            .with_register_energy(lemra_energy::RegisterEnergyKind::Static);
        let segs = Segmentation::new(&a.lifetimes, &a.split);
        let mut refreshed = build(&a, &segs).unwrap();
        refresh(&b, &segs, &mut refreshed).unwrap();
        let fresh = build(&b, &segs).unwrap();
        assert_eq!(refreshed.cost_scale, fresh.cost_scale);
        assert_eq!(refreshed.cost_unit, fresh.cost_unit);
        assert_eq!(refreshed.tie_weights, fresh.tie_weights);
        assert_eq!(refreshed.net.arc_count(), fresh.net.arc_count());
        for ((_, x), (_, y)) in refreshed.net.arcs().zip(fresh.net.arcs()) {
            assert_eq!(x.from, y.from);
            assert_eq!(x.to, y.to);
            assert_eq!(x.lower_bound, y.lower_bound);
            assert_eq!(x.capacity, y.capacity);
            assert_eq!(x.cost, y.cost);
        }
    }

    #[test]
    fn repeated_refresh_reuses_cached_tie_weights_bit_identically() {
        // Drive one retained network through a sweep — voltage, register
        // accounting and register-count moves (the last shifts `cap_total`,
        // which can shift the tie-break resolution and force the re-hash
        // path) — and compare every refresh against an uncached fresh build
        // of the same point. The cached weight reuse must be invisible.
        let table = figure1_table();
        let points: Vec<crate::AllocationProblem> = [
            (3.3, 2u32),
            (2.4, 2),
            (1.8, 5),
            (1.2, 1_000_000_000),
            (3.3, 2),
        ]
        .into_iter()
        .map(|(volts, regs)| {
            crate::AllocationProblem::new(table.clone(), regs)
                .with_energy(lemra_energy::EnergyModel::default_16bit().with_memory_voltage(volts))
        })
        .collect();
        let segs = Segmentation::new(&points[0].lifetimes, &points[0].split);
        let mut retained = build(&points[0], &segs).unwrap();
        let mut resolutions = vec![retained.tie_bits];
        for p in &points[1..] {
            refresh(p, &segs, &mut retained).unwrap();
            resolutions.push(retained.tie_bits);
            let fresh = build(p, &segs).unwrap();
            assert_eq!(retained.cost_scale, fresh.cost_scale);
            assert_eq!(retained.cost_unit, fresh.cost_unit);
            assert_eq!(retained.tie_bits, fresh.tie_bits);
            assert_eq!(retained.tie_weights, fresh.tie_weights);
            assert_eq!(retained.preferred, fresh.preferred);
            for ((_, x), (_, y)) in retained.net.arcs().zip(fresh.net.arcs()) {
                assert_eq!((x.capacity, x.cost), (y.capacity, y.cost));
            }
        }
        // The sweep must exercise both the cache-hit path (stable
        // resolution between consecutive points) and the re-hash path (the
        // register-count jump moves the resolution).
        assert!(resolutions.windows(2).any(|w| w[0] == w[1]), "no cache hit");
        assert!(
            resolutions.windows(2).any(|w| w[0] != w[1]),
            "resolution never moved: {resolutions:?}"
        );
    }

    #[test]
    fn counted_build_reserves_exact_capacities() {
        // The census and the emission loop must agree, and no buffer may
        // over-reserve: peak build heap equals the retained result.
        let problem = crate::AllocationProblem::new(figure1_table(), 2);
        let segs = Segmentation::new(&problem.lifetimes, &SplitOptions::none());
        let built = build(&problem, &segs).unwrap();
        assert_eq!(
            built.net.heap_bytes(),
            built.net.arc_count() * std::mem::size_of::<lemra_netflow::Arc>()
        );
        assert_eq!(built.handoff_of.capacity(), built.handoff_of.len());
        assert_eq!(built.chain_of.capacity(), built.chain_of.len());
        assert_eq!(built.source_of.capacity(), built.source_of.len());
        assert_eq!(built.sink_of.capacity(), built.sink_of.len());
        assert!(built.heap_bytes() > built.net.heap_bytes());
    }

    #[test]
    fn extra_split_changes_shape() {
        let table = LifetimeTable::from_intervals(8, vec![(1, vec![8], false)]).unwrap();
        let problem =
            crate::AllocationProblem::new(table, 1).with_extra_split(lemra_ir::VarId(0), Step(4));
        let segs = Segmentation::new(&problem.lifetimes, &problem.split);
        assert_eq!(segs.len(), 2);
    }
}
