// Flow-level network model with max-min fair bandwidth sharing.
//
// Each in-flight unicast transfer is a fluid flow. Whenever the set of
// active flows changes, rates are re-allocated to the max-min fair
// allocation — the standard fluid approximation of the fair sharing that
// RDMA hardware (and DCQCN/TIMELY) provides, the property the paper leans
// on in §3 item 5 and exercises in Figs 9-10.
//
// Resources: per-node NIC tx and rx ports, per-rack uplink/downlink, and
// optional per-directed-pair caps (slow links, §4.5 item 2).
//
// Scaling design (the simulator is our hardware, so this is the hot loop):
//   * resource→flow membership is maintained persistently — a flow is wired
//     into its resources once at start and unwired at finish, instead of the
//     whole table being rebuilt on every reallocation;
//   * a flow-set change refills only the flows on the changed resources,
//     holding every neighbouring flow at its current rate. The max-min
//     allocation is the unique feasible allocation in which every flow has a
//     bottleneck (a saturated resource where its rate is maximal), so after
//     the local fill those conditions are checked on the boundary; a
//     neighbour that violates them joins the local set and the fill repeats.
//     In lock-step schedules the affected set is tiny even when the
//     connected component spans every active flow, turning O(F log F) per
//     change into O(k log k) for k ≈ the flows whose rates actually change.
//     If expansion fails to settle quickly the code falls back to a full
//     recomputation of the affected connected component;
//   * the affected set is split into its *connected components* (flows
//     linked through shared in-set resources) and every component is
//     prepared, filled and boundary-validated independently, in canonical
//     component order. At a lock-step boundary the local set is a union of
//     hundreds of disjoint few-flow components — one per completing/starting
//     transfer pair — which one joint fill would handle as a single giant
//     heap. Splitting makes the cost Σ O(k_i log k_i) instead of
//     O(K log K) and lets an expansion round refill only the components
//     that actually grew (everyone else's scratch rates and aggregates
//     stand);
//   * each fill runs the *exact bottleneck-elimination* algorithm: every
//     resource sits in an indexed min-heap keyed by its saturation level
//     (residual capacity / unfrozen degree); the minimum pops, its flows
//     freeze at the fair share, and each neighbouring resource's residual
//     capacity and degree are decremented in place (one sift per incidence,
//     no stale entries). A fill costs O((F + R) log R) and the number of
//     heap pops equals the number of saturating resources;
//   * the incidence-bound loops read hot per-flow state from dense
//     slot-indexed vectors, each fill splits every resource's member list
//     into local/boundary arenas once, and boundary validation runs off
//     per-resource aggregates maintained by the fill itself;
//   * flow progress uses virtual-work accounting; projected completion
//     times live in an indexed min-heap; FlowId encodes (generation, slab
//     slot) for O(1) id lookups;
//   * in assert-enabled builds (or via set_cross_check) every incremental
//     recomputation is validated against a from-scratch full water-filling
//     by the *old progressive* algorithm, which is kept, unoptimized, as
//     the independent oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/topology.hpp"

namespace rdmc::sim {

using FlowId = std::uint64_t;
inline constexpr FlowId kInvalidFlow = 0;

class FlowNetwork {
 public:
  FlowNetwork(Simulator& sim, Topology& topology);

  /// Begin transferring `bytes` from src to dst. `on_complete` fires (in
  /// virtual time) when the last byte leaves the source; the caller adds
  /// propagation latency for receive-side events. Zero-byte flows are
  /// treated as one byte so every flow takes non-zero time.
  FlowId start_flow(NodeId src, NodeId dst, double bytes,
                    std::function<void(SimTime)> on_complete);

  /// Abort an in-flight flow (failure injection); its callback never fires.
  /// No-op for unknown/finished ids.
  void abort_flow(FlowId id);

  /// Apply a topology capacity mutation (set_pair_cap / set_node_nic) at
  /// the current virtual instant. Without this, a mid-run mutation only
  /// takes effect at the next flow start/finish — fine for degradations
  /// injected before the run, wrong for failure injection at time t.
  void topology_changed() { mark_dirty(); }

  std::size_t active_flows() const { return active_count_; }

  /// Current fair-share rate of a flow in bytes/sec (0 if unknown).
  double flow_rate(FlowId id) const;

  /// Total payload bytes fully delivered since construction.
  double bytes_completed() const { return bytes_completed_; }

  /// Profiling counters for perf tracking (BENCH_core.json).
  struct Counters {
    std::uint64_t reallocations = 0;   // rate recomputations (any scope)
    std::uint64_t filling_rounds = 0;  // bottleneck saturations (heap pops)
    std::uint64_t flows_touched = 0;   // sum of recomputed set sizes
    std::uint64_t max_component = 0;   // largest single component filled
    std::uint64_t expand_rounds = 0;   // local-set growth iterations
    std::uint64_t full_recomputes = 0; // fills that covered every flow
    std::uint64_t flow_starts = 0;
    std::uint64_t flow_completions = 0;
    std::uint64_t flow_aborts = 0;
    std::uint64_t cross_checks = 0;    // debug full-recompute validations
    std::uint64_t component_fills = 0; // independent component fills
    // Retired, always 0: the shape memo, the rack-island solver and the
    // saturation-cut splitter these counted are gone. Kept only so the
    // benchmark sources that still read them (perfbench) compile.
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    std::uint64_t hier_fills = 0;
    std::uint64_t hier_fallbacks = 0;
    std::uint64_t split_cuts = 0;
  };
  const Counters& counters() const { return counters_; }
  std::uint64_t reallocations() const { return counters_.reallocations; }
  std::uint64_t filling_rounds() const { return counters_.filling_rounds; }

  /// When enabled, every incremental recomputation is cross-checked against
  /// a from-scratch full water-filling by the progressive (oracle)
  /// algorithm; divergence aborts. Defaults to on in assert-enabled builds,
  /// off in NDEBUG builds.
  void set_cross_check(bool on) { cross_check_ = on; }

  /// Recompute every rate from scratch (ignoring the incremental state) and
  /// compare with the incrementally maintained rates. True when every flow
  /// matches within `rel_tol` relative tolerance. `use_exact_fill` selects
  /// the production bottleneck-elimination algorithm for the recompute;
  /// the default runs the independent progressive oracle.
  bool rates_match_full_recompute(double rel_tol = 1e-9,
                                  bool use_exact_fill = false);

  Topology& topology() { return topology_; }
  const Topology& topology() const { return topology_; }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// One capacity constraint. Lives for the whole simulation; `members`
  /// is the persistently maintained set of active flows crossing it.
  /// `rem`/`last_lambda`/`live` are per-fill scratch implementing lazy
  /// water-level accounting: the capacity remaining at global fill level
  /// lambda is rem - (lambda - last_lambda) * live.
  struct Resource {
    enum class Kind : std::uint8_t { kTx, kRx, kRackUp, kRackDown, kPair };
    Kind kind = Kind::kTx;
    std::uint32_t index = 0;  // node, rack, or pair ordinal
    std::uint32_t id = 0;     // stable id; disjoint range per class
    std::uint64_t pair_key = 0;
    std::vector<std::uint32_t> members;  // slab indices of crossing flows

    double cap = 0.0;
    double rem = 0.0;
    double last_lambda = 0.0;
    std::uint32_t live = 0;
    std::uint64_t fill_epoch = 0;
    std::uint64_t visit_epoch = 0;
    std::uint64_t split_epoch = 0;  // component-split BFS stamp
    // Exact-fill scratch: indexed-heap position/key and the resource's
    // ordinal in the component being filled (the heap tie-break).
    std::uint32_t fill_pos = kNone;
    double fill_key = 0.0;
    std::uint32_t comp_index = 0;
    /// Index into comps_ of the component this resource was last split or
    /// merged into. Valid only when comps_[comp_id].stamp == split_epoch —
    /// epochs are globally unique, so a stale id from an earlier round or
    /// reallocation can never validate. Lets expansion rounds merge grown
    /// components in place instead of re-running the global BFS.
    std::uint32_t comp_id = kNone;
    /// Active flows whose *applied* bottleneck is this resource — lets
    /// boundary validation skip resources nobody's rate depends on.
    std::uint32_t bn_count = 0;
    // Per-fill validation aggregates, maintained by fill_prepare (boundary
    // side) and the fills (local side) so validate_boundary no longer
    // needs a usage/max pass over every member list:
    //   usage_b / max_b / min_b — sum/max/min of boundary member rates;
    //   usage_local / max_local — sum/max of freshly filled local rates;
    //   sat_lambda (valid when sat_fill matches the fill epoch) — the level
    //     this resource saturated at, i.e. the rate of every local flow
    //     bottlenecked here.
    double usage_b = 0.0;
    double max_b = 0.0;
    double min_b = 0.0;
    double usage_local = 0.0;
    double max_local = 0.0;
    double sat_lambda = 0.0;
    std::uint64_t sat_fill = 0;
    // Slices of local_arena_/boundary_arena_ holding this resource's
    // members split by side, rebuilt by each fill_prepare.
    std::uint32_t lmem_off = 0, lmem_cnt = 0;
    std::uint32_t bmem_off = 0, bmem_cnt = 0;
  };

  /// Cold per-flow state. The fields the fill/validate inner loops read
  /// per *membership incidence* (current rate, visit/freeze epochs, applied
  /// bottleneck) live in dense slot-indexed vectors instead — one Flow is
  /// ~200 bytes with the std::function, so scanning a member list through
  /// the slab costs a cache miss per member, while the hot vectors pack 8
  /// slots per line.
  struct Flow {
    NodeId src = 0;
    NodeId dst = 0;
    double total = 0.0;
    double remaining = 0.0;  // bytes left as of last_update
    SimTime last_update = 0.0;
    SimTime proj_done = 0.0;  // last_update + remaining / rate
    FlowId id = kInvalidFlow;    // (generation << 32) | slot
    std::uint64_t seq = 0;       // start order: heap ties, trace span ids
    std::uint32_t generation = 1;
    std::function<void(SimTime)> on_complete;
    // Persistent membership: resources crossed, and this flow's position in
    // each resource's member list (for O(1) swap-removal).
    Resource* res[5] = {};
    std::uint32_t pos_in_res[5] = {};
    std::uint32_t res_count = 0;
    bool placed = false;  // membership built (happens at first flush)
    std::uint32_t heap_pos = kNone;  // completion-heap index
    std::uint32_t next_free = kNone;
  };

  /// One connected component of the set being refilled: contiguous slices
  /// of split_flows_/split_res_ in canonical (BFS-from-first-flow) order.
  struct CompSpan {
    std::uint32_t flow_off = 0, flow_cnt = 0;
    std::uint32_t res_off = 0, res_cnt = 0;
    std::uint64_t fill = 0;     // fill epoch assigned by fill_prepare
    /// Membership token: equals the split_epoch of every resource in the
    /// span, minted by split_components / merge_expansion. A resource's
    /// comp_id is believed only when
    /// comps_[comp_id].stamp == r->split_epoch — epochs are globally
    /// unique, so stale ids from earlier rounds or reallocations never
    /// validate. 0 on the round-one pseudo-component, which no merge ever
    /// sees (the first expansion round re-splits it).
    std::uint64_t stamp = 0;
    bool dirty = false;  // gained a flow this round -> must refill
    /// Absorbed into a merged component by an expansion round; the span is
    /// stale and every phase skips it.
    bool dead = false;
  };

  // -- flow slab ----------------------------------------------------------
  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);
  /// Slot for a live id, kNone otherwise — O(1): the id names its slot and
  /// the generation check rejects stale/unknown ids.
  std::uint32_t slot_of(FlowId id) const;
  /// Unwire a flow from its resources (seeding the dirty set), drop it from
  /// the completion heap, and release its slot.
  void remove_flow(std::uint32_t slot);

  // -- membership & components -------------------------------------------
  void build_membership(std::uint32_t slot);
  void rebuild_all_membership();
  /// Charge elapsed virtual time against one flow's remaining bytes.
  void settle(std::uint32_t slot);

  // -- reallocation -------------------------------------------------------
  /// Flow-set changes within one virtual instant are coalesced into a
  /// single rate recomputation via a same-time event.
  void mark_dirty();
  void flush_dirty();
  /// Place pending flows, then recompute exactly the rates the flow-set
  /// change can affect (component split + per-component fill + boundary
  /// expansion, see file comment).
  void reallocate_dirty();
  /// Collect every active flow and every non-empty resource.
  void gather_all_active(std::vector<std::uint32_t>& flows,
                         std::vector<Resource*>& resources);
  /// Settle each flow, adopt its scratch rate/bottleneck, reproject its
  /// completion, and fix up the completion heap.
  void apply_rates(const std::vector<std::uint32_t>& flows);
  /// Split comp_flows_/comp_resources_ into connected components (flows
  /// linked through in-set resources; `mark` 0 means every member is
  /// in-set), writing canonical-order spans into comps_. A component is
  /// dirty when one of its flows carries `fresh_token` in fresh_epoch_.
  void split_components(std::uint64_t mark, std::uint64_t fresh_token);
  /// Expansion-round alternative to re-running split_components: the flows
  /// appended by validate_boundary since `fresh_begin` (the new local
  /// flows) are unioned with the existing components their resources
  /// belong to — components are BFS closures, so a merged component is the
  /// union of the absorbed spans, the fresh flows and their brand-new
  /// resources, with no traversal of old member lists. Absorbed components
  /// are marked dead, merged ones appended dirty; untouched components
  /// keep their spans, rates and verdicts.
  void merge_expansion(std::size_t fresh_begin);
  /// Prepare + fill every dirty component in comps_, in canonical order.
  /// Fills rates/bottlenecks scratch and the per-resource aggregates;
  /// updates the fill counters.
  void fill_dirty_components(std::uint64_t mark);
  /// Check the max-min bottleneck conditions for boundary flows adjacent to
  /// one just-filled component (marked with `mark`); flows whose rates can
  /// no longer be justified are stamped (visit `mark`, fresh
  /// `fresh_token`) and appended to comp_flows_. Runs off the per-resource
  /// aggregates and the boundary arena the fill left behind: each resource
  /// is first gated in O(1) (can any boundary member possibly trigger?)
  /// and only gate failures scan their boundary members.
  void validate_boundary(const CompSpan& comp, std::uint64_t mark,
                         std::uint64_t fresh_token);

  /// Stamp the component with a fresh fill epoch, split each resource's
  /// member list into local/boundary arena slices, and compute residual
  /// capacity (boundary rates subtracted), unfrozen degree and the
  /// boundary-side validation aggregates. Appends to the round-scoped
  /// arenas (cleared by the caller once per round).
  void fill_prepare(CompSpan& comp, std::uint64_t local_mark);
  /// Exact bottleneck elimination over a prepared component; writes
  /// per-slot rates into rates_scratch_ and freeze resources into
  /// bottleneck_scratch_. Returns the number of filling rounds (heap
  /// pops); the caller decides whether they count.
  std::uint64_t fill_exact(const CompSpan& comp);
  /// The pre-optimization progressive lazy-heap water filling, kept as the
  /// independent oracle behind set_cross_check / the property tests.
  void water_fill_progressive(const std::vector<std::uint32_t>& comp_flows,
                              const std::vector<Resource*>& comp_resources,
                              std::uint64_t local_mark = 0);
  double resource_capacity(const Resource& r) const;

  // -- exact-fill indexed resource heap -----------------------------------
  /// Ties break on the component-relative ordinal (not the global id), so
  /// the fill is a pure function of the component's canonical order.
  static bool res_heap_less(const Resource* a, const Resource* b) {
    if (a->fill_key != b->fill_key) return a->fill_key < b->fill_key;
    return a->comp_index < b->comp_index;
  }
  static void res_heap_sift_up(std::vector<Resource*>& heap,
                               std::uint32_t pos);
  static void res_heap_sift_down(std::vector<Resource*>& heap,
                                 std::uint32_t pos);
  static void res_heap_remove(std::vector<Resource*>& heap, Resource* r);

  /// Progressive-oracle heap entry: (estimated exhaust level, stable id).
  struct FillEntry {
    double lambda_est;
    std::uint32_t id;
    Resource* resource;
  };

  // -- completion tracking ------------------------------------------------
  bool heap_less(std::uint32_t a, std::uint32_t b) const;
  void heap_sift_up(std::uint32_t pos);
  void heap_sift_down(std::uint32_t pos);
  void heap_push(std::uint32_t slot);
  void heap_update(std::uint32_t slot);
  void heap_remove(std::uint32_t slot);
  void schedule_next_completion();
  void on_next_completion();

  Simulator& sim_;
  Topology& topology_;

  std::vector<Flow> slab_;
  // Hot per-flow state in dense slot-indexed vectors (see Flow comment):
  // sized in lockstep with slab_ by alloc_slot.
  std::vector<double> rate_;              // current applied rate
  std::vector<std::uint64_t> visit_epoch_;
  std::vector<std::uint64_t> freeze_epoch_;
  std::vector<std::uint64_t> fresh_epoch_;  // joined the set this round
  std::vector<Resource*> bn_applied_;     // applied max-min bottleneck
  std::uint32_t free_head_ = kNone;
  std::size_t active_count_ = 0;
  std::uint64_t next_seq_ = 1;

  std::vector<Resource> tx_, rx_, rack_up_, rack_down_;
  std::unordered_map<std::uint64_t, Resource> pair_res_;
  std::uint32_t pair_seq_ = 0;
  std::uint32_t pair_id_base_ = 0;

  std::vector<std::uint32_t> pending_new_;   // started, membership unbuilt
  std::vector<Resource*> dirty_seeds_;       // membership changed here
  bool dirty_ = false;
  EventId dirty_event_ = kInvalidEvent;
  bool recompute_all_ = false;
  std::uint64_t topo_version_ = 0;

  std::vector<std::uint32_t> completion_heap_;  // slab indices by proj_done
  EventId pending_event_ = kInvalidEvent;
  SimTime pending_time_ = 0.0;

  std::uint64_t epoch_ = 0;  // shared visit/fill epoch counter
  std::vector<std::uint32_t> comp_flows_;
  std::vector<Resource*> comp_resources_;
  std::vector<double> rates_scratch_;
  std::vector<Resource*> bottleneck_scratch_;
  std::vector<Resource*> res_heap_;      // exact-fill heap
  std::vector<FillEntry> fill_heap_;     // progressive oracle (lazy)
  // Component split output: flows/resources grouped per component in
  // canonical order, sliced by comps_.
  std::vector<std::uint32_t> split_flows_;
  std::vector<Resource*> split_res_;
  std::vector<CompSpan> comps_;
  // Per-fill member split (slices per resource via lmem_off/bmem_off):
  // the fill freeze loops walk exactly the local members and
  // validate_boundary exactly the boundary members, instead of filtering
  // full member lists by epoch on every visit.
  std::vector<std::uint32_t> local_arena_;
  std::vector<std::uint32_t> boundary_arena_;

  /// Local sets smaller than this skip the component BFS and fill as one
  /// pseudo-component (the pre-split behaviour — a single bottleneck
  /// elimination handles a disconnected span correctly). What the split
  /// enables (the dirty-component skip) only engages on large sets, so
  /// splitting tiny steady-state rounds is pure BFS overhead (~20% of fig8
  /// wall when measured).
  static constexpr std::size_t kSplitMinFlows = 64;

  /// Local-set growth rounds before giving up and recomputing the whole
  /// affected connected component from scratch. The bound must cover the
  /// *decelerating* tail of real expansions: on the fig8 pipeline points the
  /// affected set grows fast for a few rounds and then creeps toward its
  /// fixed point by a handful of flows per round (e.g. 12, 58, 134, 205,
  /// 217, 220, ... +3), so a small cap truncates runs that were one or two
  /// rounds from converging and forces a full-component recompute of
  /// thousands of flows instead of a ~250-flow local refill. At 4096 nodes
  /// a cap of 6 sent every large expansion to the fallback (75% of all
  /// refilled flow work); 32 eliminates fallbacks entirely and roughly
  /// halves wall time. Correctness does not depend on where the cap lands:
  /// both the converged local set and the fallback recompute produce the
  /// unique max-min allocation of the affected components (validate_boundary
  /// re-checks every boundary resource each round), so the cap only trades
  /// work, not results.
  static constexpr int kMaxExpandRounds = 32;
  /// Relative tolerance for boundary-violation checks. Deliberately much
  /// tighter than the 1e-9 cross-check tolerance: any real rate change
  /// larger than this triggers a proper refill, so the error left behind by
  /// suppressed sub-tolerance changes stays far below what the cross-check
  /// (and the property tests) can see. FP noise sits near 1e-16, four
  /// orders below, so spurious expansions don't happen either.
  static constexpr double kExpandTol = 1e-12;

  double bytes_completed_ = 0.0;
  Counters counters_;
#ifdef NDEBUG
  bool cross_check_ = false;
#else
  bool cross_check_ = true;
#endif
};

}  // namespace rdmc::sim
