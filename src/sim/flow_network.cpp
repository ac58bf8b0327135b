#include "sim/flow_network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace rdmc::sim {


FlowNetwork::FlowNetwork(Simulator& sim, Topology& topology)
    : sim_(sim), topology_(topology), topo_version_(topology.version()) {
  const auto n = static_cast<std::uint32_t>(topology.num_nodes());
  const auto racks = static_cast<std::uint32_t>(topology.num_racks());
  tx_.resize(n);
  rx_.resize(n);
  rack_up_.resize(racks);
  rack_down_.resize(racks);
  // Disjoint tie-break id ranges per resource class, so simultaneous-freeze
  // ordering can never depend on an accidental cross-class collision.
  for (std::uint32_t i = 0; i < n; ++i) {
    tx_[i].kind = Resource::Kind::kTx;
    tx_[i].index = i;
    tx_[i].id = i;
    tx_[i].cap = topology.node_tx_Bps(i);
    rx_[i].kind = Resource::Kind::kRx;
    rx_[i].index = i;
    rx_[i].id = n + i;
    rx_[i].cap = topology.node_rx_Bps(i);
  }
  for (std::uint32_t r = 0; r < racks; ++r) {
    rack_up_[r].kind = Resource::Kind::kRackUp;
    rack_up_[r].index = r;
    rack_up_[r].id = 2 * n + r;
    rack_up_[r].cap = topology.rack_uplink_Bps();
    rack_down_[r].kind = Resource::Kind::kRackDown;
    rack_down_[r].index = r;
    rack_down_[r].id = 2 * n + racks + r;
    rack_down_[r].cap = topology.rack_uplink_Bps();
  }
  pair_id_base_ = 2 * n + 2 * racks;
}

// ------------------------------------------------------------- flow slab --

std::uint32_t FlowNetwork::alloc_slot() {
  if (free_head_ != kNone) {
    const std::uint32_t slot = free_head_;
    free_head_ = slab_[slot].next_free;
    return slot;
  }
  slab_.emplace_back();
  rate_.push_back(0.0);
  visit_epoch_.push_back(0);
  freeze_epoch_.push_back(0);
  fresh_epoch_.push_back(0);
  bn_applied_.push_back(nullptr);
  rates_scratch_.push_back(0.0);
  bottleneck_scratch_.push_back(nullptr);
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void FlowNetwork::free_slot(std::uint32_t slot) {
  Flow& f = slab_[slot];
  f.id = kInvalidFlow;
  if (++f.generation == 0) f.generation = 1;  // keep ids nonzero
  f.on_complete = nullptr;
  f.placed = false;
  f.res_count = 0;
  rate_[slot] = 0.0;
  f.next_free = free_head_;
  free_head_ = slot;
}

std::uint32_t FlowNetwork::slot_of(FlowId id) const {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slab_.size() || slab_[slot].id != id) return kNone;
  return slot;
}

void FlowNetwork::remove_flow(std::uint32_t slot) {
  Flow& f = slab_[slot];
  if (f.placed) {
    for (std::uint32_t i = 0; i < f.res_count; ++i) {
      Resource* r = f.res[i];
      dirty_seeds_.push_back(r);
      // Swap-remove from the member list, fixing the moved flow's position.
      const std::uint32_t p = f.pos_in_res[i];
      assert(r->members[p] == slot);
      r->members[p] = r->members.back();
      r->members.pop_back();
      if (p < static_cast<std::uint32_t>(r->members.size())) {
        Flow& moved = slab_[r->members[p]];
        for (std::uint32_t j = 0; j < moved.res_count; ++j) {
          if (moved.res[j] == r) {
            moved.pos_in_res[j] = p;
            break;
          }
        }
      }
    }
  } else {
    // Started and removed within one instant: never wired into resources.
    pending_new_.erase(
        std::find(pending_new_.begin(), pending_new_.end(), slot));
  }
  if (f.heap_pos != kNone) heap_remove(slot);
  if (bn_applied_[slot] != nullptr) {
    --bn_applied_[slot]->bn_count;
    bn_applied_[slot] = nullptr;
  }
  --active_count_;
  free_slot(slot);
}

// ------------------------------------------------ membership & components --

void FlowNetwork::build_membership(std::uint32_t slot) {
  Flow& f = slab_[slot];
  assert(!f.placed);
  auto touch = [&](Resource& r) {
    f.res[f.res_count] = &r;
    f.pos_in_res[f.res_count] = static_cast<std::uint32_t>(r.members.size());
    ++f.res_count;
    r.members.push_back(slot);
    dirty_seeds_.push_back(&r);
  };
  touch(tx_[f.src]);
  touch(rx_[f.dst]);
  if (topology_.num_racks() > 1 && topology_.rack_uplink_Bps() > 0.0 &&
      !topology_.same_rack(f.src, f.dst)) {
    touch(rack_up_[topology_.rack_of(f.src)]);
    touch(rack_down_[topology_.rack_of(f.dst)]);
  }
  if (topology_.has_pair_caps()) {
    if (topology_.pair_cap_Bps(f.src, f.dst)) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(f.src) << 32) | f.dst;
      auto [it, inserted] = pair_res_.try_emplace(key);
      Resource& r = it->second;
      if (inserted) {
        r.kind = Resource::Kind::kPair;
        r.index = pair_seq_;
        r.id = pair_id_base_ + pair_seq_;
        r.pair_key = key;
        r.cap = resource_capacity(r);
        ++pair_seq_;
      }
      touch(r);
    }
  }
  f.placed = true;
  f.last_update = sim_.now();
}

void FlowNetwork::rebuild_all_membership() {
  // Topology capacities changed under us (set_pair_cap / set_node_nic after
  // flows were established): the cached membership may now be wrong — e.g. a
  // pair cap appeared on a path an existing flow uses. Rewire everything and
  // recompute all rates once; this is the cold path.
  auto reset = [&](Resource& r) {
    r.members.clear();
    r.cap = resource_capacity(r);
  };
  for (auto& r : tx_) reset(r);
  for (auto& r : rx_) reset(r);
  for (auto& r : rack_up_) reset(r);
  for (auto& r : rack_down_) reset(r);
  // rdmc-lint: allow(unordered-iter) per-entry reset; order-independent
  for (auto& [key, r] : pair_res_) reset(r);
  for (std::uint32_t slot = 0; slot < slab_.size(); ++slot) {
    Flow& f = slab_[slot];
    if (f.id == kInvalidFlow || !f.placed) continue;
    // Charge progress at the old rate first: build_membership stamps
    // last_update = now, which would otherwise swallow the elapsed window.
    settle(slot);
    f.placed = false;
    f.res_count = 0;
    build_membership(slot);
  }
  recompute_all_ = true;
}

void FlowNetwork::settle(std::uint32_t slot) {
  Flow& flow = slab_[slot];
  const SimTime now = sim_.now();
  if (now <= flow.last_update) return;
  flow.remaining -= rate_[slot] * (now - flow.last_update);
  if (flow.remaining < 0.0) flow.remaining = 0.0;
  flow.last_update = now;
}

// ------------------------------------------------------------- public API --

FlowId FlowNetwork::start_flow(NodeId src, NodeId dst, double bytes,
                               std::function<void(SimTime)> on_complete) {
  assert(src < topology_.num_nodes() && dst < topology_.num_nodes());
  assert(src != dst);
  const double size = std::max(bytes, 1.0);
  const std::uint32_t slot = alloc_slot();
  Flow& f = slab_[slot];
  const FlowId id = (static_cast<FlowId>(f.generation) << 32) | slot;
  f.src = src;
  f.dst = dst;
  f.total = size;
  f.remaining = size;
  rate_[slot] = 0.0;
  f.last_update = sim_.now();
  f.id = id;
  f.seq = next_seq_++;
  f.on_complete = std::move(on_complete);
  assert(f.heap_pos == kNone && f.res_count == 0 && !f.placed);
  ++active_count_;
  pending_new_.push_back(slot);
  ++counters_.flow_starts;
  if (auto* tr = obs::tracer())
    tr->begin(obs::Cat::kSim, "flow", src, f.seq, sim_.now(),
              "dst,bytes", dst, static_cast<std::uint64_t>(size));
  mark_dirty();
  return id;
}

void FlowNetwork::abort_flow(FlowId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNone) return;
  ++counters_.flow_aborts;
  if (auto* tr = obs::tracer())
    tr->end(obs::Cat::kSim, "flow", slab_[slot].src, slab_[slot].seq,
            sim_.now(), "aborted", 1);
  remove_flow(slot);
  mark_dirty();
}

double FlowNetwork::flow_rate(FlowId id) const {
  const_cast<FlowNetwork*>(this)->flush_dirty();
  const std::uint32_t slot = slot_of(id);
  return slot == kNone ? 0.0 : rate_[slot];
}

// ------------------------------------------------------------ reallocation --

void FlowNetwork::mark_dirty() {
  if (dirty_) return;
  dirty_ = true;
  // Coalesce: many flows start/finish at one virtual instant (lock-step
  // schedule boundaries); one rate recomputation covers them all.
  dirty_event_ = sim_.at(sim_.now(), [this] {
    dirty_ = false;
    dirty_event_ = kInvalidEvent;
    reallocate_dirty();
  });
}

void FlowNetwork::flush_dirty() {
  if (!dirty_) return;
  dirty_ = false;
  if (dirty_event_ != kInvalidEvent) {
    sim_.cancel(dirty_event_);
    dirty_event_ = kInvalidEvent;
  }
  reallocate_dirty();
}

double FlowNetwork::resource_capacity(const Resource& r) const {
  switch (r.kind) {
    case Resource::Kind::kTx:
      return topology_.node_tx_Bps(r.index);
    case Resource::Kind::kRx:
      return topology_.node_rx_Bps(r.index);
    case Resource::Kind::kRackUp:
    case Resource::Kind::kRackDown:
      return topology_.rack_uplink_Bps();
    case Resource::Kind::kPair: {
      const auto cap = topology_.pair_cap_Bps(
          static_cast<NodeId>(r.pair_key >> 32),
          static_cast<NodeId>(r.pair_key & 0xFFFFFFFFu));
      // The cap can vanish mid-run (clear_pair_cap when a transient
      // degradation recovers); the stale resource stays in pair_res_ with
      // no members after the rebuild, so report it unconstrained.
      return cap ? *cap : 1e18;
    }
  }
  return 0.0;
}

void FlowNetwork::gather_all_active(std::vector<std::uint32_t>& flows,
                                    std::vector<Resource*>& resources) {
  for (std::uint32_t slot = 0; slot < slab_.size(); ++slot)
    if (slab_[slot].id != kInvalidFlow) flows.push_back(slot);
  auto add = [&](Resource& r) {
    if (!r.members.empty()) resources.push_back(&r);
  };
  for (auto& r : tx_) add(r);
  for (auto& r : rx_) add(r);
  for (auto& r : rack_up_) add(r);
  for (auto& r : rack_down_) add(r);
  // rdmc-lint: allow(unordered-iter) collection order cannot change the max-min fixpoint (the allocation is unique); kept unsorted to preserve golden bench bytes
  for (auto& [key, r] : pair_res_) add(r);
}

void FlowNetwork::apply_rates(const std::vector<std::uint32_t>& flows) {
  for (const std::uint32_t slot : flows) {
    Flow& f = slab_[slot];
    const double new_rate = rates_scratch_[slot];
    Resource* nb = bottleneck_scratch_[slot];
    if (bn_applied_[slot] != nb) {
      if (bn_applied_[slot] != nullptr) --bn_applied_[slot]->bn_count;
      ++nb->bn_count;
      bn_applied_[slot] = nb;
    }
    if (f.heap_pos != kNone && new_rate == rate_[slot]) {
      // Rate unchanged: (last_update, remaining, rate) stays consistent and
      // the projected completion is bit-identical — skip the heap traffic.
      continue;
    }
    settle(slot);
    rate_[slot] = new_rate;
    assert(new_rate > 0.0 && "every flow crosses a finite resource");
    f.proj_done = f.last_update + f.remaining / new_rate;
    if (f.heap_pos == kNone)
      heap_push(slot);
    else
      heap_update(slot);
  }
}

void FlowNetwork::split_components(std::uint64_t mark,
                                   std::uint64_t fresh_token) {
  // BFS over the bipartite flow/resource graph restricted to the in-set
  // members (visit epoch == mark; mark 0 means every member is in-set).
  // Components land in split_flows_/split_res_ in discovery order — seeded
  // from comp_flows_ in order, expanding resource member lists in order —
  // which is the canonical order the fills use.
  // freeze_epoch_ / Resource::split_epoch carry the BFS stamps; both are
  // compared by equality against strictly increasing epochs, so the fills'
  // later stamps can never collide.
  split_flows_.clear();
  split_res_.clear();
  comps_.clear();
  const std::uint64_t stoken = ++epoch_;
  for (const std::uint32_t seed : comp_flows_) {
    if (freeze_epoch_[seed] == stoken) continue;
    CompSpan comp;
    comp.flow_off = static_cast<std::uint32_t>(split_flows_.size());
    comp.res_off = static_cast<std::uint32_t>(split_res_.size());
    comp.stamp = stoken;
    const auto ci = static_cast<std::uint32_t>(comps_.size());
    bool dirty = false;
    freeze_epoch_[seed] = stoken;
    split_flows_.push_back(seed);
    for (std::size_t qi = comp.flow_off; qi < split_flows_.size(); ++qi) {
      const std::uint32_t slot = split_flows_[qi];
      if (fresh_epoch_[slot] == fresh_token) dirty = true;
      const Flow& f = slab_[slot];
      for (std::uint32_t j = 0; j < f.res_count; ++j) {
        Resource* r = f.res[j];
        if (mark != 0 && r->visit_epoch != mark) continue;
        if (r->split_epoch == stoken) continue;
        r->split_epoch = stoken;
        r->comp_id = ci;  // validated against comp.stamp, not comp.fill
        split_res_.push_back(r);
        for (const std::uint32_t m : r->members) {
          if (mark != 0 && visit_epoch_[m] != mark) continue;  // boundary
          if (freeze_epoch_[m] == stoken) continue;
          freeze_epoch_[m] = stoken;
          split_flows_.push_back(m);
        }
      }
    }
    comp.flow_cnt =
        static_cast<std::uint32_t>(split_flows_.size()) - comp.flow_off;
    comp.res_cnt =
        static_cast<std::uint32_t>(split_res_.size()) - comp.res_off;
    comp.dirty = dirty;
    comps_.push_back(comp);
  }
}

void FlowNetwork::validate_boundary(const CompSpan& comp, std::uint64_t mark,
                                    std::uint64_t fresh_token) {
  // The combined allocation (fresh rates for local flows, old rates for
  // everyone else) is THE max-min allocation iff it is feasible and every
  // flow has a bottleneck: a saturated resource where its rate is maximal.
  // Local flows got theirs from the fill; flows whose resources were all
  // untouched kept theirs. That leaves the boundary flows sharing a
  // resource with the just-filled component. A boundary flow h on resource
  // r must join the local set when:
  //   * some local flow froze at r at level lambda but h.rate > lambda — h
  //     is hogging a resource the local flow is entitled to grow into;
  //   * h's own stored bottleneck is r, but r is no longer saturated (h
  //     could grow) or h is no longer maximal there (h lost its bottleneck).
  // A boundary flow whose bottleneck lies outside the component is
  // untouched by construction. Components that did not gain a flow this
  // round are skipped entirely: their local rates did not change, their
  // boundary flows' rates cannot have changed either (a flow local to one
  // component is never boundary to another — sharing a resource would merge
  // the components), so every verdict from the round they were filled
  // still stands.
  //
  // The per-member conditions only reference per-resource aggregates that
  // fill_prepare (boundary side) and the fill (local side) maintained, so
  // each resource is gated in O(1) first: if no boundary rate exceeds the
  // local freeze level and no boundary flow can have lost its bottleneck
  // here, no member of r can trigger and the member scan is skipped. In
  // steady state (all rates equal, everything saturated) every gate fails
  // and validation costs O(resources), not O(membership).
  Resource* const* res = split_res_.data() + comp.res_off;
  for (std::uint32_t ri = 0; ri < comp.res_cnt; ++ri) {
    Resource* r = res[ri];
    if (r->bmem_cnt == 0) continue;  // purely local: nothing to expand
    const double usage = r->usage_b + r->usage_local;
    const bool saturated = usage >= r->cap * (1.0 - kExpandTol);
    const double max_rate = std::max(r->max_b, r->max_local);
    // Every local flow bottlenecked at r froze exactly at its saturation
    // level, so the old max-over-scratch scan reduces to sat_lambda.
    const double lambda_local =
        r->sat_fill == comp.fill ? r->sat_lambda : -1.0;
    // Condition 1 needs a boundary rate strictly above lambda_local;
    // condition 2 needs a boundary flow bottlenecked at r (bn_count
    // over-approximates: it counts local flows' previous bottlenecks too)
    // that is either unsaturated here or below the member maximum.
    const bool may_hog = lambda_local >= 0.0 && r->max_b > lambda_local;
    const bool may_lose_bn =
        r->bn_count > 0 &&
        (!saturated || r->min_b < max_rate * (1.0 - kExpandTol));
    if (!may_hog && !may_lose_bn) continue;
    const std::uint32_t* bmem = boundary_arena_.data() + r->bmem_off;
    for (std::uint32_t i = 0; i < r->bmem_cnt; ++i) {
      const std::uint32_t slot = bmem[i];
      // May already have joined the local set via an earlier resource in
      // this pass.
      if (visit_epoch_[slot] == mark) continue;
      const double hr = rate_[slot];
      bool expand = false;
      if (lambda_local >= 0.0 && hr > lambda_local + kExpandTol * hr) {
        expand = true;
      } else if (bn_applied_[slot] == r &&
                 (!saturated || hr < max_rate * (1.0 - kExpandTol))) {
        expand = true;
      }
      if (expand) {
        visit_epoch_[slot] = mark;
        fresh_epoch_[slot] = fresh_token;
        comp_flows_.push_back(slot);
      }
    }
  }
}

void FlowNetwork::reallocate_dirty() {
  if (topology_.version() != topo_version_) {
    topo_version_ = topology_.version();
    rebuild_all_membership();
  }
  for (const std::uint32_t slot : pending_new_) build_membership(slot);
  pending_new_.clear();

  comp_flows_.clear();
  comp_resources_.clear();

  if (recompute_all_) {
    // Topology capacities changed: every cached rate and bottleneck may be
    // stale. Refill everything from scratch (the cold path).
    recompute_all_ = false;
    dirty_seeds_.clear();
    gather_all_active(comp_flows_, comp_resources_);
    if (!comp_flows_.empty()) {
      ++counters_.reallocations;
      ++counters_.full_recomputes;
      counters_.flows_touched += comp_flows_.size();
      const std::uint64_t fresh = ++epoch_;
      for (const std::uint32_t slot : comp_flows_)
        fresh_epoch_[slot] = fresh;
      split_components(0, fresh);
      fill_dirty_components(0);
      apply_rates(comp_flows_);
    }
  } else {
    // Local set: the flows actually on a changed resource. Everyone else
    // starts out as a fixed-rate boundary.
    const std::uint64_t mark = ++epoch_;
    std::uint64_t fresh = ++epoch_;
    for (Resource* seed : dirty_seeds_) {
      for (const std::uint32_t slot : seed->members) {
        if (visit_epoch_[slot] == mark) continue;
        visit_epoch_[slot] = mark;
        fresh_epoch_[slot] = fresh;
        comp_flows_.push_back(slot);
      }
    }
    dirty_seeds_.clear();
    if (comp_flows_.empty()) {
      schedule_next_completion();
      return;
    }

    bool converged = false;
    bool split_clean = false;  // comps_ holds true connected components
    std::size_t wired = 0;
    std::size_t fresh_begin = 0;
    for (int iter = 0; iter < kMaxExpandRounds; ++iter) {
      // Pull the resources of newly added local flows into the fill set.
      for (; wired < comp_flows_.size(); ++wired) {
        Flow& f = slab_[comp_flows_[wired]];
        for (std::uint32_t j = 0; j < f.res_count; ++j) {
          Resource* r = f.res[j];
          if (r->visit_epoch == mark) continue;
          r->visit_epoch = mark;
          comp_resources_.push_back(r);
        }
      }
      // Split into connected components; refill (and later revalidate)
      // only the components that gained a flow this round — everyone
      // else's scratch rates, aggregates and verdicts stand. Small
      // first-round sets skip the BFS and fill as one pseudo-component:
      // a single bottleneck elimination over a disconnected span is still
      // exact (each component freezes at its own saturations; the shared
      // rising level only interleaves them), and none of the split's
      // payoffs (dirty skip, parallel dispatch) engage at this size.
      // Expansion rounds merge the fresh flows into the components they
      // touch (merge_expansion) instead of re-running the global BFS;
      // components that gained no flow keep their round-one rates
      // untouched either way.
      if (iter == 0 && comp_flows_.size() < kSplitMinFlows) {
        split_flows_.assign(comp_flows_.begin(), comp_flows_.end());
        split_res_.assign(comp_resources_.begin(), comp_resources_.end());
        comps_.clear();
        CompSpan comp;
        comp.flow_cnt = static_cast<std::uint32_t>(split_flows_.size());
        comp.res_cnt = static_cast<std::uint32_t>(split_res_.size());
        comp.dirty = true;  // every executed round added a flow
        comps_.push_back(comp);
      } else if (!split_clean) {
        // First real split: round 0 at size, or the round after a pseudo-
        // split (whose single span may hold several true components — a
        // merge would keep them joint and refill the lot every round).
        split_components(mark, fresh);
        split_clean = true;
      } else {
        // Unions of true components are true components, so once split,
        // expansion rounds just merge the fresh flows in.
        merge_expansion(fresh_begin);
      }
      fill_dirty_components(mark);
      const std::size_t before = comp_flows_.size();
      const std::uint64_t next_fresh = ++epoch_;
      for (const CompSpan& comp : comps_)
        if (comp.dirty && !comp.dead) validate_boundary(comp, mark, next_fresh);
      if (comp_flows_.size() == before) {
        converged = true;
        break;
      }
      ++counters_.expand_rounds;
      fresh = next_fresh;
      fresh_begin = before;
    }

    if (converged) {
      ++counters_.reallocations;
      counters_.flows_touched += comp_flows_.size();
      apply_rates(comp_flows_);
    } else {
      // Expansion kept growing: give up on locality and recompute the whole
      // affected connected component (worklist BFS over the bipartite
      // flow/resource graph; components not reached keep their rates —
      // max-min allocations are independent across components).
      const std::uint64_t visit = ++epoch_;
      for (Resource* r : comp_resources_) r->visit_epoch = visit;
      comp_flows_.clear();
      for (std::size_t i = 0; i < comp_resources_.size(); ++i) {
        Resource* r = comp_resources_[i];
        for (const std::uint32_t slot : r->members) {
          if (visit_epoch_[slot] == visit) continue;
          visit_epoch_[slot] = visit;
          comp_flows_.push_back(slot);
          Flow& f = slab_[slot];
          for (std::uint32_t j = 0; j < f.res_count; ++j) {
            Resource* r2 = f.res[j];
            if (r2->visit_epoch == visit) continue;
            r2->visit_epoch = visit;
            comp_resources_.push_back(r2);
          }
        }
      }
      ++counters_.reallocations;
      counters_.flows_touched += comp_flows_.size();
      const std::uint64_t fresh2 = ++epoch_;
      for (const std::uint32_t slot : comp_flows_)
        fresh_epoch_[slot] = fresh2;
      split_components(0, fresh2);
      fill_dirty_components(0);
      apply_rates(comp_flows_);
    }
  }

  if (cross_check_) {
    ++counters_.cross_checks;
    if (!rates_match_full_recompute(1e-9)) {
      std::fprintf(stderr,
                   "FlowNetwork: incremental reallocation diverged from "
                   "full water-filling (t=%.9f, %zu active flows)\n",
                   sim_.now(), active_flows());
      std::abort();
    }
  }
  schedule_next_completion();
}

// ---------------------------------------------------- exact bottleneck fill --

void FlowNetwork::fill_prepare(CompSpan& comp, std::uint64_t local_mark) {
  const std::uint64_t fill = ++epoch_;
  comp.fill = fill;
  comp.has_coupling = false;
  Resource* const* res = split_res_.data() + comp.res_off;
  std::uint32_t ordinal = 0;
  // One pass over each member list: split it into local/boundary arena
  // slices, subtract boundary rates from capacity, and collect the
  // boundary-side validation aggregates. With local_mark 0 every member is
  // local and the boundary side stays empty.
  for (std::uint32_t ri = 0; ri < comp.res_cnt; ++ri) {
    Resource* r = res[ri];
    assert(!r->members.empty());
    if (r->kind == Resource::Kind::kRackUp ||
        r->kind == Resource::Kind::kRackDown)
      comp.has_coupling = true;
    double rem = r->cap;
    double usage_b = 0.0, max_b = 0.0;
    double min_b = std::numeric_limits<double>::infinity();
    r->lmem_off = static_cast<std::uint32_t>(local_arena_.size());
    r->bmem_off = static_cast<std::uint32_t>(boundary_arena_.size());
    if (local_mark != 0) {
      for (const std::uint32_t slot : r->members) {
        if (visit_epoch_[slot] == local_mark) {
          local_arena_.push_back(slot);
        } else {
          const double hr = rate_[slot];
          rem -= hr;
          usage_b += hr;
          if (hr > max_b) max_b = hr;
          if (hr < min_b) min_b = hr;
          boundary_arena_.push_back(slot);
        }
      }
    } else {
      local_arena_.insert(local_arena_.end(), r->members.begin(),
                          r->members.end());
    }
    r->lmem_cnt =
        static_cast<std::uint32_t>(local_arena_.size()) - r->lmem_off;
    r->bmem_cnt =
        static_cast<std::uint32_t>(boundary_arena_.size()) - r->bmem_off;
    if (rem < 0.0) rem = 0.0;
    assert(r->lmem_cnt > 0 && "every local resource carries a local flow");
    r->rem = rem;
    r->last_lambda = 0.0;
    r->live = r->lmem_cnt;
    r->fill_epoch = fill;
    r->comp_index = ordinal++;
    r->usage_b = usage_b;
    r->max_b = max_b;
    r->min_b = min_b;
    r->usage_local = 0.0;
    r->max_local = 0.0;
  }
}

void FlowNetwork::res_heap_sift_up(std::vector<Resource*>& heap,
                                   std::uint32_t pos) {
  Resource* r = heap[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!res_heap_less(r, heap[parent])) break;
    heap[pos] = heap[parent];
    heap[pos]->fill_pos = pos;
    pos = parent;
  }
  heap[pos] = r;
  r->fill_pos = pos;
}

void FlowNetwork::res_heap_sift_down(std::vector<Resource*>& heap,
                                     std::uint32_t pos) {
  const auto size = static_cast<std::uint32_t>(heap.size());
  Resource* r = heap[pos];
  while (true) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && res_heap_less(heap[child + 1], heap[child]))
      ++child;
    if (!res_heap_less(heap[child], r)) break;
    heap[pos] = heap[child];
    heap[pos]->fill_pos = pos;
    pos = child;
  }
  heap[pos] = r;
  r->fill_pos = pos;
}

void FlowNetwork::res_heap_remove(std::vector<Resource*>& heap, Resource* r) {
  const std::uint32_t pos = r->fill_pos;
  Resource* last = heap.back();
  heap.pop_back();
  r->fill_pos = kNone;
  if (last != r) {
    heap[pos] = last;
    last->fill_pos = pos;
    res_heap_sift_down(heap, pos);
    res_heap_sift_up(heap, last->fill_pos);
  }
}

std::uint64_t FlowNetwork::fill_exact(const CompSpan& comp,
                                      std::vector<Resource*>& heap) const {
  // --- Max-min fairness by exact bottleneck elimination. Every resource
  // sits in an indexed min-heap keyed by its estimated exhaust level
  // lambda + rem/live (ties by component ordinal, so the fill depends only
  // on the component's canonical order). Each round pops the true minimum —
  // the next resource to saturate — freezes its remaining participating
  // flows at the fair share, and updates each neighbouring resource's
  // residual capacity/degree and heap position in place. Unlike the
  // progressive lazy-heap filling (water_fill_progressive below, kept as
  // the oracle), no stale entries exist: the number of pops equals the
  // number of saturating resources, so a fill is O((F + R) log R).
  //
  // Boundary flows were already subtracted from capacity by fill_prepare
  // and the local arena slices hold exactly the local members, so no
  // boundary member is even visited. All mutable state is the component's
  // own (its resources, its flows' slot-indexed scratch) plus the caller's
  // heap — concurrent fills of distinct components never touch the same
  // word, which is what set_fill_jobs relies on.
  Resource* const* res = split_res_.data() + comp.res_off;
  const std::uint64_t fill = comp.fill;
  heap.clear();
  for (std::uint32_t ri = 0; ri < comp.res_cnt; ++ri) {
    Resource* r = res[ri];
    r->fill_key = r->rem / r->live;
    r->fill_pos = ri;
    heap.push_back(r);
  }
  if (heap.size() > 1) {
    for (auto i = static_cast<std::int64_t>(heap.size() / 2) - 1; i >= 0; --i)
      res_heap_sift_down(heap, static_cast<std::uint32_t>(i));
  }

  double lambda = 0.0;
  const auto refresh = [&lambda](Resource* r) {
    r->rem -= (lambda - r->last_lambda) * r->live;
    if (r->rem < 0.0) r->rem = 0.0;
    r->last_lambda = lambda;
  };

  std::uint64_t pops = 0;
  std::size_t unfrozen = comp.flow_cnt;
  while (unfrozen > 0 && !heap.empty()) {
    ++pops;
    Resource* r = heap.front();
    res_heap_remove(heap, r);
    assert(r->live > 0);
    // The stored key IS the exhaust level: every sift already computed it
    // as lambda + rem/live right after a refresh, so the pop adopts it
    // rather than re-deriving it through another refresh (which would
    // round differently and move virtual times in the last bits).
    lambda = r->fill_key;
    r->rem = 0.0;
    r->last_lambda = lambda;
    r->sat_lambda = lambda;
    r->sat_fill = fill;
    // Freeze every remaining participating flow crossing this resource.
    const std::uint32_t* fmem = local_arena_.data() + r->lmem_off;
    for (std::uint32_t m = 0; m < r->lmem_cnt; ++m) {
      const std::uint32_t slot = fmem[m];
      if (freeze_epoch_[slot] == fill) continue;
      freeze_epoch_[slot] = fill;
      rates_scratch_[slot] = lambda;
      bottleneck_scratch_[slot] = r;
      --unfrozen;
      const Flow& af = slab_[slot];
      for (std::uint32_t i = 0; i < af.res_count; ++i) {
        Resource* r2 = af.res[i];
        assert(r2->fill_epoch == fill);
        refresh(r2);
        assert(r2->live > 0);
        --r2->live;
        r2->usage_local += lambda;
        r2->max_local = lambda;  // freeze levels are non-decreasing
        if (r2 == r) continue;
        if (r2->live == 0) {
          // Drained: all its participants froze elsewhere. Out of the
          // heap — it can never pop. On *coupled* components (crossing a
          // rack uplink) the saturation mark is canonical — a function of
          // the final rates, not of elimination order: on an exact level
          // tie a resource can drain here (its last member frozen by the
          // tied peer) instead of popping, and an exhausted resource left
          // unmarked drops out of validate_boundary's hog check. So it is
          // marked whether it popped or drained, at its highest member
          // rate (== the pop level when it did pop; max_local is final
          // here because this freeze was its last). Dropping the branch
          // leaves every BENCH_core virtual time unchanged but moves the
          // Fig 10b racked bandwidth in the last bits, so it stays.
          // Uncoupled components keep pop-only marks: marking every
          // drained-at-cap NIC of a jittered pipeline floods may_hog with
          // near-tie expansions (2x wall at the 16384-node Fig 8 point).
          res_heap_remove(heap, r2);
          if (comp.has_coupling && r2->usage_b + r2->usage_local >=
                                       r2->cap * (1.0 - kExpandTol)) {
            r2->sat_lambda = r2->max_local;
            r2->sat_fill = fill;
          }
        } else {
          r2->fill_key = lambda + r2->rem / r2->live;
          const std::uint32_t pos = r2->fill_pos;
          res_heap_sift_down(heap, pos);
          res_heap_sift_up(heap, r2->fill_pos);
        }
      }
    }
    assert(r->live == 0);
  }
  assert(unfrozen == 0 && "every flow crosses a finite resource");
  return pops;
}

// ------------------------------------------- expansion-round merging --

void FlowNetwork::merge_expansion(std::size_t fresh_begin) {
  // Round >= 2 of the expansion loop: instead of re-running the global
  // component BFS, union the freshly expanded flows with the components
  // their resources already belong to. A component span is a BFS closure
  // and a resource first seen this round can only carry fresh in-set
  // members (an old in-set member would have pulled it into a span
  // already), so the merged component is exactly: the absorbed spans +
  // the fresh flows + their brand-new resources — no old member list is
  // walked. Untouched components keep their spans, rates and verdicts.
  const std::size_t nfresh = comp_flows_.size() - fresh_begin;
  assert(nfresh > 0);
  for (CompSpan& c : comps_) c.dirty = false;

  // Union-find over {fresh flows} ∪ {touched components} ∪ {new
  // resources}; unions point at the smaller id so a class root is always
  // its first fresh flow — deterministic class order.
  std::vector<std::uint32_t> ufp(nfresh);
  std::iota(ufp.begin(), ufp.end(), 0u);
  const auto uf_find = [&ufp](std::uint32_t x) {
    while (ufp[x] != x) {
      ufp[x] = ufp[ufp[x]];
      x = ufp[x];
    }
    return x;
  };
  const auto uf_union = [&](std::uint32_t a, std::uint32_t b) {
    a = uf_find(a);
    b = uf_find(b);
    if (a == b) return;
    if (a < b)
      ufp[b] = a;
    else
      ufp[a] = b;
  };
  std::vector<std::uint32_t> comp_node(comps_.size(), kNone);
  const std::uint64_t mtoken = ++epoch_;
  std::vector<Resource*> new_res;          // first-touch order
  std::vector<std::uint32_t> new_res_node;
  for (std::size_t i = 0; i < nfresh; ++i) {
    const Flow& f = slab_[comp_flows_[fresh_begin + i]];
    const auto fnode = static_cast<std::uint32_t>(i);
    for (std::uint32_t j = 0; j < f.res_count; ++j) {
      Resource* r = f.res[j];
      const std::uint32_t cid = r->comp_id;
      if (cid < comps_.size() && !comps_[cid].dead &&
          comps_[cid].stamp != 0 && comps_[cid].stamp == r->split_epoch) {
        if (comp_node[cid] == kNone) {
          comp_node[cid] = static_cast<std::uint32_t>(ufp.size());
          ufp.push_back(comp_node[cid]);
        }
        uf_union(fnode, comp_node[cid]);
      } else if (r->split_epoch == mtoken) {
        uf_union(fnode, r->fill_pos);  // new resource seen this round
      } else {
        r->split_epoch = mtoken;
        const auto node = static_cast<std::uint32_t>(ufp.size());
        ufp.push_back(node);
        r->fill_pos = node;  // scratch: reassigned by the next heap build
        new_res.push_back(r);
        new_res_node.push_back(node);
        uf_union(fnode, node);
      }
    }
  }

  // Group members per class, then materialise each merged component at the
  // span tails: absorbed spans (component-index order), fresh flows, new
  // resources. The absorbed components are tombstoned in place.
  struct Merged {
    std::vector<std::uint32_t> comps;
    std::vector<std::uint32_t> fresh;
    std::vector<Resource*> nres;
  };
  std::vector<Merged> merged;
  std::vector<std::uint32_t> class_of(ufp.size(), kNone);
  for (std::size_t i = 0; i < nfresh; ++i) {
    const std::uint32_t root = uf_find(static_cast<std::uint32_t>(i));
    if (class_of[root] == kNone) {
      class_of[root] = static_cast<std::uint32_t>(merged.size());
      merged.emplace_back();
    }
    merged[class_of[root]].fresh.push_back(comp_flows_[fresh_begin + i]);
  }
  std::size_t add_flows = nfresh, add_res = new_res.size();
  for (std::uint32_t cid = 0; cid < comp_node.size(); ++cid) {
    if (comp_node[cid] == kNone) continue;
    merged[class_of[uf_find(comp_node[cid])]].comps.push_back(cid);
    add_flows += comps_[cid].flow_cnt;
    add_res += comps_[cid].res_cnt;
  }
  for (std::size_t k = 0; k < new_res.size(); ++k)
    merged[class_of[uf_find(new_res_node[k])]].nres.push_back(new_res[k]);

  // Reserve up front: the absorbed-span copies below read from the same
  // vectors they append to.
  split_flows_.reserve(split_flows_.size() + add_flows);
  split_res_.reserve(split_res_.size() + add_res);
  for (const Merged& m : merged) {
    CompSpan nc;
    nc.flow_off = static_cast<std::uint32_t>(split_flows_.size());
    nc.res_off = static_cast<std::uint32_t>(split_res_.size());
    const auto nci = static_cast<std::uint32_t>(comps_.size());
    for (const std::uint32_t cid : m.comps) {
      CompSpan& old = comps_[cid];
      for (std::uint32_t k = 0; k < old.flow_cnt; ++k)
        split_flows_.push_back(split_flows_[old.flow_off + k]);
      for (std::uint32_t k = 0; k < old.res_cnt; ++k) {
        Resource* r = split_res_[old.res_off + k];
        r->comp_id = nci;
        r->split_epoch = mtoken;  // re-stamp: membership moved here
        split_res_.push_back(r);
      }
      old.dead = true;
    }
    for (const std::uint32_t slot : m.fresh) split_flows_.push_back(slot);
    for (Resource* r : m.nres) {
      r->comp_id = nci;  // split_epoch is already mtoken
      split_res_.push_back(r);
    }
    nc.flow_cnt =
        static_cast<std::uint32_t>(split_flows_.size()) - nc.flow_off;
    nc.res_cnt = static_cast<std::uint32_t>(split_res_.size()) - nc.res_off;
    nc.stamp = mtoken;
    nc.dirty = true;
    comps_.push_back(nc);
  }
}

// ------------------------------------------------------------ fill phase --

void FlowNetwork::fill_dirty_components(std::uint64_t mark) {
  // Two phases. (1) Serial: prepare each dirty component (fresh fill epoch,
  // arena slices, residual capacities) and queue it. (2) Possibly parallel:
  // fill the queue — each fill reads/writes only its own resources and
  // flow slots, and workers reuse a private heap across the fills they
  // claim. Pops are parked per fill and summed serially afterwards, so the
  // counters are byte-identical for any job count.
  local_arena_.clear();
  boundary_arena_.clear();
  fill_comps_.clear();
  std::size_t total_flows = 0;
  for (std::uint32_t ci = 0; ci < comps_.size(); ++ci) {
    CompSpan& comp = comps_[ci];
    if (!comp.dirty || comp.dead) continue;
    ++counters_.component_fills;
    counters_.max_component =
        std::max<std::uint64_t>(counters_.max_component, comp.flow_cnt);
    fill_prepare(comp, mark);
    fill_comps_.push_back(ci);
    total_flows += comp.flow_cnt;
  }
  const std::size_t nfill = fill_comps_.size();
  fill_pops_.assign(nfill, 0);
  if (fill_jobs_ > 1 && nfill > 1 && total_flows >= kParallelMinFlows) {
    worker_heaps_.resize(fill_jobs_);
    util::parallel_for_workers(
        nfill, fill_jobs_, [&](std::size_t w, std::size_t i) {
          fill_pops_[i] = fill_exact(comps_[fill_comps_[i]], worker_heaps_[w]);
        });
  } else {
    for (std::size_t i = 0; i < nfill; ++i)
      fill_pops_[i] = fill_exact(comps_[fill_comps_[i]], res_heap_);
  }
  for (const std::uint64_t pops : fill_pops_) counters_.filling_rounds += pops;
}

// --------------------------------------------------- progressive oracle --

void FlowNetwork::water_fill_progressive(
    const std::vector<std::uint32_t>& comp_flows,
    const std::vector<Resource*>& comp_resources, std::uint64_t local_mark) {
  // The original progressive lazy-heap water filling, kept verbatim as the
  // independent oracle for set_cross_check and the property tests. The fill
  // level lambda rises; a resource r exhausts at lambda_r = lambda +
  // rem/live. A min-heap orders resources by estimated exhaust level; stale
  // entries (whose live count dropped since insertion) are re-pushed on
  // pop. Every flow crossing an exhausting resource freezes at rate lambda.
  // Rates land in rates_scratch_ and the freeze resource in
  // bottleneck_scratch_, both indexed by flow slot.
  if (rates_scratch_.size() < slab_.size()) {
    rates_scratch_.resize(slab_.size());
    bottleneck_scratch_.resize(slab_.size());
  }
  const std::uint64_t fill = ++epoch_;

  const auto entry_later = [](const FillEntry& a, const FillEntry& b) {
    if (a.lambda_est != b.lambda_est) return a.lambda_est > b.lambda_est;
    return a.id > b.id;
  };
  fill_heap_.clear();
  for (Resource* r : comp_resources) {
    assert(!r->members.empty());
    double rem = r->cap;
    std::uint32_t live;
    if (local_mark != 0) {
      live = 0;
      for (const std::uint32_t slot : r->members) {
        if (visit_epoch_[slot] == local_mark)
          ++live;
        else
          rem -= rate_[slot];
      }
      if (rem < 0.0) rem = 0.0;
      assert(live > 0 && "every local resource carries a local flow");
    } else {
      live = static_cast<std::uint32_t>(r->members.size());
    }
    r->rem = rem;
    r->last_lambda = 0.0;
    r->live = live;
    r->fill_epoch = fill;
    fill_heap_.push_back({rem / live, r->id, r});
  }
  std::make_heap(fill_heap_.begin(), fill_heap_.end(), entry_later);

  double lambda = 0.0;
  const auto refresh = [&lambda](Resource* r) {
    r->rem -= (lambda - r->last_lambda) * r->live;
    if (r->rem < 0.0) r->rem = 0.0;
    r->last_lambda = lambda;
  };

  std::size_t unfrozen = comp_flows.size();
  while (unfrozen > 0 && !fill_heap_.empty()) {
    std::pop_heap(fill_heap_.begin(), fill_heap_.end(), entry_later);
    const FillEntry top = fill_heap_.back();
    fill_heap_.pop_back();
    Resource* r = top.resource;
    if (r->live == 0) continue;  // fully drained by earlier freezes
    refresh(r);
    const double exhaust = lambda + r->rem / r->live;
    if (exhaust > top.lambda_est * (1.0 + 1e-9)) {
      // Stale: live dropped since this entry was pushed.
      fill_heap_.push_back({exhaust, r->id, r});
      std::push_heap(fill_heap_.begin(), fill_heap_.end(), entry_later);
      continue;
    }
    lambda = exhaust;
    r->rem = 0.0;
    r->last_lambda = lambda;
    // Freeze every remaining participating flow crossing this resource.
    for (const std::uint32_t slot : r->members) {
      if (local_mark != 0 && visit_epoch_[slot] != local_mark) continue;
      if (freeze_epoch_[slot] == fill) continue;
      freeze_epoch_[slot] = fill;
      rates_scratch_[slot] = lambda;
      bottleneck_scratch_[slot] = r;
      --unfrozen;
      const Flow& af = slab_[slot];
      for (std::uint32_t i = 0; i < af.res_count; ++i) {
        Resource* r2 = af.res[i];
        assert(r2->fill_epoch == fill);
        refresh(r2);
        assert(r2->live > 0);
        --r2->live;
        if (r2 != r && r2->live > 0) {
          fill_heap_.push_back({lambda + r2->rem / r2->live, r2->id, r2});
          std::push_heap(fill_heap_.begin(), fill_heap_.end(), entry_later);
        }
      }
    }
    assert(r->live == 0);
  }
  assert(unfrozen == 0 && "every flow crosses a finite resource");
}

bool FlowNetwork::rates_match_full_recompute(double rel_tol,
                                             bool use_exact_fill) {
  flush_dirty();
  std::vector<std::uint32_t> all_flows;
  std::vector<Resource*> all_resources;
  gather_all_active(all_flows, all_resources);
  if (use_exact_fill) {
    // Drive the production fill over one synthetic whole-network component.
    // Round-scoped state (split arrays, arenas, comps_) is safe to clobber:
    // this runs between reallocations.
    split_flows_.assign(all_flows.begin(), all_flows.end());
    split_res_.assign(all_resources.begin(), all_resources.end());
    comps_.clear();
    CompSpan comp;
    comp.flow_cnt = static_cast<std::uint32_t>(all_flows.size());
    comp.res_cnt = static_cast<std::uint32_t>(all_resources.size());
    local_arena_.clear();
    boundary_arena_.clear();
    fill_prepare(comp, 0);
    fill_exact(comp, res_heap_);  // rounds deliberately uncounted
  } else {
    water_fill_progressive(all_flows, all_resources);
  }
  for (const std::uint32_t slot : all_flows) {
    const double incremental = rate_[slot];
    const double full = rates_scratch_[slot];
    const double denom = std::max(std::abs(incremental), std::abs(full));
    if (denom > 0.0 && std::abs(incremental - full) > rel_tol * denom)
      return false;
  }
  return true;
}

// ------------------------------------------------------ completion tracking --

bool FlowNetwork::heap_less(std::uint32_t a, std::uint32_t b) const {
  const Flow& fa = slab_[a];
  const Flow& fb = slab_[b];
  if (fa.proj_done != fb.proj_done) return fa.proj_done < fb.proj_done;
  return fa.seq < fb.seq;
}

void FlowNetwork::heap_sift_up(std::uint32_t pos) {
  const std::uint32_t slot = completion_heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!heap_less(slot, completion_heap_[parent])) break;
    completion_heap_[pos] = completion_heap_[parent];
    slab_[completion_heap_[pos]].heap_pos = pos;
    pos = parent;
  }
  completion_heap_[pos] = slot;
  slab_[slot].heap_pos = pos;
}

void FlowNetwork::heap_sift_down(std::uint32_t pos) {
  const auto size = static_cast<std::uint32_t>(completion_heap_.size());
  const std::uint32_t slot = completion_heap_[pos];
  while (true) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size &&
        heap_less(completion_heap_[child + 1], completion_heap_[child]))
      ++child;
    if (!heap_less(completion_heap_[child], slot)) break;
    completion_heap_[pos] = completion_heap_[child];
    slab_[completion_heap_[pos]].heap_pos = pos;
    pos = child;
  }
  completion_heap_[pos] = slot;
  slab_[slot].heap_pos = pos;
}

void FlowNetwork::heap_push(std::uint32_t slot) {
  completion_heap_.push_back(slot);
  slab_[slot].heap_pos =
      static_cast<std::uint32_t>(completion_heap_.size() - 1);
  heap_sift_up(slab_[slot].heap_pos);
}

void FlowNetwork::heap_update(std::uint32_t slot) {
  const std::uint32_t pos = slab_[slot].heap_pos;
  heap_sift_down(pos);
  heap_sift_up(slab_[slot].heap_pos);
}

void FlowNetwork::heap_remove(std::uint32_t slot) {
  const std::uint32_t pos = slab_[slot].heap_pos;
  const std::uint32_t last = completion_heap_.back();
  completion_heap_.pop_back();
  slab_[slot].heap_pos = kNone;
  if (last != slot) {
    completion_heap_[pos] = last;
    slab_[last].heap_pos = pos;
    heap_sift_down(pos);
    heap_sift_up(slab_[last].heap_pos);
  }
}

void FlowNetwork::schedule_next_completion() {
  if (completion_heap_.empty()) {
    if (pending_event_ != kInvalidEvent) {
      sim_.cancel(pending_event_);
      pending_event_ = kInvalidEvent;
    }
    return;
  }
  const SimTime when =
      std::max(slab_[completion_heap_.front()].proj_done, sim_.now());
  assert(std::isfinite(when) && "active flow with no allocated rate");
  if (pending_event_ != kInvalidEvent) {
    if (pending_time_ == when) return;  // already scheduled at this instant
    sim_.cancel(pending_event_);
  }
  pending_time_ = when;
  pending_event_ = sim_.at(when, [this] { on_next_completion(); });
}

void FlowNetwork::on_next_completion() {
  pending_event_ = kInvalidEvent;
  const SimTime now = sim_.now();
  // Collect every flow projected to finish at this instant (common in
  // symmetric schedules where all pairs complete simultaneously).
  std::vector<std::function<void(SimTime)>> done;
  while (!completion_heap_.empty() &&
         slab_[completion_heap_.front()].proj_done <= now) {
    const std::uint32_t slot = completion_heap_.front();
    Flow& f = slab_[slot];
    bytes_completed_ += f.total;
    ++counters_.flow_completions;
    if (auto* tr = obs::tracer())
      tr->end(obs::Cat::kSim, "flow", f.src, f.seq, now, "aborted", 0);
    done.push_back(std::move(f.on_complete));
    remove_flow(slot);
  }
  if (done.empty()) {
    // A reallocation moved the head's projection after this event was
    // scheduled; just re-arm for the new head.
    schedule_next_completion();
    return;
  }
  mark_dirty();
  for (auto& cb : done) {
    if (cb) cb(now);
  }
}

}  // namespace rdmc::sim
