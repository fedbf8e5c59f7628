#include "sim/network.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/objective.hpp"
#include "fault/model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/router.hpp"
#include "util/rng.hpp"

namespace netsmith::sim {

namespace {

// Activity-driven flit simulator. The per-cycle loop touches only
//  (a) flits arriving now (a timing wheel of channel ids, one bucket per
//      cycle of the longest channel latency),
//  (b) routers in the active set (any buffered input flit or queued source
//      packet; re-armed on arrival/injection, retired when both drain), and
//  (c) sources whose pre-sampled geometric injection gap expires now.
// Idle routers and idle sources therefore cost zero work per cycle, which is
// the common case over the low-rate half of every injection sweep. Within an
// active router, each output port and the ejection port visit only the
// (input, VC) slots whose head flit requests them (see switch_router).
//
// cfg.reference_mode keeps the original full-scan switch (every router,
// every output, every (input, VC) slot, every cycle; per-cycle linear scan of
// the injection schedule) as a bit-exact oracle: skipping a router with no
// buffered flits and no queued packets, or a slot whose head flit requests
// another port, is a no-op (round-robin pointers only move on grants), and
// routers are visited in ascending index order in both modes, so
// instantaneous credit returns are observed identically. Arrival delivery is
// shared by both modes; test_sim_fingerprint pins it.
class Simulator {
 public:
  Simulator(const core::NetworkPlan& plan, const TrafficConfig& traffic,
            const SimConfig& cfg)
      : plan_(plan), traffic_(traffic), cfg_(cfg), n_(plan.graph.num_nodes()),
        rng_(cfg.seed) {
    build_channels();
    sources_.resize(n_);
    eject_rr_.assign(n_, 0);
    last_input_pop_.assign(channels_.size(), -1);
    in_buffered_.assign(n_, 0);
    active_words_.assign((static_cast<std::size_t>(n_) + 63) / 64, 0);
    // An absent or empty fault plan leaves faults_ null, and every fault
    // branch below is a single predictable `if (faults_)` — the fault-free
    // hot path runs the exact pre-fault instruction stream.
    if (cfg.faults != nullptr && !cfg.faults->empty()) {
      faults_ = cfg.faults;
      link_down_.assign(channels_.size(), 0);
      router_down_.assign(static_cast<std::size_t>(n_), 0);
      // Route-of-record per epoch: unrepaired epochs point at the base plan.
      epoch_tables_.reserve(faults_->epochs.size());
      epoch_vcs_.reserve(faults_->epochs.size());
      for (const fault::FaultEpoch& ep : faults_->epochs) {
        epoch_tables_.push_back(ep.repaired ? &ep.table : &plan_.table);
        epoch_vcs_.push_back(ep.repaired ? &ep.vc_map : &plan_.vc_map);
      }
    }
    prepare_traffic();
    schedule_initial_injections();
  }

  SimStats run() {
    const long horizon = cfg_.warmup + cfg_.measure + cfg_.drain;
    const long window_end = cfg_.warmup + cfg_.measure;

    obs::Span span("sim/run");
    span.arg("n", n_);
    span.arg("rate", traffic_.injection_rate);
    // Sampled once per run: the per-cycle loop below must not re-read the
    // global gate.
    metrics_on_ = obs::metrics_enabled();

    stats_.cycles_run = horizon;
    for (long cycle = 0; cycle < horizon; ++cycle) {
      wheel_now_ = static_cast<int>(cycle % static_cast<long>(wheel_.size()));
      if (faults_) apply_fault_events(cycle);
      deliver_arrivals(cycle);
      if (cfg_.reference_mode)
        switch_all(cycle);
      else
        switch_active(cycle);
      if (cycle < window_end) generate_traffic(cycle);
      if (cycle == window_end - 1) record_backlog();
      // Early exit once every tagged packet has drained (dropped packets
      // count as resolved — they will never complete).
      if (cycle >= window_end &&
          stats_.tagged_completed + stats_.tagged_dropped ==
              stats_.tagged_injected &&
          stats_.tagged_injected > 0 && pending_replies_ == 0) {
        stats_.cycles_run = cycle + 1;
        break;
      }
    }

    stats_.offered = traffic_.injection_rate;
    stats_.accepted = static_cast<double>(ejected_in_window_) /
                      (static_cast<double>(active_sources_.size()) *
                       static_cast<double>(cfg_.measure));
    if (stats_.tagged_completed > 0)
      stats_.avg_latency_cycles =
          static_cast<double>(latency_sum_) / stats_.tagged_completed;
    // Saturation: backlog piled up, or tagged traffic failed to drain.
    const double drained =
        stats_.tagged_injected > 0
            ? static_cast<double>(stats_.tagged_completed) / stats_.tagged_injected
            : 1.0;
    stats_.saturated = stats_.mean_source_backlog > 4.0 || drained < 0.95;
    stats_.delivered_fraction =
        stats_.total_injected > 0
            ? static_cast<double>(stats_.total_ejected) / stats_.total_injected
            : 1.0;
    if (!latencies_.empty()) {
      std::sort(latencies_.begin(), latencies_.end());
      stats_.latency_p50_cycles =
          static_cast<double>(latencies_[(latencies_.size() - 1) / 2]);
      stats_.latency_p99_cycles = static_cast<double>(
          latencies_[(latencies_.size() - 1) * 99 / 100]);
    }
    record_residuals();
    span.arg("cycles", stats_.cycles_run);
    span.arg("accepted", stats_.accepted);
    span.arg("avg_latency", stats_.avg_latency_cycles);
    if (metrics_on_) flush_metrics();
    return stats_;
  }

 private:
  // --- Setup -------------------------------------------------------------
  void build_channels() {
    if (n_ > INT16_MAX)  // Flit::port and Flit::hop are 16-bit
      throw std::invalid_argument("simulate: more than 32767 routers");
    if (plan_.vc_map.num_vcs > cfg_.num_vcs)
      throw std::invalid_argument(
          "simulate: the plan's VC map uses more VCs than SimConfig::num_vcs");
    // No dense (u, v) -> channel map: lookups scan the CSR out-edge lists,
    // and an n^2-int table would dominate the simulator's footprint at
    // n = 1024 (4 MB for a graph with ~4n channels).
    const auto edges = plan_.graph.edges();
    const std::size_t num_edges = edges.size();
    in_off_.assign(static_cast<std::size_t>(n_) + 1, 0);
    out_off_.assign(static_cast<std::size_t>(n_) + 1, 0);
    for (const auto& [u, v] : edges) {
      ++out_off_[u + 1];
      ++in_off_[v + 1];
    }
    for (int u = 0; u < n_; ++u) {
      in_off_[u + 1] += in_off_[u];
      out_off_[u + 1] += out_off_[u];
    }
    in_ch_.resize(num_edges);
    out_ch_.resize(num_edges);
    out_dst_.resize(num_edges);
    std::vector<int> in_fill(in_off_.begin(), in_off_.end() - 1);
    std::vector<int> out_fill(out_off_.begin(), out_off_.end() - 1);
    channels_.reserve(num_edges);
    int max_latency = 0;
    for (const auto& [u, v] : edges) {
      const int id = static_cast<int>(channels_.size());
      Channel& ch = channels_.emplace_back();
      ch.src = u;
      ch.dst = v;
      ch.latency = cfg_.router_delay + cfg_.link_delay;
      if (cfg_.extra_edge_delay.rows() == static_cast<std::size_t>(n_))
        ch.latency += cfg_.extra_edge_delay(u, v);
      ch.init_wire();
      max_latency = std::max(max_latency, ch.latency);
      ch.k_at_dst = in_fill[v] - in_off_[v];
      in_ch_[in_fill[v]++] = id;
      out_ch_[out_fill[u]] = id;
      out_dst_[out_fill[u]++] = v;
    }
    const std::size_t vcs = cfg_.num_vcs;
    const std::size_t slots = num_edges * vcs;
    buf_.assign(slots * cfg_.buf_flits, {});
    buf_head_.assign(slots, 0);
    buf_count_.assign(slots, 0);
    credits_.assign(slots, cfg_.buf_flits);
    owner_.assign(slots, nullptr);
    // A flit pushed at cycle c lands in bucket (c + latency) mod W with
    // latency < W, so no bucket is reused before it has been drained.
    wheel_.resize(static_cast<std::size_t>(max_latency) + 1);
    out_rr_.assign(num_edges, 0);
    // Per-router request masks over (input k, vc) slots, so arbitration
    // visits only the slots whose head flit requests a port. Usable when
    // every slot index — including the injection input at k == in_degree —
    // fits in one word; reference mode never uses them.
    out_req_.assign(num_edges, 0);
    eject_req_.assign(n_, 0);
    mask_ok_.resize(n_);
    std::size_t max_slots = 0;
    for (int u = 0; u < n_; ++u) {
      const std::size_t router_slots = (in_degree(u) + 1) * vcs;
      mask_ok_[u] = !cfg_.reference_mode && router_slots <= 64;
      max_slots = std::max(max_slots, router_slots);
    }
    slot_input_.resize(max_slots);
    for (std::size_t slot = 0; slot < max_slots; ++slot)
      slot_input_[slot] = static_cast<int>(slot / vcs);
  }

  std::size_t in_degree(int u) const {
    return static_cast<std::size_t>(in_off_[u + 1] - in_off_[u]);
  }

  // Global input slot of router u's local slot 0 (input k = 0, vc = 0).
  std::size_t slot_base(int u) const {
    return static_cast<std::size_t>(in_off_[u]) * cfg_.num_vcs;
  }

  // Position of the (u, v) channel in u's out-edge list (u's output port
  // toward v), or -1 when there is none (including v == -1).
  int port_to(int u, int v) const {
    const int end = out_off_[u + 1];
    for (int i = out_off_[u]; i < end; ++i)
      if (out_dst_[i] == v) return i - out_off_[u];
    return -1;
  }

  // Input-buffer rings, one of buf_flits flits per global slot.
  Flit& front(std::size_t s) {
    return buf_[s * cfg_.buf_flits + buf_head_[s]];
  }
  void push(std::size_t s, const Flit& f) {
    assert(buf_count_[s] < cfg_.buf_flits);  // credits guarantee a free slot
    std::size_t i = buf_head_[s] + buf_count_[s];
    if (i >= static_cast<std::size_t>(cfg_.buf_flits)) i -= cfg_.buf_flits;
    buf_[s * cfg_.buf_flits + i] = f;
    ++buf_count_[s];
  }

  // Request mask of router u's output port (-1: the ejection port).
  std::uint64_t& req_mask(int u, int port) {
    return port < 0 ? eject_req_[u] : out_req_[out_off_[u] + port];
  }

  // Recomputes every request mask from the buffered head flits.
  void rebuild_masks() {
    std::fill(out_req_.begin(), out_req_.end(), 0);
    std::fill(eject_req_.begin(), eject_req_.end(), 0);
    for (int u = 0; u < n_; ++u) {
      if (!mask_ok_[u]) continue;
      const std::size_t base = slot_base(u);
      for (std::size_t local = 0; local < in_degree(u) * cfg_.num_vcs; ++local)
        if (buf_count_[base + local] > 0)
          req_mask(u, front(base + local).port) |= 1ULL << local;
    }
  }

  void prepare_traffic() {
    if (traffic_.sources.empty()) {
      for (int i = 0; i < n_; ++i) active_sources_.push_back(i);
    } else {
      active_sources_ = traffic_.sources;
    }
    if (traffic_.kind == TrafficKind::kMemory && traffic_.mc_nodes.empty())
      throw std::invalid_argument("memory traffic requires mc_nodes");
    if (traffic_.kind == TrafficKind::kCustom) {
      if (traffic_.custom.size() != static_cast<std::size_t>(n_))
        throw std::invalid_argument("custom traffic needs per-node entries");
      cum_.resize(n_);
      for (int s = 0; s < n_; ++s) {
        double acc = 0.0;
        for (const auto& [d, w] : traffic_.custom[s]) {
          acc += w;
          cum_[s].emplace_back(acc, d);
        }
      }
    }
  }

  // --- Traffic generation -------------------------------------------------
  // Per-source Bernoulli(p) injection, sampled as geometric inter-arrival
  // gaps: one RNG draw per injected packet instead of one per source per
  // cycle, so idle sources cost nothing. Both modes share the sampler (and
  // hence the RNG stream); they differ only in how due sources are found
  // (reference: linear scan of next_inject_; optimized: (cycle, idx) min-heap,
  // which pops equal-cycle entries in ascending source order — the same order
  // the linear scan visits them).
  void schedule_initial_injections() {
    const long window_end = cfg_.warmup + cfg_.measure;
    next_inject_.assign(active_sources_.size(), window_end);
    if (traffic_.injection_rate <= 0.0) return;
    for (std::size_t i = 0; i < active_sources_.size(); ++i) {
      next_inject_[i] = next_injection_after(-1);
      if (!cfg_.reference_mode && next_inject_[i] < window_end)
        inject_heap_.emplace(next_inject_[i], static_cast<int>(i));
    }
  }

  // First Bernoulli(p) success strictly after `cycle` (inverse-CDF geometric
  // sampling), clamped to the horizon.
  long next_injection_after(long cycle) {
    const double p = traffic_.injection_rate;
    if (p >= 1.0) return cycle + 1;
    const double gap =
        1.0 + std::floor(std::log1p(-rng_.uniform()) / std::log1p(-p));
    const long horizon = cfg_.warmup + cfg_.measure + cfg_.drain;
    const double next = static_cast<double>(cycle) + gap;
    return next >= static_cast<double>(horizon) ? horizon : static_cast<long>(next);
  }

  int pick_dest(int src) {
    switch (traffic_.kind) {
      case TrafficKind::kCoherence: {
        int d = static_cast<int>(rng_.uniform_int(0, n_ - 2));
        if (d >= src) ++d;
        return d;
      }
      case TrafficKind::kShuffle: {
        const int d = core::shuffle_dest(src, n_);
        return d == src ? -1 : d;
      }
      case TrafficKind::kMemory: {
        for (int attempt = 0; attempt < 8; ++attempt) {
          const int d = traffic_.mc_nodes[static_cast<std::size_t>(rng_.uniform_int(
              0, static_cast<std::int64_t>(traffic_.mc_nodes.size()) - 1))];
          if (d != src) return d;
        }
        return -1;
      }
      case TrafficKind::kCustom: {
        const auto& c = cum_[src];
        if (c.empty()) return -1;
        const double r = rng_.uniform() * c.back().first;
        const auto it = std::lower_bound(
            c.begin(), c.end(), r,
            [](const std::pair<double, int>& e, double v) { return e.first < v; });
        const int d = it == c.end() ? c.back().second : it->second;
        return d == src ? -1 : d;
      }
    }
    return -1;
  }

  int packet_size(bool is_request) {
    if (traffic_.kind == TrafficKind::kMemory)
      return is_request ? traffic_.ctrl_flits : traffic_.data_flits;
    return rng_.uniform() < traffic_.data_fraction ? traffic_.data_flits
                                                   : traffic_.ctrl_flits;
  }

  Packet* make_packet(int src, int dst, int flits, long cycle, bool request) {
    // New packets route by the current epoch's table; the epoch index is
    // pinned into the packet so later repairs never re-route it mid-flight.
    const routing::RoutingTable& table =
        faults_ ? *epoch_tables_[cur_epoch_] : plan_.table;
    const vc::VcMap& vcm = faults_ ? *epoch_vcs_[cur_epoch_] : plan_.vc_map;
    const int vc = vcm.vc[static_cast<std::size_t>(src) * n_ + dst];
    if (vc < 0) {
      // No route: a fault disconnected the flow (counted degraded), or the
      // base plan is malformed (shouldn't happen when connected).
      if (faults_) ++stats_.packets_unroutable;
      return nullptr;
    }
    Packet* p;
    if (!freelist_.empty()) {
      p = freelist_.back();
      freelist_.pop_back();
      *p = Packet{};
    } else {
      arena_.emplace_back();
      p = &arena_.back();
    }
    p->id = next_id_++;
    p->src = src;
    p->dst = dst;
    p->flits = flits;
    p->vc = vc;
    p->src_port = port_to(src, table.next_hop(src, src, dst));
    p->route = table.path(src, dst).data();
    p->epoch = static_cast<int>(cur_epoch_);
    p->inject_cycle = cycle;
    p->tagged = cycle >= cfg_.warmup && cycle < cfg_.warmup + cfg_.measure;
    p->is_request = request;
    return p;
  }

  void inject_from(int idx, long cycle) {
    const int s = active_sources_[idx];
    const int d = pick_dest(s);
    if (d < 0) return;
    const bool request = traffic_.kind == TrafficKind::kMemory ||
                         (traffic_.kind == TrafficKind::kCustom &&
                          traffic_.custom_reply);
    Packet* p = make_packet(s, d, packet_size(request), cycle, request);
    if (!p) return;
    sources_[s].packets.push_back(p);
    activate(s);
    ++stats_.total_injected;
    if (p->tagged) ++stats_.tagged_injected;
    if (p->is_request) ++pending_replies_;
  }

  void generate_traffic(long cycle) {
    if (traffic_.injection_rate <= 0.0) return;
    if (cfg_.reference_mode) {
      for (std::size_t i = 0; i < active_sources_.size(); ++i) {
        if (next_inject_[i] != cycle) continue;
        inject_from(static_cast<int>(i), cycle);
        next_inject_[i] = next_injection_after(cycle);
      }
      return;
    }
    const long window_end = cfg_.warmup + cfg_.measure;
    while (!inject_heap_.empty() && inject_heap_.top().first <= cycle) {
      const int i = inject_heap_.top().second;
      inject_heap_.pop();
      inject_from(i, cycle);
      const long next = next_injection_after(cycle);
      next_inject_[static_cast<std::size_t>(i)] = next;
      if (next < window_end) inject_heap_.emplace(next, i);
    }
  }

  // --- Active set ----------------------------------------------------------
  void activate(int u) {
    active_words_[static_cast<std::size_t>(u) >> 6] |= 1ULL << (u & 63);
  }

  // --- Fault injection -----------------------------------------------------
  // Everything in this section runs only when faults_ is set; the fault-free
  // path never reaches it.

  int channel_id(int u, int v) const {
    const int j = port_to(u, v);
    return j < 0 ? -1 : out_ch_[out_off_[u] + j];
  }

  // The routing a packet was injected under (its epoch of record).
  const routing::RoutingTable& table_for(const Packet* p) const {
    return faults_ ? *epoch_tables_[static_cast<std::size_t>(p->epoch)]
                   : plan_.table;
  }

  // Applies all fault events due at `cycle` (idempotent per component), then
  // advances the current routing epoch. Runs before delivery/switching, so a
  // link failing at cycle c carries nothing during c and a recovering link
  // delivers its stranded flits the same cycle it comes back.
  void apply_fault_events(long cycle) {
    const auto& evs = faults_->events;
    while (next_event_ < evs.size() && evs[next_event_].cycle <= cycle) {
      const fault::FaultEvent& e = evs[next_event_++];
      switch (e.kind) {
        case fault::FaultEventKind::kLinkDown: {
          const int id = channel_id(e.a, e.b);
          if (id >= 0 && !link_down_[id]) {
            link_down_[id] = 1;
            if (faults_->lossy) drop_wire_packets(id);
          }
          break;
        }
        case fault::FaultEventKind::kLinkUp: {
          const int id = channel_id(e.a, e.b);
          if (id >= 0 && link_down_[id]) {
            link_down_[id] = 0;
            Channel& ch = channels_[id];
            // Stranded flits resume this cycle. Flits due now or later still
            // have their own wheel entries; overdue ones lost theirs while
            // the link was down, so one entry in the current bucket delivers
            // them all.
            if (!ch.wire_empty() && ch.wire_front().arrive < cycle)
              wheel_[wheel_now_].push_back(id);
          }
          break;
        }
        case fault::FaultEventKind::kRouterDown:
          router_down_[static_cast<std::size_t>(e.a)] = 1;
          break;
        case fault::FaultEventKind::kRouterUp:
          router_down_[static_cast<std::size_t>(e.a)] = 0;
          activate(e.a);  // resume refused injection/ejection work
          break;
      }
    }
    while (cur_epoch_ + 1 < faults_->epochs.size() &&
           faults_->epochs[cur_epoch_ + 1].cycle <= cycle)
      ++cur_epoch_;
  }

  // Lossy link failure: every packet with a flit in flight on the failing
  // wire is purged whole — worm-granular, because dropping part of a worm
  // would leave downstream VC owners held forever. Flits are removed from
  // every wire and buffer in the network, their reserved credits returned,
  // and the packet recycled; counts land in the dropped stats.
  void drop_wire_packets(int id) {
    Channel& ch = channels_[id];
    if (ch.wire_empty()) return;
    std::vector<Packet*> victims;
    for (int j = 0; j < ch.wire_count; ++j) {
      Packet* p =
          ch.wire[(ch.wire_head + j) % ch.wire.size()].flit.pkt;
      if (!p->dropped) {
        p->dropped = true;
        victims.push_back(p);
      }
    }
    purge_dropped();
    for (Packet* p : victims) {
      ++stats_.packets_dropped;
      if (p->tagged) ++stats_.tagged_dropped;
      if (p->is_request) --pending_replies_;
      // A victim with unsent flits is necessarily its source queue's front
      // (later packets have sent nothing, so they have no wire presence).
      auto& sq = sources_[p->src];
      if (!sq.packets.empty() && sq.packets.front() == p)
        sq.packets.pop_front();
      p->dropped = false;
      freelist_.push_back(p);
    }
  }

  // Removes every flit of dropped packets from all wire and buffer rings,
  // restoring the credits those flits held and clearing their VC ownership.
  void purge_dropped() {
    const int vcs = cfg_.num_vcs;
    const int cap = cfg_.buf_flits;
    for (std::size_t id = 0; id < channels_.size(); ++id) {
      Channel& ch = channels_[id];
      if (ch.wire_count == 0) continue;
      const int w = ch.wire_count;
      const std::size_t ring = ch.wire.size();
      int kept = 0;
      for (int j = 0; j < w; ++j) {
        const InFlight f = ch.wire[(ch.wire_head + j) % ring];
        if (f.flit.pkt->dropped) {
          ++credits_[id * vcs + f.vc];  // reserved downstream slot, never filled
          ++stats_.flits_dropped;
        } else {
          ch.wire[(ch.wire_head + kept) % ring] = f;
          ++kept;
        }
      }
      ch.wire_count = kept;
      // The purged flits' wheel entries go stale: each finds the surviving
      // front not yet due and delivers nothing (see deliver_arrivals).
    }
    for (int u = 0; u < n_; ++u) {
      for (int pos = in_off_[u]; pos < in_off_[u + 1]; ++pos) {
        const std::size_t credit0 = static_cast<std::size_t>(in_ch_[pos]) * vcs;
        for (int vc = 0; vc < vcs; ++vc) {
          const std::size_t s = static_cast<std::size_t>(pos) * vcs + vc;
          const int c = buf_count_[s];
          Flit* ring = &buf_[s * cap];
          int kept = 0;
          for (int j = 0; j < c; ++j) {
            const Flit f = ring[(buf_head_[s] + j) % cap];
            if (f.pkt->dropped) {
              ++credits_[credit0 + vc];
              --in_buffered_[u];
              ++stats_.flits_dropped;
            } else {
              ring[(buf_head_[s] + kept) % cap] = f;
              ++kept;
            }
          }
          buf_count_[s] = static_cast<std::uint16_t>(kept);
        }
      }
    }
    for (Packet*& p : owner_)
      if (p != nullptr && p->dropped) p = nullptr;
    // Compaction moved head flits without a pop.
    rebuild_masks();
  }

  // --- Flit movement -------------------------------------------------------
  // Timing-wheel delivery: every wire_push appends its channel id to the
  // bucket of the cycle its flit arrives, so this cycle's bucket lists exactly
  // the channels with a flit due now — one entry per flit, the same count as
  // one pop per delivered flit from a per-channel arrival heap. Deliveries to
  // different channels commute (each writes its own channel's buffer; the
  // occupancy bit, buffered count and active bit are order-free), and each
  // wire stays FIFO, so bucket order cannot change any result. Each entry
  // delivers its wire's front while it is due: fault-free that is exactly
  // its own flit; stale entries left by lossy purges deliver nothing, and the
  // entry kLinkUp adds delivers every flit stranded past its arrival cycle.
  void deliver_arrivals(long cycle) {
    std::vector<int>& bucket = wheel_[static_cast<std::size_t>(wheel_now_)];
    for (const int id : bucket) {
      ++stats_.arrival_events;
      // A down link strands its in-flight flits: the entry is dropped and
      // kLinkUp re-arms the channel.
      if (faults_ && link_down_[id]) continue;
      Channel& ch = channels_[id];
      const int u = ch.dst;
      const int local0 = ch.k_at_dst * cfg_.num_vcs;
      const std::size_t base = slot_base(u) + local0;
      bool delivered = false;
      while (!ch.wire_empty() && ch.wire_front().arrive <= cycle) {
        const InFlight& f = ch.wire_front();
        const std::size_t slot = base + f.vc;
        // A flit landing in an empty slot becomes its head: it requests
        // its port from now until it pops.
        if (buf_count_[slot] == 0 && mask_ok_[u])
          req_mask(u, f.flit.port) |= 1ULL << (local0 + f.vc);
        push(slot, f.flit);
        ch.wire_pop();
        ++in_buffered_[u];
        delivered = true;
      }
      if (delivered) activate(u);
    }
    bucket.clear();
  }

  // One switch-allocation pass at router u: ejection first, then every
  // output port in out-edge order. Masked routers (mask_ok_) keep one
  // request mask per port, holding the slots whose head flit requests it,
  // so each port offers its grant only to its own requesters, in the same
  // round-robin order the full scan uses. Deliveries set a slot's bit when
  // its ring was empty, and pops move it to the new head's port. A pop also
  // marks its input port busy for the rest of the cycle (input_port_free
  // would refuse it), so every port's mask drops the busy inputs' slots
  // before the grant loop. The injection slot is checked live per port
  // instead, because ejecting a request can queue a reply here, and with
  // io_flits_per_cycle >= 2 a grant can finish the head packet and expose
  // the next one.
  void switch_router(int u, long cycle) {
    const int outs = out_off_[u + 1] - out_off_[u];
    if (!mask_ok_[u]) {
      eject_scan(u, cycle);
      for (int j = 0; j < outs; ++j) output_scan(u, j, cycle);
      return;
    }
    visit_busy_ = 0;
    if (eject_req_[u]) eject_masked(u, cycle);
    const std::size_t inj_base = in_degree(u) * cfg_.num_vcs;
    const auto& sq = sources_[u];
    const std::uint64_t* req = &out_req_[out_off_[u]];
    for (int j = 0; j < outs; ++j) {
      std::uint64_t m = req[j] & ~visit_busy_;
      if (!sq.packets.empty() && sq.packets.front()->src_port == j)
        m |= 1ULL << (inj_base + sq.packets.front()->vc);
      if (m) output_masked(u, j, m, cycle);
    }
  }

  // Offers the set bits of m to `grant` in cyclic order starting at slot rr
  // and stops at the first grant.
  template <class Grant>
  static bool first_grant(std::uint64_t m, int rr, Grant&& grant) {
    const std::uint64_t below_rr = (1ULL << rr) - 1;
    for (std::uint64_t part : {m & ~below_rr, m & below_rr})
      for (; part; part &= part - 1)
        if (grant(std::countr_zero(part))) return true;
    return false;
  }

  // Per-cycle activity accounting. The SimStats sum is always maintained
  // (the equivalence tests compare it across modes); the power-of-two
  // occupancy histogram accumulates locally and flushes once per run.
  void count_occupancy(long active) {
    stats_.active_router_cycles += active;
    if (!metrics_on_) return;
    int b = 0;
    while (b < kOccBuckets - 1 && active > kOccBounds[b]) ++b;
    ++occ_counts_[b];
  }

  void flush_metrics() {
    obs::counter("sim.runs").inc();
    obs::counter("sim.cycles")
        .add(static_cast<std::uint64_t>(stats_.cycles_run));
    obs::counter("sim.flits_injected")
        .add(static_cast<std::uint64_t>(flits_injected_));
    obs::counter("sim.flits_ejected")
        .add(static_cast<std::uint64_t>(flits_ejected_));
    obs::counter("sim.arrival_events")
        .add(static_cast<std::uint64_t>(stats_.arrival_events));
    obs::counter("sim.active_router_cycles")
        .add(static_cast<std::uint64_t>(stats_.active_router_cycles));
    auto& h = obs::histogram(
        "sim.active_routers",
        std::vector<double>(kOccBounds, kOccBounds + kOccBuckets - 1));
    for (int b = 0; b < kOccBuckets; ++b) {
      // bounds are inclusive upper edges, so bound b lands in bucket b; the
      // overflow bucket takes anything past the last bound.
      const double rep =
          b < kOccBuckets - 1 ? kOccBounds[b] : kOccBounds[kOccBuckets - 2] + 1;
      h.record_n(rep, static_cast<std::uint64_t>(occ_counts_[b]));
    }
  }

  // Reference mode: visit every router every cycle, ascending. The occupancy
  // pre-scan applies the retire predicate directly; in optimized mode the
  // same number falls out of the active bitmap (activations always accompany
  // new work and retirement only happens on drain, so at the start of the
  // switch phase the active set IS the predicate-true set).
  void switch_all(long cycle) {
    current_cycle_ = cycle;
    long active = 0;
    for (int u = 0; u < n_; ++u)
      if (in_buffered_[u] > 0 || !sources_[u].packets.empty()) ++active;
    count_occupancy(active);
    for (int u = 0; u < n_; ++u) switch_router(u, cycle);
  }

  // Optimized mode: visit only active routers, still in ascending order (the
  // word loop re-reads active_words_[w] so a router activated mid-cycle by an
  // earlier router — a reply enqueued at an ejecting node — is still visited
  // this cycle, exactly as the full scan would). A router retires from the
  // set only when it holds no buffered flit and no queued source packet;
  // anything blocked on credits or bandwidth stays in.
  void switch_active(long cycle) {
    current_cycle_ = cycle;
    long active = 0;
    for (std::uint64_t w : active_words_) active += std::popcount(w);
    count_occupancy(active);
    for (std::size_t w = 0; w < active_words_.size(); ++w) {
      std::uint64_t done = 0;
      while (std::uint64_t pending = active_words_[w] & ~done) {
        const int bit = std::countr_zero(pending);
        done |= 1ULL << bit;
        const int u = static_cast<int>(w << 6) + bit;
        switch_router(u, cycle);
        if (in_buffered_[u] == 0 && sources_[u].packets.empty())
          active_words_[w] &= ~(1ULL << bit);
      }
    }
  }

  // Head flit of (input source k, vc) at router u, or nullptr.
  Flit* peek(int u, std::size_t k, int vc) {
    if (k < in_degree(u)) {
      const std::size_t s = slot_base(u) + k * cfg_.num_vcs + vc;
      return buf_count_[s] == 0 ? nullptr : &front(s);
    }
    // Injection source: synthesize the next flit view of the head packet.
    // A down router's NI refuses injection; its queue backs up instead.
    if (faults_ && router_down_[static_cast<std::size_t>(u)]) return nullptr;
    auto& sq = sources_[u];
    if (sq.packets.empty() || !source_bw_free(sq)) return nullptr;
    Packet* p = sq.packets.front();
    if (p->vc != vc) return nullptr;
    inject_view_.pkt = p;
    inject_view_.head = p->flits_sent == 0;
    inject_view_.tail = p->flits_sent == p->flits - 1;
    inject_view_.port = static_cast<std::int16_t>(p->src_port);
    inject_view_.hop = 0;
    return &inject_view_;
  }

  void pop(int u, std::size_t k, int vc, long cycle) {
    if (k < in_degree(u)) {
      const int pos = in_off_[u] + static_cast<int>(k);
      const std::size_t s = static_cast<std::size_t>(pos) * cfg_.num_vcs + vc;
      const bool masked = mask_ok_[u];
      const std::uint64_t bit = masked ? 1ULL << (k * cfg_.num_vcs + vc) : 0;
      if (masked) req_mask(u, front(s).port) &= ~bit;
      buf_head_[s] = static_cast<std::uint16_t>(
          buf_head_[s] + 1 == cfg_.buf_flits ? 0 : buf_head_[s] + 1);
      --buf_count_[s];
      if (masked) {
        // The next flit (if any) now heads the slot and requests its port.
        if (buf_count_[s] > 0) req_mask(u, front(s).port) |= bit;
        // Masked means (in_degree + 1) * V <= 64, so V < 64 here.
        visit_busy_ |= ((1ULL << cfg_.num_vcs) - 1) << (k * cfg_.num_vcs);
      }
      // Instantaneous credit return (simplification).
      ++credits_[static_cast<std::size_t>(in_ch_[pos]) * cfg_.num_vcs + vc];
      --in_buffered_[u];
      last_input_pop_[pos] = cycle;
    } else {
      auto& sq = sources_[u];
      Packet* p = sq.packets.front();
      ++p->flits_sent;
      ++flits_injected_;
      if (sq.bw_cycle != cycle) {
        sq.bw_cycle = cycle;
        sq.flits_this_cycle = 0;
      }
      ++sq.flits_this_cycle;
      if (p->flits_sent == p->flits) sq.packets.pop_front();
    }
  }

  bool source_bw_free(const SourceQueue& sq) const {
    return sq.bw_cycle != current_cycle_ ||
           sq.flits_this_cycle < cfg_.io_flits_per_cycle;
  }

  bool input_port_free(int u, std::size_t k, long cycle) const {
    if (k < in_degree(u)) return last_input_pop_[in_off_[u] + k] != cycle;
    return source_bw_free(sources_[u]);
  }

  // Switches the head flit of `slot` at router u onto output port j if it
  // requests that port and wins VC allocation and a credit.
  bool try_output(int u, int j, std::size_t slot, long cycle) {
    const int k = slot_input_[slot];
    const int vc = static_cast<int>(slot) - k * cfg_.num_vcs;
    if (!input_port_free(u, k, cycle)) return false;
    Flit* f = peek(u, k, vc);
    if (!f) return false;
    Packet* p = f->pkt;
    const int eid = out_ch_[out_off_[u] + j];
    Channel& out = channels_[eid];
    if (cfg_.reference_mode) {
      // Oracle: route from the table per candidate, as the original scan
      // did. f->port caches exactly this lookup (-1 when p->dst == u).
      if (p->dst == u) return false;  // belongs to the ejection port
      if (table_for(p).next_hop(u, p->src, p->dst) != out.dst) return false;
    } else if (f->port != j) {
      return false;
    }
    // Wormhole VC allocation + credit check.
    const std::size_t ov = static_cast<std::size_t>(eid) * cfg_.num_vcs + vc;
    if (owner_[ov] != nullptr && owner_[ov] != p) return false;
    if (owner_[ov] == nullptr && !f->head) return false;
    if (credits_[ov] <= 0) return false;

    // Grant: route the flit for its next router once, here. Routes are
    // simple paths, so the router after out.dst is the next route entry.
    Flit sent = *f;
    ++sent.hop;
    sent.port = static_cast<std::int16_t>(
        p->dst == out.dst ? -1 : port_to(out.dst, p->route[sent.hop + 1]));
    pop(u, k, vc, cycle);
    --credits_[ov];
    owner_[ov] = sent.tail ? nullptr : p;
    out.wire_push({cycle + out.latency, sent, vc});
    std::size_t bucket = static_cast<std::size_t>(wheel_now_ + out.latency);
    if (bucket >= wheel_.size()) bucket -= wheel_.size();
    wheel_[bucket].push_back(eid);
    const std::size_t slots = (in_degree(u) + 1) * cfg_.num_vcs;
    out_rr_[eid] = slot + 1 == slots ? 0 : static_cast<int>(slot + 1);
    return true;  // one flit per output per cycle
  }

  void output_scan(int u, int j, long cycle) {
    const int eid = out_ch_[out_off_[u] + j];
    if (faults_ && link_down_[eid]) return;  // down links accept no flits
    const std::size_t slots = (in_degree(u) + 1) * cfg_.num_vcs;
    const std::size_t rr = static_cast<std::size_t>(out_rr_[eid]);
    for (std::size_t step = 0; step < slots; ++step)
      if (try_output(u, j, (rr + step) % slots, cycle)) return;
  }

  void output_masked(int u, int j, std::uint64_t requests, long cycle) {
    const int eid = out_ch_[out_off_[u] + j];
    if (faults_ && link_down_[eid]) return;
    first_grant(requests, out_rr_[eid],
                [&](int slot) { return try_output(u, j, slot, cycle); });
  }

  // Ejects the head flit of `slot` at router u if it is destined here.
  bool try_eject(int u, std::size_t slot, long cycle) {
    const int k = slot_input_[slot];
    if (!input_port_free(u, k, cycle)) return false;
    const std::size_t s = slot_base(u) + slot;
    if (buf_count_[s] == 0) return false;
    const Flit f = front(s);
    if (f.pkt->dst != u) return false;
    pop(u, k, static_cast<int>(slot) - k * cfg_.num_vcs, cycle);
    ++flits_ejected_;
    if (f.tail) complete_packet(f.pkt, cycle);
    const std::size_t slots = in_degree(u) * cfg_.num_vcs;
    eject_rr_[u] = slot + 1 == slots ? 0 : static_cast<int>(slot + 1);
    return true;
  }

  // Up to io_flits_per_cycle ejections, each the first ejectable slot from
  // the round-robin pointer on.
  void eject_scan(int u, long cycle) {
    if (faults_ && router_down_[static_cast<std::size_t>(u)]) return;
    const std::size_t slots = in_degree(u) * cfg_.num_vcs;
    for (int granted = 0; granted < cfg_.io_flits_per_cycle; ++granted) {
      bool any = false;
      const std::size_t rr = static_cast<std::size_t>(eject_rr_[u]);
      for (std::size_t step = 0; step < slots && !any; ++step)
        any = try_eject(u, (rr + step) % slots, cycle);
      if (!any) return;
    }
  }

  void eject_masked(int u, long cycle) {
    if (faults_ && router_down_[static_cast<std::size_t>(u)]) return;
    for (int granted = 0; granted < cfg_.io_flits_per_cycle; ++granted)
      if (!first_grant(eject_req_[u] & ~visit_busy_, eject_rr_[u],
                       [&](int slot) { return try_eject(u, slot, cycle); }))
        return;
  }

  void complete_packet(Packet* p, long cycle) {
    ++stats_.total_ejected;
    if (cycle >= cfg_.warmup && cycle < cfg_.warmup + cfg_.measure)
      ++ejected_in_window_;
    if (p->tagged) {
      ++stats_.tagged_completed;
      latency_sum_ += cycle - p->inject_cycle + 1;
      latencies_.push_back(cycle - p->inject_cycle + 1);
    }
    if (p->is_request) {
      --pending_replies_;  // the request itself
      // Generate the data reply (memory / custom request-reply traffic).
      Packet* reply = make_packet(p->dst, p->src, traffic_.data_flits, cycle,
                                  /*request=*/false);
      if (reply) {
        reply->tagged = p->tagged;
        if (reply->tagged) ++stats_.tagged_injected;
        ++stats_.total_injected;
        sources_[reply->src].packets.push_back(reply);
        activate(reply->src);
      }
    }
    // The tail just ejected, so no buffer, wire or VC owner references p any
    // more: recycle it. (Long saturated drains no longer hold every packet
    // ever injected.)
    freelist_.push_back(p);
  }

  void record_backlog() {
    long total = 0;
    for (const auto& sq : sources_)
      total += static_cast<long>(sq.packets.size());
    stats_.mean_source_backlog =
        static_cast<double>(total) / std::max<std::size_t>(1, active_sources_.size());
  }

  // End-of-run accounting backing the conservation invariant tests.
  void record_residuals() {
    stats_.flits_injected = flits_injected_;
    stats_.flits_ejected = flits_ejected_;
    const int vcs = cfg_.num_vcs;
    std::vector<int> wire_vc;
    for (std::size_t id = 0; id < channels_.size(); ++id) {
      const Channel& ch = channels_[id];
      // A credit is claimed when the flit enters the wire, so it mirrors the
      // downstream slots that are occupied *or reserved by an in-flight flit*.
      wire_vc.assign(vcs, 0);
      for (int j = 0; j < ch.wire_count; ++j)
        ++wire_vc[ch.wire[(ch.wire_head + j) % ch.wire.size()].vc];
      const std::size_t slot0 =
          slot_base(ch.dst) + static_cast<std::size_t>(ch.k_at_dst) * vcs;
      for (int vc = 0; vc < vcs; ++vc) {
        const int count = buf_count_[slot0 + vc];
        const std::size_t ov = id * vcs + vc;
        stats_.flits_buffered_end += count;
        if (credits_[ov] != cfg_.buf_flits - count - wire_vc[vc])
          stats_.credits_consistent = false;
        if (owner_[ov] != nullptr) stats_.owners_clear = false;
      }
      stats_.flits_inflight_end += ch.wire_count;
    }
    for (const auto& sq : sources_)
      for (const Packet* p : sq.packets)
        stats_.source_flits_end += p->flits - p->flits_sent;
  }

  const core::NetworkPlan& plan_;
  TrafficConfig traffic_;
  SimConfig cfg_;
  int n_;
  util::Rng rng_;

  std::vector<Channel> channels_;
  // Timing wheel: bucket c mod W lists the channels with a flit arriving at
  // cycle c (W = longest channel latency + 1); see deliver_arrivals.
  std::vector<std::vector<int>> wheel_;
  int wheel_now_ = 0;  // this cycle's bucket
  // CSR adjacency. Router u's inputs k are the channels
  // in_ch_[in_off_[u] + k]; its output port j is channel out_ch_[out_off_[u]
  // + j], leading to router out_dst_[out_off_[u] + j].
  std::vector<int> in_off_, in_ch_, out_off_, out_ch_, out_dst_;
  // Input buffers: the ring of global input slot s (see slot_base) is
  // buf_[s * buf_flits ...], with its head and occupancy.
  std::vector<Flit> buf_;
  std::vector<std::uint16_t> buf_head_, buf_count_;
  // Per (channel id * V + vc): credits at the upstream router, and the
  // packet that holds the VC (wormhole allocation).
  std::vector<int> credits_;
  std::vector<Packet*> owner_;
  std::vector<int> slot_input_;  // (input k, vc) slot -> k, without a divide
  std::vector<int> out_rr_, eject_rr_;  // per channel id / per router
  std::vector<long> last_input_pop_;    // per input position in_off_[u] + k
  std::vector<SourceQueue> sources_;
  std::vector<int> active_sources_;
  std::vector<std::vector<std::pair<double, int>>> cum_;

  // Active-set state: one bit per router, plus the number of flits buffered
  // across the router's input VCs (maintained by deliver/pop).
  std::vector<std::uint64_t> active_words_;
  std::vector<int> in_buffered_;
  // Observability: gate sampled once per run; per-cycle active-router counts
  // binned into power-of-two buckets, flushed to the registry at run end.
  static constexpr double kOccBounds[] = {0,  1,  2,   4,   8,   16,
                                          32, 64, 128, 256, 512, 1024};
  static constexpr int kOccBuckets =
      static_cast<int>(sizeof(kOccBounds) / sizeof(kOccBounds[0])) + 1;
  bool metrics_on_ = false;
  long occ_counts_[kOccBuckets] = {};
  // Request masks over router-local (input k, vc) slots for mask-driven
  // arbitration: per output position out_off_[u] + j, and per router for
  // ejection. Kept only where the slot space fits one word (mask_ok_).
  std::vector<std::uint64_t> out_req_, eject_req_;
  std::vector<std::uint8_t> mask_ok_;
  std::uint64_t visit_busy_ = 0;  // slots of inputs popped this visit

  // Injection schedule: next injection cycle per source index, mirrored in a
  // (cycle, idx) min-heap in optimized mode.
  std::vector<long> next_inject_;
  std::priority_queue<std::pair<long, int>, std::vector<std::pair<long, int>>,
                      std::greater<>>
      inject_heap_;

  // Fault state (sized only when a non-empty plan is attached).
  const fault::FaultPlan* faults_ = nullptr;
  std::size_t next_event_ = 0;
  std::size_t cur_epoch_ = 0;
  std::vector<const routing::RoutingTable*> epoch_tables_;
  std::vector<const vc::VcMap*> epoch_vcs_;
  std::vector<std::uint8_t> link_down_;    // per channel id
  std::vector<std::uint8_t> router_down_;  // per router
  std::vector<long> latencies_;  // tagged completion latencies (percentiles)

  std::deque<Packet> arena_;        // stable storage; grows only when the
  std::vector<Packet*> freelist_;   // freelist of completed packets is empty
  Flit inject_view_;
  long next_id_ = 0;
  long current_cycle_ = -1;
  long latency_sum_ = 0;
  long ejected_in_window_ = 0;
  long pending_replies_ = 0;
  long flits_injected_ = 0;
  long flits_ejected_ = 0;

  SimStats stats_;
};

}  // namespace

SimStats simulate(const core::NetworkPlan& plan, const TrafficConfig& traffic,
                  const SimConfig& cfg) {
  Simulator s(plan, traffic, cfg);
  return s.run();
}

}  // namespace netsmith::sim
