#pragma once
// Per-channel simulator state: input-queued virtual-channel wormhole
// switching with credit-based flow control.
//
// A Channel is one directed link's wire: a fixed-latency in-flight pipeline
// plus the link's endpoints and its position k among dst's in-edges. It owns
// no switch state. The simulator (sim/network.cpp) keeps that in flat arrays:
// (a) the per-VC input FIFOs at dst, one ring per input slot, where router
// u's slot k*V + vc is global slot in_base(u) + k*V + vc; (b) the per-VC
// credit counters at src, mirroring free downstream buffer slots; and (c) the
// per-VC wormhole owners (once a head flit is switched onto (link, vc), that
// packet holds the VC until its tail passes, so flits never interleave
// within a VC). Credits and owners are indexed by channel id * V + vc.
//
// All FIFOs are fixed-capacity flat rings: credits bound the per-VC input
// occupancy at buf_flits, and the wire carries at most one flit per cycle
// for `latency` cycles, so both capacities are known at init time and the
// simulator performs no steady-state allocation.

#include <cassert>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/packet.hpp"

namespace netsmith::sim {

struct InFlight {
  long arrive = 0;
  Flit flit;
  int vc = 0;
};

// One directed link.
struct Channel {
  int src = 0, dst = 0;
  int latency = 3;   // router pipeline + wire (+ CDC) cycles
  int k_at_dst = 0;  // position of this channel among dst's in-edges

  std::vector<InFlight> wire;  // flight ring (FIFO: fixed latency)
  int wire_head = 0, wire_count = 0;

  // Requires `latency` to be set first (sizes the wire ring).
  void init_wire() {
    assert(latency >= 1);
    wire.assign(static_cast<std::size_t>(latency) + 1, {});
    wire_head = wire_count = 0;
  }

  bool wire_empty() const { return wire_count == 0; }
  InFlight& wire_front() { return wire[wire_head]; }
  void wire_push(const InFlight& f) {
    const int ring = static_cast<int>(wire.size());
    assert(wire_count < ring);
    int i = wire_head + wire_count;
    if (i >= ring) i -= ring;
    wire[static_cast<std::size_t>(i)] = f;
    ++wire_count;
  }
  void wire_pop() {
    assert(wire_count > 0);
    if (++wire_head == static_cast<int>(wire.size())) wire_head = 0;
    --wire_count;
  }
};

// Per-node injection state: an unbounded source queue (NI) feeding the
// router at a configurable flits/cycle bandwidth.
struct SourceQueue {
  std::deque<Packet*> packets;
  long bw_cycle = -1;       // cycle the counter refers to
  int flits_this_cycle = 0; // flits injected in bw_cycle
};

}  // namespace netsmith::sim
