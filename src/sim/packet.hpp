#pragma once
// Packet/flit types for the flit-level NoI simulator.

#include <cstdint>

namespace netsmith::sim {

struct Packet {
  long id = 0;
  long inject_cycle = 0;  // when the packet entered the source queue
  const int* route = nullptr;  // routers src..dst of its route of record
  int src = 0;
  int dst = 0;
  int flits = 1;          // 1-flit control or 9-flit data (8B links, 72B data)
  int vc = 0;             // layered routing: constant along the route
  int src_port = -1;      // output port out of src (routed once at creation)
  int flits_sent = 0;     // progress at the current router
  // Fault-injection state (untouched on fault-free runs). epoch pins the
  // routing table the packet was injected under — in-flight wormholes keep
  // their route of record across repairs, so a table swap never splits a
  // worm. dropped marks a packet being purged by a lossy link failure.
  int epoch = 0;
  bool dropped = false;
  bool tagged = false;      // injected inside the measurement window
  bool is_request = false;  // memory traffic: triggers a reply at ejection
};

// 16 bytes: port and hop are below the router count, which the simulator
// caps at INT16_MAX.
struct Flit {
  Packet* pkt = nullptr;
  // Output port at the router whose input buffer holds this flit: the next
  // hop's position in that router's out-edge list, or -1 to eject there.
  // Routed once when the flit is switched onto a link, so arbitration never
  // walks the routing table per candidate slot per cycle.
  std::int16_t port = -1;
  std::int16_t hop = 0;  // position of that router in pkt->route
  bool head = false;
  bool tail = false;
};

}  // namespace netsmith::sim
