#include "routing/olsr.h"

#include <algorithm>
#include <queue>
#include <utility>

namespace cavenet::routing::olsr {

using netsim::kBroadcast;
using netsim::NodeId;
using netsim::Packet;

OlsrProtocol::OlsrProtocol(netsim::Simulator& sim, netsim::LinkLayer& link,
                           OlsrParams params)
    : RoutingProtocol(sim, link, "olsr", 0x6f6c7372), params_(params) {}

void OlsrProtocol::start() {
  sim_->schedule(jitter(), "olsr", [this] { hello_timer(); });
  sim_->schedule(jitter() + SimTime::nanoseconds(params_.tc_interval.ns() / 2),
                 "olsr", [this] { tc_timer(); });
  sim_->schedule(jitter() + SimTime::seconds(1), "olsr",
                 [this] { hna_timer(); });
}

void OlsrProtocol::add_local_network(NodeId network) {
  local_networks_.push_back(network);
}

const RoutingTable& OlsrProtocol::table() const {
  refresh_routes();
  return table_;
}

std::optional<NodeId> OlsrProtocol::gateway_for(NodeId network) const {
  refresh_routes();
  const RouteEntry* route = nullptr;
  NodeId gateway = 0;
  for (const auto& assoc : hna_associations_) {
    if (assoc.network != network || assoc.expires <= sim_->now()) continue;
    const RouteEntry* candidate = table_.lookup(assoc.gateway, sim_->now());
    if (candidate == nullptr) continue;
    if (route == nullptr || candidate->hop_count < route->hop_count) {
      route = candidate;
      gateway = assoc.gateway;
    }
  }
  if (route == nullptr) return std::nullopt;
  return gateway;
}

const RouteEntry* OlsrProtocol::resolve(NodeId dst) const {
  refresh_routes();
  if (const RouteEntry* direct = table_.lookup(dst, sim_->now())) {
    return direct;
  }
  // No host route: try the HNA association set, nearest gateway first.
  if (const auto gateway = gateway_for(dst)) {
    return table_.lookup(*gateway, sim_->now());
  }
  return nullptr;
}

void OlsrProtocol::send(Packet packet, NodeId destination) {
  DataHeader header;
  header.src = address();
  header.dst = destination;
  header.ttl = 32;
  packet.push(header);
  ++stats_.data_originated;
  if (const RouteEntry* route = resolve(destination)) {
    send_data_link(std::move(packet), route->next_hop);
    return;
  }
  // Proactive protocol: no discovery to wait for — if the topology has no
  // path right now, the packet is lost (a root cause of OLSR's lower
  // goodput in the paper's comparison).
  ++stats_.drops_no_route;
}

bool OlsrProtocol::link_is_sym(NodeId neighbor) const {
  const auto it = links_.find(neighbor);
  return it != links_.end() && it->second.sym_until > sim_->now();
}

std::vector<NodeId> OlsrProtocol::symmetric_neighbors() const {
  std::vector<NodeId> out;
  for (const auto& [addr, link] : links_) {
    if (link.sym_until > sim_->now()) out.push_back(addr);
  }
  return out;
}

void OlsrProtocol::hello_timer() {
  expire_state();
  select_mprs();

  HelloHeader hello;
  hello.origin = address();
  for (const auto& [addr, link] : links_) {
    if (link.asym_until <= sim_->now() && link.sym_until <= sim_->now()) {
      continue;
    }
    HelloHeader::NeighborEntry entry;
    entry.addr = addr;
    if (mprs_.contains(addr)) entry.code = LinkCode::kMpr;
    else if (link.sym_until > sim_->now()) entry.code = LinkCode::kSym;
    else entry.code = LinkCode::kAsym;
    hello.neighbors.push_back(entry);
  }
  Packet packet(0);
  packet.push(hello);
  send_control(std::move(packet), kBroadcast);

  routes_changed();
  sim_->schedule(params_.hello_interval + jitter(10), "olsr",
                 [this] { hello_timer(); });
}

void OlsrProtocol::tc_timer() {
  // The prune below changes the Dijkstra input with no recompute after
  // it: build the pending table first, over the state it was due for.
  refresh_routes();
  expire_state();
  if (!mpr_selectors_.empty()) {
    TcHeader tc;
    tc.origin = address();
    tc.message_seq = ++message_seq_;
    tc.ansn = ansn_;
    tc.ttl = 255;
    for (const auto& [selector, expiry] : mpr_selectors_) {
      tc.advertised.push_back(selector);
    }
    duplicates_[{address(), tc.message_seq}] =
        sim_->now() + params_.duplicate_hold;
    Packet packet(0);
    packet.push(tc);
    send_control(std::move(packet), kBroadcast);
  }
  sim_->schedule(params_.tc_interval + jitter(10), "olsr",
                 [this] { tc_timer(); });
}

void OlsrProtocol::on_link_receive(Packet packet, NodeId from) {
  // Const peeks: the packet may share its header stack with every other
  // receiver of the broadcast, and reading must not detach it.
  if (const HelloHeader* hello = std::as_const(packet).peek<HelloHeader>()) {
    handle_hello(*hello, from);
  } else if (const TcHeader* tc = std::as_const(packet).peek<TcHeader>()) {
    handle_tc(*tc, from);
  } else if (const HnaHeader* hna = std::as_const(packet).peek<HnaHeader>()) {
    handle_hna(*hna, from);
  } else if (std::as_const(packet).peek<DataHeader>() != nullptr) {
    forward_data(std::move(packet), from);
  }
}

void OlsrProtocol::handle_hello(const HelloHeader& hello, NodeId from) {
  const SimTime hold = params_.neighbor_hold();
  LinkTuple& link = links_[from];
  link.asym_until = sim_->now() + hold;

  bool lists_me = false;
  for (const auto& entry : hello.neighbors) {
    if (entry.addr == address()) {
      lists_me = true;
      // The neighbour selected us as MPR: record selector.
      if (entry.code == LinkCode::kMpr) {
        const bool is_new = !mpr_selectors_.contains(from);
        mpr_selectors_[from] = sim_->now() + hold;
        if (is_new) ++ansn_;
      }
    }
  }
  if (lists_me) link.sym_until = sim_->now() + hold;

  // 2-hop neighbourhood: symmetric neighbours of a symmetric neighbour.
  if (link.sym_until > sim_->now()) {
    for (const auto& entry : hello.neighbors) {
      if (entry.addr == address()) continue;
      if (entry.code == LinkCode::kAsym) continue;
      const auto match = std::find_if(
          two_hop_.begin(), two_hop_.end(), [&](const TwoHopTuple& t) {
            return t.neighbor == from && t.two_hop == entry.addr;
          });
      if (match != two_hop_.end()) {
        match->expires = sim_->now() + hold;
      } else {
        two_hop_.push_back({from, entry.addr, sim_->now() + hold});
      }
    }
  }
  routes_changed();
}

void OlsrProtocol::handle_tc(const TcHeader& tc, NodeId from) {
  if (tc.origin == address()) return;
  if (!link_is_sym(from)) return;  // RFC 9.5: accept only from sym neighbours

  const auto key = std::make_pair(tc.origin, tc.message_seq);
  const bool duplicate = duplicates_.contains(key);
  if (!duplicate) {
    duplicates_[key] = sim_->now() + params_.duplicate_hold;

    // Purge older ANSN tuples from this origin, then record the new set.
    std::erase_if(topology_, [&](const TopologyTuple& t) {
      return t.last_hop == tc.origin &&
             static_cast<std::int16_t>(tc.ansn - t.ansn) > 0;
    });
    for (const NodeId dest : tc.advertised) {
      const auto match = std::find_if(
          topology_.begin(), topology_.end(), [&](const TopologyTuple& t) {
            return t.dest == dest && t.last_hop == tc.origin;
          });
      if (match != topology_.end()) {
        match->ansn = tc.ansn;
        match->expires = sim_->now() + params_.topology_hold();
      } else {
        topology_.push_back(
            {dest, tc.origin, tc.ansn, sim_->now() + params_.topology_hold()});
      }
    }
    routes_changed();
  }

  // MPR flooding rule: retransmit only if the sender selected us as MPR.
  if (!duplicate && mpr_selectors_.contains(from) && tc.ttl > 1) {
    TcHeader fwd = tc;
    --fwd.ttl;
    Packet out(0);
    out.push(fwd);
    send_control(std::move(out), kBroadcast);
  }
}

void OlsrProtocol::forward_data(Packet packet, NodeId from) {
  (void)from;
  const DataHeader* header = std::as_const(packet).peek<DataHeader>();
  // A gateway terminates traffic for its associated networks (the packet
  // would leave the MANET through the uplink here).
  if (std::find(local_networks_.begin(), local_networks_.end(),
                header->dst) != local_networks_.end()) {
    const DataHeader popped = packet.pop<DataHeader>();
    deliver(std::move(packet), popped.src, popped.hops);
    return;
  }
  if (header->dst == address()) {
    const DataHeader popped = packet.pop<DataHeader>();
    deliver(std::move(packet), popped.src, popped.hops);
    return;
  }
  if (header->ttl <= 1) {
    ++stats_.drops_ttl;
    return;
  }
  const NodeId dst = header->dst;
  // Forwarding rewrites ttl/hops: only now take a writable header
  // (detaching a stack shared with the other broadcast receivers).
  DataHeader* fwd = packet.peek<DataHeader>();
  --fwd->ttl;
  ++fwd->hops;
  if (const RouteEntry* route = resolve(dst)) {
    ++stats_.data_forwarded;
    send_data_link(std::move(packet), route->next_hop);
    return;
  }
  ++stats_.drops_no_route;
}

void OlsrProtocol::hna_timer() {
  if (!local_networks_.empty()) {
    HnaHeader hna;
    hna.origin = address();
    hna.message_seq = ++message_seq_;
    hna.ttl = 255;
    hna.networks = local_networks_;
    duplicates_[{address(), hna.message_seq}] =
        sim_->now() + params_.duplicate_hold;
    Packet packet(0);
    packet.push(hna);
    send_control(std::move(packet), kBroadcast);
  }
  sim_->schedule(params_.hna_interval + jitter(10), "olsr",
                 [this] { hna_timer(); });
}

void OlsrProtocol::handle_hna(const HnaHeader& hna, NodeId from) {
  if (hna.origin == address()) return;
  if (!link_is_sym(from)) return;

  const auto key = std::make_pair(hna.origin, hna.message_seq);
  const bool duplicate = duplicates_.contains(key);
  if (!duplicate) {
    duplicates_[key] = sim_->now() + params_.duplicate_hold;
    for (const NodeId network : hna.networks) {
      const auto match = std::find_if(
          hna_associations_.begin(), hna_associations_.end(),
          [&](const HnaTuple& t) {
            return t.network == network && t.gateway == hna.origin;
          });
      if (match != hna_associations_.end()) {
        match->expires = sim_->now() + params_.hna_hold();
      } else {
        hna_associations_.push_back(
            {network, hna.origin, sim_->now() + params_.hna_hold()});
      }
    }
  }
  // Same MPR flooding rule as TC.
  if (!duplicate && mpr_selectors_.contains(from) && hna.ttl > 1) {
    HnaHeader fwd = hna;
    --fwd.ttl;
    Packet out(0);
    out.push(fwd);
    send_control(std::move(out), kBroadcast);
  }
}

void OlsrProtocol::expire_state() {
  const SimTime now = sim_->now();
  std::erase_if(links_, [&](const auto& kv) {
    return kv.second.sym_until <= now && kv.second.asym_until <= now;
  });
  std::erase_if(two_hop_,
                [&](const TwoHopTuple& t) { return t.expires <= now; });
  const std::size_t selectors_before = mpr_selectors_.size();
  std::erase_if(mpr_selectors_,
                [&](const auto& kv) { return kv.second <= now; });
  if (mpr_selectors_.size() != selectors_before) ++ansn_;
  std::erase_if(topology_,
                [&](const TopologyTuple& t) { return t.expires <= now; });
  std::erase_if(hna_associations_,
                [&](const HnaTuple& t) { return t.expires <= now; });
  std::erase_if(duplicates_,
                [&](const auto& kv) { return kv.second <= now; });
}

void OlsrProtocol::select_mprs() {
  // Greedy set cover (RFC 8.3.1 heuristic): first neighbours that are the
  // sole cover of some 2-hop node, then best coverage counts.
  mprs_.clear();
  const auto neighbors = symmetric_neighbors();
  std::set<NodeId> neighbor_set(neighbors.begin(), neighbors.end());

  // Strict 2-hop set: reachable via a sym neighbour, not a neighbour or us.
  std::set<NodeId> uncovered;
  std::map<NodeId, std::vector<NodeId>> coverers;  // two-hop -> neighbours
  for (const auto& t : two_hop_) {
    if (t.expires <= sim_->now()) continue;
    if (!neighbor_set.contains(t.neighbor)) continue;
    if (t.two_hop == address() || neighbor_set.contains(t.two_hop)) continue;
    uncovered.insert(t.two_hop);
    coverers[t.two_hop].push_back(t.neighbor);
  }

  for (const auto& [two_hop, covering] : coverers) {
    if (covering.size() == 1) {
      mprs_.insert(covering.front());
    }
  }
  auto cover = [&](NodeId mpr) {
    std::erase_if(uncovered, [&](NodeId n2) {
      const auto& c = coverers[n2];
      return std::find(c.begin(), c.end(), mpr) != c.end();
    });
  };
  for (const NodeId mpr : mprs_) cover(mpr);

  while (!uncovered.empty()) {
    NodeId best = 0;
    std::size_t best_count = 0;
    for (const NodeId n : neighbors) {
      if (mprs_.contains(n)) continue;
      std::size_t count = 0;
      for (const NodeId n2 : uncovered) {
        const auto& c = coverers[n2];
        if (std::find(c.begin(), c.end(), n) != c.end()) ++count;
      }
      if (count > best_count) {
        best_count = count;
        best = n;
      }
    }
    if (best_count == 0) break;  // unreachable 2-hop nodes (stale tuples)
    mprs_.insert(best);
    cover(best);
  }
}

void OlsrProtocol::routes_changed() {
  routes_stale_ = true;
  routes_at_ = sim_->now();
}

void OlsrProtocol::refresh_routes() const {
  if (!routes_stale_) return;
  compute_routes(routes_at_);
  routes_stale_ = false;
}

void OlsrProtocol::compute_routes(SimTime at) const {
  // Dijkstra by hop count over sym links + topology edges. With unit
  // costs a BFS would find the same distances, but the heap's pop order
  // decides which of several equal-hop next hops a route takes; the
  // pinned OLSR outputs depend on it.
  table_.clear();

  struct Item {
    std::uint32_t hops;
    NodeId node;
    NodeId first_hop;
    bool operator>(const Item& other) const { return hops > other.hops; }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<>> frontier;
  std::map<NodeId, std::uint32_t> best_hops;

  for (const auto& [addr, link] : links_) {
    if (link.sym_until <= at) continue;
    frontier.push({1, addr, addr});
  }

  // Adjacency from the topology set: last_hop -> dest.
  std::map<NodeId, std::vector<NodeId>> adjacency;
  for (const auto& t : topology_) {
    if (t.expires <= at) continue;
    adjacency[t.last_hop].push_back(t.dest);
  }

  while (!frontier.empty()) {
    const Item item = frontier.top();
    frontier.pop();
    if (const auto it = best_hops.find(item.node);
        it != best_hops.end() && it->second <= item.hops) {
      continue;
    }
    best_hops[item.node] = item.hops;

    RouteEntry& e = table_.upsert(item.node);
    e.next_hop = item.first_hop;
    e.hop_count = item.hops;
    e.valid = true;
    e.expires = SimTime::max();

    const auto adj = adjacency.find(item.node);
    if (adj == adjacency.end()) continue;
    for (const NodeId dest : adj->second) {
      if (dest == address()) continue;
      frontier.push({item.hops + 1, dest, item.first_hop});
    }
  }
}

}  // namespace cavenet::routing::olsr
