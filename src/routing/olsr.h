// Optimized Link State Routing (RFC 3626), as evaluated by the paper's
// Table-I scenario (HELLO 1 s, TC 2 s).
//
// Implemented: HELLO link sensing (asym -> sym handshake), 2-hop
// neighbourhood, greedy MPR selection, MPR-selector tracking, TC
// origination and MPR-rule flooding with duplicate suppression, topology
// set with hold times, HNA gateways, and hop-count shortest-path route
// calculation. The olsrd link-quality (ETX) metric that paper Section
// III-B1 describes is not modelled: the paper's figures evaluate plain
// OLSR, so hop count is the one route metric.
#ifndef CAVENET_ROUTING_OLSR_H
#define CAVENET_ROUTING_OLSR_H

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "routing/common.h"

namespace cavenet::routing::olsr {

struct OlsrParams {
  SimTime hello_interval = SimTime::seconds(1);
  SimTime tc_interval = SimTime::seconds(2);
  /// Hold times default to 3x the emission interval (RFC 3626 defaults).
  SimTime neighbor_hold() const noexcept { return hello_interval * 3; }
  SimTime topology_hold() const noexcept { return tc_interval * 3; }
  SimTime duplicate_hold = SimTime::seconds(30);
  /// HNA emission period (RFC 3626 section 12; paper Section III-B1:
  /// "HNA messages are used by OLSR to disseminate network route
  /// advertisements in the same way TC messages advertise host routes").
  SimTime hna_interval = SimTime::seconds(5);
  SimTime hna_hold() const noexcept { return hna_interval * 3; }
};

enum class LinkCode : std::uint8_t { kAsym = 0, kSym = 1, kMpr = 2 };

struct HelloHeader final : netsim::HeaderBase<HelloHeader> {
  struct NeighborEntry {
    netsim::NodeId addr = 0;
    LinkCode code = LinkCode::kAsym;
  };
  netsim::NodeId origin = 0;
  std::vector<NeighborEntry> neighbors;

  std::size_t size_bytes() const override {
    return 16 + 8 * neighbors.size();
  }
  std::string_view name() const override { return "olsr-hello"; }
};

/// Host and Network Association message: a gateway advertises reachability
/// of non-MANET addresses (e.g. an Internet uplink) through itself.
struct HnaHeader final : netsim::HeaderBase<HnaHeader> {
  netsim::NodeId origin = 0;
  std::uint16_t message_seq = 0;
  std::uint8_t ttl = 255;
  std::vector<netsim::NodeId> networks;

  std::size_t size_bytes() const override { return 12 + 8 * networks.size(); }
  std::string_view name() const override { return "olsr-hna"; }
};

struct TcHeader final : netsim::HeaderBase<TcHeader> {
  netsim::NodeId origin = 0;
  std::uint16_t message_seq = 0;
  std::uint16_t ansn = 0;
  std::uint8_t ttl = 255;
  std::vector<netsim::NodeId> advertised;  ///< MPR selectors of the origin

  std::size_t size_bytes() const override {
    return 16 + 8 * advertised.size();
  }
  std::string_view name() const override { return "olsr-tc"; }
};

class OlsrProtocol final : public RoutingProtocol {
 public:
  OlsrProtocol(netsim::Simulator& sim, netsim::LinkLayer& link,
               OlsrParams params = {});

  void start() override;
  void send(netsim::Packet packet, netsim::NodeId destination) override;
  const RoutingTable& table() const override;

  const OlsrParams& params() const noexcept { return params_; }
  /// Current MPR set (for tests and the MPR ablation bench).
  const std::set<netsim::NodeId>& mpr_set() const noexcept { return mprs_; }
  /// Symmetric one-hop neighbours.
  std::vector<netsim::NodeId> symmetric_neighbors() const;

  /// Declares this node a gateway for `network` (a non-MANET address);
  /// it will advertise the association via periodic HNA floods.
  void add_local_network(netsim::NodeId network);
  /// Gateway currently associated with `network`, if any (for tests).
  std::optional<netsim::NodeId> gateway_for(netsim::NodeId network) const;

 private:
  struct LinkTuple {
    SimTime sym_until = SimTime::zero();
    SimTime asym_until = SimTime::zero();
  };
  struct TwoHopTuple {
    netsim::NodeId neighbor;
    netsim::NodeId two_hop;
    SimTime expires;
  };
  struct TopologyTuple {
    netsim::NodeId dest;
    netsim::NodeId last_hop;
    std::uint16_t ansn;
    SimTime expires;
  };

  void on_link_receive(netsim::Packet packet, netsim::NodeId from) override;

  void hello_timer();
  void tc_timer();
  void hna_timer();
  void handle_hello(const HelloHeader& hello, netsim::NodeId from);
  void handle_tc(const TcHeader& tc, netsim::NodeId from);
  void handle_hna(const HnaHeader& hna, netsim::NodeId from);
  void forward_data(netsim::Packet packet, netsim::NodeId from);
  void expire_state();
  bool link_is_sym(netsim::NodeId neighbor) const;
  void select_mprs();
  /// Records that the Dijkstra input changed now; the next read rebuilds.
  void routes_changed();
  /// Rebuilds the table if a change is pending (see table_).
  void refresh_routes() const;
  /// Hop-count Dijkstra over the sym links and topology tuples live at
  /// `at`.
  void compute_routes(SimTime at) const;
  /// Route to `dst`, falling back to the best HNA gateway.
  const RouteEntry* resolve(netsim::NodeId dst) const;

  OlsrParams params_;
  /// Built when read, not on every HELLO and TC. Invariant: a refreshed
  /// table_ equals the Dijkstra at t_c over the state at t_c, where t_c
  /// (routes_at_) is the time of the last change: the last
  /// routes_changed(), called on each received HELLO, each new TC and each
  /// HELLO timer. Two rules keep it:
  ///  * the rebuild runs at t_c, not at the read time, so links and
  ///    tuples that expired in between still count;
  ///  * tc_timer() refreshes before its expire_state() prunes links_ and
  ///    topology_, the one change to the input that no routes_changed()
  ///    follows. hello_timer() prunes without refreshing: it ends in
  ///    routes_changed(), and nothing reads the table in between.
  /// A run has one thread, so the const readers rebuild the mutable cache
  /// without synchronisation.
  mutable RoutingTable table_;
  mutable bool routes_stale_ = false;
  SimTime routes_at_ = SimTime::zero();
  std::map<netsim::NodeId, LinkTuple> links_;
  std::vector<TwoHopTuple> two_hop_;
  std::set<netsim::NodeId> mprs_;
  std::map<netsim::NodeId, SimTime> mpr_selectors_;
  std::vector<TopologyTuple> topology_;
  struct HnaTuple {
    netsim::NodeId network;
    netsim::NodeId gateway;
    SimTime expires;
  };
  std::vector<HnaTuple> hna_associations_;
  std::vector<netsim::NodeId> local_networks_;
  std::map<std::pair<netsim::NodeId, std::uint16_t>, SimTime> duplicates_;
  std::uint16_t ansn_ = 0;
  std::uint16_t message_seq_ = 0;
};

}  // namespace cavenet::routing::olsr

#endif  // CAVENET_ROUTING_OLSR_H
