// Presets describing the four clusters in the paper's evaluation (§5.1).
//
//   Fractus    16 nodes, 100 Gb/s Mellanox, full bisection, one hop.
//   Sierra     1,944 nodes, 4x QDR QLogic at 40 Gb/s, fat tree
//              (modelled full-bisection; the paper reports limited
//              degradation with scale, which our delay injection covers).
//   Stampede-1 6,400 nodes, FDR 56 Gb/s NICs with ~40 Gb/s measured unicast
//              (we use the measured rate, as the paper's Table 1 does).
//   Apt        192 nodes, FDR 56 Gb/s NICs, *oversubscribed* TOR that
//              degrades to ~16 Gb/s per link when loaded (Fig 10b).
#pragma once

#include <string>

#include "sim/delay_model.hpp"
#include "sim/topology.hpp"

namespace rdmc::sim {

struct ClusterProfile {
  std::string name;
  TopologyConfig topology;
  SoftwareCosts costs;
  /// Background preemption process active in all experiments on this
  /// cluster (batch-scheduled machines show more jitter).
  PreemptionModel preemption;
};

/// 16-node, 100 Gb/s, full-bisection cluster (most figures).
ClusterProfile fractus_profile(std::size_t num_nodes = 16);

/// Large batch cluster, 40 Gb/s line rate (Fig 8 scalability).
ClusterProfile sierra_profile(std::size_t num_nodes = 512);

/// 40 Gb/s effective unicast (Table 1 / Fig 5 breakdowns).
ClusterProfile stampede_profile(std::size_t num_nodes = 16);

/// Oversubscribed TOR: 16 nodes/rack at 56 Gb/s NICs with a shared uplink
/// that limits sustained inter-rack traffic to ~16 Gb/s per link (Fig 10b).
ClusterProfile apt_profile(std::size_t num_nodes = 64);

/// Apt-style racked profile with explicit geometry: `oversubscription` is
/// the ratio of aggregate intra-rack NIC bandwidth to uplink capacity
/// (1.0 = non-blocking, apt's stock geometry is 16*56/256 = 3.5). Max-min
/// components here couple through the shared uplinks — tests and benches
/// use it to sweep rack size and uplink pressure independently.
ClusterProfile racked_profile(std::size_t num_nodes,
                              std::size_t nodes_per_rack,
                              double oversubscription,
                              double nic_gbps = 56.0);

/// WAN profile: `num_regions` sites (modelled as racks), each holding
/// `nodes_per_region` nodes on fast local NICs, joined by long-haul links
/// with `inter_region_rtt_ms` round-trip time and `inter_region_gbps`
/// per-site egress capacity. RC-style break-on-loss is a poor fit here —
/// this is the home turf of the UD service type + software reliability
/// (SDR-RDMA's motivating deployment).
ClusterProfile wan_profile(std::size_t num_regions = 4,
                           std::size_t nodes_per_region = 4,
                           double inter_region_rtt_ms = 30.0,
                           double inter_region_gbps = 10.0,
                           double nic_gbps = 100.0);

/// Planetary preset: five geographic regions (us-east, us-west, eu-west,
/// ap-northeast, sa-east) with realistic per-pair RTTs (60–255 ms) encoded
/// as rack-pair latency overrides. The stress case for loss x RTT sweeps.
ClusterProfile planetary_profile(std::size_t nodes_per_region = 4);

}  // namespace rdmc::sim
