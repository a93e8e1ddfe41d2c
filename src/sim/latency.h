#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace praft::sim {

/// Site-to-site round-trip-time matrix with optional jitter. One-way delays
/// are sampled as RTT/2 * (1 ± jitter). Intra-site traffic uses `local_rtt`.
class LatencyMatrix {
 public:
  LatencyMatrix(int num_sites, Duration default_rtt);

  void set_rtt(SiteId a, SiteId b, Duration rtt);  // symmetric
  void set_jitter(double fraction) { jitter_ = fraction; }
  void set_site_name(SiteId s, std::string name);

  [[nodiscard]] Duration rtt(SiteId a, SiteId b) const;
  [[nodiscard]] Duration one_way(SiteId a, SiteId b, Rng& rng) const;
  [[nodiscard]] int num_sites() const { return num_sites_; }
  [[nodiscard]] const std::string& site_name(SiteId s) const;

  /// The paper's 5-region AWS testbed (§5): Oregon, Ohio, Ireland, Canada,
  /// Seoul. RTTs range 25–292 ms; Oregon's nearest quorum is {ORE, OHI, CAN}.
  static LatencyMatrix aws5();

  static constexpr SiteId kOregon = 0;
  static constexpr SiteId kOhio = 1;
  static constexpr SiteId kIreland = 2;
  static constexpr SiteId kCanada = 3;
  static constexpr SiteId kSeoul = 4;

 private:
  int num_sites_;
  Duration local_rtt_ = msec(1) / 2;  // 0.5 ms intra-site RTT
  double jitter_ = 0.05;
  std::vector<Duration> rtt_;  // row-major num_sites x num_sites
  std::vector<std::string> names_;
};

}  // namespace praft::sim
