#include "fairness/clusters.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>

#include "util/assert.hpp"

namespace midrr::fair {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

std::vector<double> row_sums(const std::vector<std::vector<double>>& alloc) {
  std::vector<double> sums(alloc.size(), 0.0);
  for (std::size_t i = 0; i < alloc.size(); ++i) {
    for (double v : alloc[i]) sums[i] += v;
  }
  return sums;
}

}  // namespace

ClusterAnalysis analyze_clusters(const MaxMinInput& input,
                                 const std::vector<std::vector<double>>& alloc,
                                 double active_fraction) {
  input.validate();
  const std::size_t n = input.flow_count();
  const std::size_t m = input.iface_count();
  MIDRR_REQUIRE(alloc.size() == n, "alloc row count mismatch");

  const std::vector<double> rates = row_sums(alloc);
  double scale = 0.0;
  for (double r : rates) scale = std::max(scale, r);
  const double abs_floor = scale * 1e-9;

  // Active edge: interface j carries a meaningful share of flow i.
  const auto active = [&](std::size_t i, std::size_t j) {
    return alloc[i][j] > std::max(abs_floor, active_fraction * rates[i]);
  };

  ClusterAnalysis out;
  out.flow_cluster.assign(n, kNone);
  out.iface_cluster.assign(m, kNone);

  // Union-find over n flows + m interfaces.
  std::vector<std::size_t> parent(n + m);
  for (std::size_t v = 0; v < parent.size(); ++v) parent[v] = v;
  const std::function<std::size_t(std::size_t)> find =
      [&](std::size_t v) -> std::size_t {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  const auto unite = [&](std::size_t a, std::size_t b) {
    parent[find(a)] = find(b);
  };

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (active(i, j)) unite(i, n + j);
    }
  }

  // Materialize clusters: only members with at least one active edge join.
  std::vector<std::size_t> root_to_cluster(n + m, kNone);
  for (std::size_t i = 0; i < n; ++i) {
    if (rates[i] <= abs_floor) continue;  // idle flow, no cluster
    const std::size_t root = find(i);
    if (root_to_cluster[root] == kNone) {
      root_to_cluster[root] = out.clusters.size();
      out.clusters.emplace_back();
    }
    const std::size_t c = root_to_cluster[root];
    out.clusters[c].flows.push_back(i);
    out.flow_cluster[i] = c;
  }
  for (std::size_t j = 0; j < m; ++j) {
    bool used = false;
    for (std::size_t i = 0; i < n && !used; ++i) used = active(i, j);
    if (!used) continue;
    const std::size_t root = find(n + j);
    const std::size_t c = root_to_cluster[root];
    if (c == kNone) continue;
    out.clusters[c].ifaces.push_back(j);
    out.iface_cluster[j] = c;
  }

  for (auto& cluster : out.clusters) {
    double acc = 0.0;
    for (std::size_t i : cluster.flows) {
      acc += rates[i] / input.weights[i];
    }
    cluster.normalized_rate =
        cluster.flows.empty() ? 0.0
                              : acc / static_cast<double>(cluster.flows.size());
  }
  return out;
}

std::optional<std::string> check_max_min_conditions(
    const MaxMinInput& input, const std::vector<std::vector<double>>& alloc,
    double rel_tol) {
  input.validate();
  const std::size_t n = input.flow_count();
  const std::size_t m = input.iface_count();
  MIDRR_REQUIRE(alloc.size() == n, "alloc row count mismatch");

  const std::vector<double> rates = row_sums(alloc);
  double scale = 0.0;
  for (double r : rates) scale = std::max(scale, r);
  if (scale == 0.0) return std::nullopt;  // nothing allocated, nothing to check
  const double tol = rel_tol * scale;
  const double active_floor = 1e-6 * scale;

  // Interface preferences must be respected.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (!input.willing[i][j] && alloc[i][j] > tol) {
        std::ostringstream msg;
        msg << "flow " << i << " received " << alloc[i][j]
            << " b/s from interface " << j << " it is unwilling to use";
        return msg.str();
      }
    }
  }

  for (std::size_t j = 0; j < m; ++j) {
    // U_j: flows actively served by j.
    for (std::size_t i = 0; i < n; ++i) {
      if (alloc[i][j] <= active_floor) continue;
      const double ri = rates[i] / input.weights[i];
      // Condition 1: every other active flow on j has the same level.
      for (std::size_t k = i + 1; k < n; ++k) {
        if (alloc[k][j] <= active_floor) continue;
        const double rk = rates[k] / input.weights[k];
        if (std::abs(ri - rk) > tol) {
          std::ostringstream msg;
          msg << "condition 1 violated on interface " << j << ": flows " << i
              << " and " << k << " share it at normalized rates " << ri
              << " vs " << rk;
          return msg.str();
        }
      }
      // Condition 2: willing-but-inactive flows must be at >= level.
      for (std::size_t k = 0; k < n; ++k) {
        if (k == i || !input.willing[k][j] || alloc[k][j] > active_floor) {
          continue;
        }
        const double rk = rates[k] / input.weights[k];
        if (rk < ri - tol) {
          std::ostringstream msg;
          msg << "condition 2 violated on interface " << j << ": flow " << k
              << " (normalized " << rk << ") is willing but idle while flow "
              << i << " is served at " << ri;
          return msg.str();
        }
      }
    }
  }
  return std::nullopt;
}

std::string format_clusters(const ClusterAnalysis& analysis,
                            const std::vector<std::string>& flow_names,
                            const std::vector<std::string>& iface_names) {
  std::ostringstream out;
  bool first_cluster = true;
  for (const Cluster& c : analysis.clusters) {
    if (!first_cluster) out << "  ";
    first_cluster = false;
    out << '{';
    for (std::size_t k = 0; k < c.flows.size(); ++k) {
      if (k > 0) out << ',';
      const std::size_t i = c.flows[k];
      if (i < flow_names.size()) {
        out << flow_names[i];
      } else {
        out << 'f' << i;
      }
    }
    out << " | ";
    for (std::size_t k = 0; k < c.ifaces.size(); ++k) {
      if (k > 0) out << ',';
      const std::size_t j = c.ifaces[k];
      out << (j < iface_names.size() ? iface_names[j]
                                     : "if" + std::to_string(j));
    }
    out << "} @";
    out << c.normalized_rate / 1e6 << "Mb/s";
  }
  return out.str();
}

}  // namespace midrr::fair
