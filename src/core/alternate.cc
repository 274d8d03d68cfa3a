#include "core/alternate.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "core/dense_kernel.h"
#include "core/result_columns.h"
#include "util/expect.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace pathsel::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Adjacency {
  std::vector<std::vector<std::pair<std::size_t, const PathEdge*>>> out;
};

// Degraded-coverage runs (min_samples lowered after heavy fault loss) can
// leave an edge with a single surviving sample; from_summary would abort on
// it, so fall back to a zero-variance point estimate instead.
stats::MeanEstimate estimate_or_point(const stats::Summary& s) {
  if (s.count() < 2) {
    return stats::MeanEstimate{.mean = s.empty() ? 0.0 : s.mean()};
  }
  return stats::MeanEstimate::from_summary(s);
}

Adjacency build_adjacency(const PathTable& table) {
  Adjacency adj;
  adj.out.resize(table.hosts().size());
  for (const PathEdge& e : table.edges()) {
    const std::size_t ia = table.host_index(e.a);
    const std::size_t ib = table.host_index(e.b);
    adj.out[ia].emplace_back(ib, &e);
    adj.out[ib].emplace_back(ia, &e);
  }
  return adj;
}

}  // namespace

double edge_metric_value(const PathEdge& edge, Metric metric) {
  switch (metric) {
    case Metric::kRtt:
      return edge.rtt.mean();
    case Metric::kLoss:
      return edge.loss.mean();
    case Metric::kPropagation:
      return edge.propagation_ms();
  }
  return 0.0;
}

double edge_weight(const PathEdge& edge, Metric metric) {
  const double value = edge_metric_value(edge, metric);
  if (metric == Metric::kLoss) {
    return -std::log(1.0 - std::min(value, kMaxComposableLoss));
  }
  return value;
}

double compose_metric(std::span<const PathEdge* const> edges, Metric metric) {
  PATHSEL_EXPECT(!edges.empty(), "compose_metric of empty path");
  if (metric == Metric::kLoss) {
    double survive = 1.0;
    for (const PathEdge* e : edges) {
      survive *= 1.0 - std::min(e->loss.mean(), kMaxComposableLoss);
    }
    return 1.0 - survive;
  }
  double total = 0.0;
  for (const PathEdge* e : edges) total += edge_metric_value(*e, metric);
  return total;
}

stats::MeanEstimate compose_estimate(std::span<const PathEdge* const> edges,
                                     Metric metric) {
  PATHSEL_EXPECT(!edges.empty(), "compose_estimate of empty path");
  if (metric == Metric::kLoss) {
    // Delta method for f(p_1..p_k) = 1 - prod(1 - p_i):
    // df/dp_i = prod_{j != i}(1 - p_j) = survive / (1 - p_i).
    double survive = 1.0;
    for (const PathEdge* e : edges) {
      survive *= 1.0 - std::min(e->loss.mean(), kMaxComposableLoss);
    }
    stats::MeanEstimate out{};
    for (const PathEdge* e : edges) {
      const double pi = std::min(e->loss.mean(), kMaxComposableLoss);
      const double deriv = survive / (1.0 - pi);
      out = out + estimate_or_point(e->loss).scaled(deriv);
    }
    out.mean = 1.0 - survive;
    return out;
  }
  if (metric == Metric::kRtt) {
    stats::MeanEstimate out{};
    for (const PathEdge* e : edges) {
      out = out + estimate_or_point(e->rtt);
    }
    return out;
  }
  // Propagation delay has no per-sample uncertainty model in the paper.
  return stats::MeanEstimate{};
}

namespace {

struct SearchScratch {
  std::vector<double> dist;
  std::vector<std::pair<std::size_t, const PathEdge*>> parent;
  // Bounded search keeps one dist/parent snapshot per Bellman-Ford round so
  // reconstruction can honour the edge budget: a single final parent array
  // would let a later-round improvement of an intermediate node splice an
  // over-budget path into the walk (and report a value inconsistent with
  // the computed distance).
  std::vector<std::vector<double>> round_dist;
  std::vector<std::vector<std::pair<std::size_t, const PathEdge*>>> round_parent;
};

// Unbounded shortest path avoiding `direct`; fills dist/parent.
void dijkstra_avoiding(const Adjacency& adj, const PathEdge& direct,
                       std::size_t src, std::size_t dst, Metric metric,
                       SearchScratch& s) {
  std::fill(s.dist.begin(), s.dist.end(), kInf);
  s.dist[src] = 0.0;
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > s.dist[u]) continue;
    if (u == dst) break;
    for (const auto& [v, edge] : adj.out[u]) {
      if (edge == &direct) continue;  // the removed default edge
      const double nd = d + edge_weight(*edge, metric);
      if (nd < s.dist[v]) {
        s.dist[v] = nd;
        s.parent[v] = {u, edge};
        heap.emplace(nd, v);
      }
    }
  }
}

// Hop-bounded shortest path (at most max_edges edges) avoiding `direct`.
// Dijkstra cannot enforce an edge budget, so run max_edges Bellman-Ford
// rounds.  round_dist[r] holds the best <= r-edge distances; an entry
// improved in round r extends a path settled by round r-1, and keeping every
// round's snapshot lets the reconstruction below walk back without ever
// crossing the budget.  Relaxations scan u in ascending index with a strict
// `<`, so among equal-cost alternates the smallest intermediate host index
// wins — the same tie-break rule the dense kernel implements.
void bellman_bounded(const Adjacency& adj, const PathEdge& direct,
                     std::size_t src, std::size_t max_edges, Metric metric,
                     SearchScratch& s) {
  const std::size_t n = adj.out.size();
  s.round_dist.resize(max_edges + 1);
  s.round_parent.resize(max_edges + 1);
  s.round_dist[0].assign(n, kInf);
  s.round_dist[0][src] = 0.0;
  for (std::size_t round = 1; round <= max_edges; ++round) {
    const auto& prev = s.round_dist[round - 1];
    auto& cur = s.round_dist[round];
    cur = prev;
    s.round_parent[round].assign(n, {0, nullptr});
    for (std::size_t u = 0; u < n; ++u) {
      if (prev[u] == kInf) continue;
      for (const auto& [v, edge] : adj.out[u]) {
        if (edge == &direct) continue;
        const double nd = prev[u] + edge_weight(*edge, metric);
        if (nd < cur[v]) {
          cur[v] = nd;
          s.round_parent[round][v] = {u, edge};
        }
      }
    }
  }
}

}  // namespace

namespace {

// The per-edge body of the sweep, independent of every other edge.  Returns
// false when removing the direct edge disconnects the pair.
bool analyze_one_pair(const PathTable& table, const Adjacency& adj,
                      const PathEdge& direct, const AnalyzerOptions& options,
                      SearchScratch& scratch, PairResult& out) {
  const std::size_t src = table.host_index(direct.a);
  const std::size_t dst = table.host_index(direct.b);

  std::vector<const PathEdge*> path_edges;
  std::vector<topo::HostId> via;
  if (options.max_intermediate_hosts > 0) {
    const std::size_t rounds =
        static_cast<std::size_t>(options.max_intermediate_hosts) + 1;
    bellman_bounded(adj, direct, src, rounds, options.metric, scratch);
    if (scratch.round_dist[rounds][dst] == kInf) return false;  // disconnected

    // Walk back dst -> src within the edge budget.  An entry whose value
    // already existed in round r-1 was settled earlier (values only change
    // by strict improvement, so the comparison is exact); the first round
    // that differs is the one whose parent produced the final value, and its
    // predecessor is read from that round's snapshot at round r-1 — never
    // from a later improvement.
    std::size_t r = rounds;
    std::size_t cursor = dst;
    while (cursor != src) {
      while (r > 1 &&
             scratch.round_dist[r - 1][cursor] == scratch.round_dist[r][cursor]) {
        --r;
      }
      const auto& [prev, edge] = scratch.round_parent[r][cursor];
      path_edges.push_back(edge);
      if (prev != src) via.push_back(table.hosts()[prev]);
      cursor = prev;
      --r;
    }
  } else {
    std::fill(scratch.parent.begin(), scratch.parent.end(),
              std::make_pair(std::size_t{0},
                             static_cast<const PathEdge*>(nullptr)));
    dijkstra_avoiding(adj, direct, src, dst, options.metric, scratch);
    if (scratch.dist[dst] == kInf) return false;  // no alternate path exists

    // Reconstruct the edge sequence dst -> src.
    std::size_t cursor = dst;
    while (cursor != src) {
      const auto& [prev, edge] = scratch.parent[cursor];
      path_edges.push_back(edge);
      if (prev != src) via.push_back(table.hosts()[prev]);
      cursor = prev;
    }
  }
  std::reverse(path_edges.begin(), path_edges.end());
  std::reverse(via.begin(), via.end());
  finish_pair_result(direct, path_edges, std::move(via), options.metric, out);
  return true;
}

}  // namespace

void finish_pair_result(const PathEdge& direct,
                        std::span<const PathEdge* const> path_edges,
                        std::vector<topo::HostId> via, Metric metric,
                        PairResult& out) {
  out.a = direct.a;
  out.b = direct.b;
  out.default_value = edge_metric_value(direct, metric);
  out.alternate_value = compose_metric(path_edges, metric);
  out.via = std::move(via);
  if (metric != Metric::kPropagation) {
    out.default_estimate = metric == Metric::kRtt
                               ? estimate_or_point(direct.rtt)
                               : estimate_or_point(direct.loss);
    out.alternate_estimate = compose_estimate(path_edges, metric);
  }
}

namespace {

// The one sweep behind both public forms.  A tripped options.cancel surfaces
// as its Status after the in-flight chunks drain.
Result<std::vector<PairResult>> sweep(const PathTable& table,
                                      const AnalyzerOptions& options) {
  PATHSEL_EXPECT(options.kernel != Kernel::kDense ||
                     options.max_intermediate_hosts == 1,
                 "dense kernel requires max_intermediate_hosts == 1");
  const bool dense = dense_kernel_applicable(table.hosts().size(),
                                             table.edges().size(), options);
  const std::uint64_t sweep_start = wall_clock_ns();
  std::vector<PairResult> results;
  {
    const ScopedTimer timer{"core.alternate.sweep"};
    if (dense) {
      Result<std::vector<PairResult>> swept =
          analyze_alternate_paths_dense(table, options);
      if (!swept.is_ok()) return swept.status();
      results = std::move(swept.value());
    } else {
      const Adjacency adj = build_adjacency(table);
      const std::size_t n = table.hosts().size();
      const std::size_t edge_count = table.edges().size();

      // Chunk size is fixed so chunk boundaries — and therefore the merged
      // output — do not depend on the thread count.
      constexpr std::size_t kChunk = 16;
      ThreadPool& pool =
          ThreadPool::shared(resolve_thread_count(options.threads));
      Result<std::vector<PairResult>> swept = pool.map_chunks<PairResult>(
          edge_count, kChunk,
          [&](std::size_t begin, std::size_t end, std::size_t) {
            SearchScratch scratch;
            scratch.dist.resize(n);
            scratch.parent.resize(n);
            std::vector<PairResult> local;
            local.reserve(end - begin);
            for (std::size_t i = begin; i < end; ++i) {
              PairResult r;
              if (analyze_one_pair(table, adj, table.edges()[i], options,
                                   scratch, r)) {
                local.push_back(std::move(r));
              }
            }
            return local;
          },
          options.cancel);
      if (!swept.is_ok()) return swept.status();
      results = std::move(swept.value());
    }
  }
  MetricsRegistry& m = MetricsRegistry::global();
  if (m.enabled()) {
    m.count("core.alternate.sweeps");
    m.count(dense ? "core.alternate.kernel.dense"
                  : "core.alternate.kernel.search");
    m.count("core.alternate.pairs_analyzed", table.edges().size());
    m.count("core.alternate.pairs_disconnected",
            table.edges().size() - results.size());
    m.observe("core.alternate.sweep_ms",
              static_cast<double>(wall_clock_ns() - sweep_start) / 1e6);
  }
  return results;
}

}  // namespace

std::vector<PairResult> analyze_alternate_paths(const PathTable& table,
                                                const AnalyzerOptions& options) {
  Result<std::vector<PairResult>> results = sweep(table, options);
  PATHSEL_EXPECT(results.is_ok(),
                 "alternate-path sweep cancelled; use "
                 "analyze_alternate_columns for cancellable sweeps");
  return std::move(results.value());
}

Result<ResultColumns> analyze_alternate_columns(
    const PathTable& table, const AnalyzerOptions& options) {
  Result<std::vector<PairResult>> results = sweep(table, options);
  if (!results.is_ok()) return results.status();
  return from_pairs(results.value(), options.metric);
}

}  // namespace pathsel::core
