// One deterministic SPMD program exercising every schedule-driven
// collective (broadcast, reduce, allreduce, the vector forms, gather,
// gather_vectors, scatter_vectors) over the whole machine and over a
// subgroup with a non-zero root. Shared by the collective parity tests and
// the golden modeled-time test.
#pragma once

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "comm/collectives.hpp"
#include "machine/machine.hpp"

namespace fxpar::testing {

/// Each rank's flattened outputs, so runs can be compared bit-for-bit.
struct SweepResult {
  std::vector<std::vector<double>> per_rank;
  machine::RunResult run;
};

/// Runs the sweep on `c` (its num_procs, backend and plan_cache as given).
inline SweepResult run_collective_sweep(const machine::MachineConfig& c) {
  namespace cm = fxpar::comm;
  namespace pg = fxpar::pgroup;
  const int p = c.num_procs;
  machine::Machine m(c);
  SweepResult out;
  out.per_rank.assign(static_cast<std::size_t>(p), {});
  out.run = m.run([&](machine::Context& ctx) {
    const int r = ctx.phys_rank();
    std::vector<double>& log = out.per_rank[static_cast<std::size_t>(r)];
    const auto g = pg::ProcessorGroup::identity(p);
    const int root = p - 1;

    // broadcast_vector from a non-zero root.
    std::vector<double> b(17);
    if (r == root) {
      for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0 / (1.0 + static_cast<double>(i));
    }
    b = cm::broadcast_vector(ctx, g, root, b);
    log.insert(log.end(), b.begin(), b.end());

    // Scalar reduce + allreduce (sum is order-sensitive in floats; parity
    // requires every run to combine in the same order).
    const double s = cm::reduce(ctx, g, root, 0.1 * (r + 1), std::plus<double>{});
    log.push_back(s);
    log.push_back(cm::allreduce(ctx, g, 1.0 / (r + 2), std::plus<double>{}));

    // Vector reduce / allreduce.
    std::vector<double> v(33);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = std::sin(static_cast<double>(i) + r);
    }
    const auto rv = cm::reduce_vector(ctx, g, 0, v, std::plus<double>{});
    log.insert(log.end(), rv.begin(), rv.end());
    const auto av = cm::allreduce_vector(ctx, g, v, std::plus<double>{});
    log.insert(log.end(), av.begin(), av.end());

    // Scalar gather, vector gather, scatter.
    const auto gs = cm::gather(ctx, g, root, 2.5 * r + 0.25);
    log.insert(log.end(), gs.begin(), gs.end());
    std::vector<double> mine(static_cast<std::size_t>(r + 1), 0.5 * r);
    const auto gv = cm::gather_vectors(ctx, g, 0, mine);
    log.insert(log.end(), gv.begin(), gv.end());
    std::vector<std::vector<double>> parts;
    if (r == root) {
      for (int q = 0; q < p; ++q) {
        parts.emplace_back(static_cast<std::size_t>(q + 2), 1.5 * q);
      }
    }
    const auto sv = cm::scatter_vectors(ctx, g, root, parts);
    log.insert(log.end(), sv.begin(), sv.end());

    // Subgroup collective: only even ranks participate.
    std::vector<int> evens;
    for (int q = 0; q < p; q += 2) evens.push_back(q);
    const pg::ProcessorGroup sub(evens);
    if (sub.contains(r)) {
      const double e = cm::allreduce(ctx, sub, 3.0 + r, std::plus<double>{});
      log.push_back(e);
    }
  });
  return out;
}

inline void expect_sweeps_identical(const SweepResult& a, const SweepResult& b,
                                    const char* what) {
  ASSERT_EQ(a.per_rank.size(), b.per_rank.size());
  for (std::size_t r = 0; r < a.per_rank.size(); ++r) {
    ASSERT_EQ(a.per_rank[r].size(), b.per_rank[r].size()) << what << " rank " << r;
    if (!a.per_rank[r].empty()) {
      EXPECT_EQ(std::memcmp(a.per_rank[r].data(), b.per_rank[r].data(),
                            a.per_rank[r].size() * sizeof(double)),
                0)
          << what << " rank " << r;
    }
  }
}

}  // namespace fxpar::testing
