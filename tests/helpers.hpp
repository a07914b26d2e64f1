/// \file helpers.hpp
/// Shared fixtures for the test suite: tiny reference circuits and a
/// seeded random-network generator for property tests.
#pragma once

#include <string>
#include <vector>

#include "soidom/base/rng.hpp"
#include "soidom/network/builder.hpp"
#include "soidom/network/network.hpp"

namespace soidom::testing {

/// The paper's running example (Fig. 2 / Fig. 3): f = (A + B + C) * D.
inline Network fig2_network() {
  NetworkBuilder b;
  const NodeId a = b.add_pi("A");
  const NodeId bb = b.add_pi("B");
  const NodeId c = b.add_pi("C");
  const NodeId d = b.add_pi("D");
  const NodeId sum = b.add_or(b.add_or(a, bb), c);
  b.add_output(b.add_and(sum, d), "f");
  return std::move(b).build();
}

/// Fig. 3's worked example: out = (a*b) + (c*d).
inline Network fig3_network() {
  NetworkBuilder b;
  const NodeId a = b.add_pi("a");
  const NodeId b1 = b.add_pi("b");
  const NodeId c = b.add_pi("c");
  const NodeId d = b.add_pi("d");
  b.add_output(b.add_or(b.add_and(a, b1), b.add_and(c, d)), "out");
  return std::move(b).build();
}

/// Full adder (carry + sum), binate at the sum output -> exercises
/// unate-conversion duplication.
inline Network full_adder_network() {
  NetworkBuilder b;
  const NodeId x = b.add_pi("x");
  const NodeId y = b.add_pi("y");
  const NodeId cin = b.add_pi("cin");
  auto xor2 = [&](NodeId p, NodeId q) {
    return b.add_or(b.add_and(p, b.add_inv(q)), b.add_and(b.add_inv(p), q));
  };
  const NodeId s1 = xor2(x, y);
  b.add_output(xor2(s1, cin), "sum");
  b.add_output(b.add_or(b.add_and(x, y), b.add_and(s1, cin)), "cout");
  return std::move(b).build();
}

/// Seeded random DAG of AND/OR/INV nodes over `num_pis` inputs with
/// `num_gates` gates and `num_pos` outputs.  Deterministic per seed.
inline Network random_network(int num_pis, int num_gates, int num_pos,
                              std::uint64_t seed) {
  Rng rng(seed);
  NetworkBuilder b;
  std::vector<NodeId> pool;
  for (int i = 0; i < num_pis; ++i) {
    pool.push_back(b.add_pi('x' + std::to_string(i)));
  }
  for (int g = 0; g < num_gates; ++g) {
    const NodeId u =
        pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
    const NodeId v =
        pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
    NodeId out;
    switch (rng.next_below(5)) {
      case 0:
      case 1: out = b.add_and(u, v); break;
      case 2:
      case 3: out = b.add_or(u, v); break;
      default: out = b.add_inv(u); break;
    }
    pool.push_back(out);
  }
  for (int p = 0; p < num_pos; ++p) {
    // Bias outputs toward late (deep) nodes.
    const std::size_t lo = pool.size() > 8 ? pool.size() / 2 : 0;
    const std::size_t pick =
        lo + static_cast<std::size_t>(rng.next_below(pool.size() - lo));
    b.add_output(pool[pick], 'z' + std::to_string(p));
  }
  return std::move(b).build();
}

}  // namespace soidom::testing
