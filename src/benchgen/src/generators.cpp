#include "soidom/benchgen/generators.hpp"

#include <algorithm>
#include <string>

#include "soidom/base/contracts.hpp"
#include "soidom/base/rng.hpp"
#include "soidom/network/builder.hpp"
#include "soidom/network/transform.hpp"

namespace soidom {
namespace {

NodeId xor2(NetworkBuilder& b, NodeId x, NodeId y) {
  return b.add_or(b.add_and(x, b.add_inv(y)), b.add_and(b.add_inv(x), y));
}

NodeId mux2(NetworkBuilder& b, NodeId sel, NodeId when1, NodeId when0) {
  return b.add_or(b.add_and(sel, when1), b.add_and(b.add_inv(sel), when0));
}

std::vector<NodeId> add_pis(NetworkBuilder& b, const char* prefix, int n) {
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(b.add_pi(std::string(prefix) + std::to_string(i)));
  }
  return out;
}

/// Ripple adder over existing operand nodes; returns sum bits, sets cout.
std::vector<NodeId> ripple_sum(NetworkBuilder& b, const std::vector<NodeId>& x,
                               const std::vector<NodeId>& y, NodeId cin,
                               NodeId& cout) {
  SOIDOM_ASSERT(x.size() == y.size());
  std::vector<NodeId> sum;
  NodeId carry = cin;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const NodeId p = xor2(b, x[i], y[i]);
    sum.push_back(xor2(b, p, carry));
    carry = b.add_or(b.add_and(x[i], y[i]), b.add_and(p, carry));
  }
  cout = carry;
  return sum;
}

}  // namespace

Network gen_mux_tree(int select_bits) {
  SOIDOM_REQUIRE(select_bits >= 1 && select_bits <= 8,
                 "gen_mux_tree: select_bits out of range");
  NetworkBuilder b;
  const auto data = add_pis(b, "d", 1 << select_bits);
  const auto sel = add_pis(b, "s", select_bits);
  std::vector<NodeId> layer = data;
  for (int k = 0; k < select_bits; ++k) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(
          mux2(b, sel[static_cast<std::size_t>(k)], layer[i + 1], layer[i]));
    }
    layer = std::move(next);
  }
  b.add_output(layer.front(), "y");
  return remove_dead_nodes(std::move(b).build());
}

Network gen_ripple_adder(int bits, bool with_cin) {
  SOIDOM_REQUIRE(bits >= 1, "gen_ripple_adder: bits must be positive");
  NetworkBuilder b;
  const auto x = add_pis(b, "a", bits);
  const auto y = add_pis(b, "b", bits);
  const NodeId cin = with_cin ? b.add_pi("cin") : b.const0();
  NodeId cout;
  const auto sum = ripple_sum(b, x, y, cin, cout);
  for (std::size_t i = 0; i < sum.size(); ++i) {
    b.add_output(sum[i], 's' + std::to_string(i));
  }
  b.add_output(cout, "cout");
  return remove_dead_nodes(std::move(b).build());
}

Network gen_incrementer(int bits) {
  SOIDOM_REQUIRE(bits >= 1, "gen_incrementer: bits must be positive");
  NetworkBuilder b;
  const auto x = add_pis(b, "q", bits);
  const NodeId en = b.add_pi("en");
  NodeId carry = en;
  NodeId all_ones = b.const1();
  for (int i = 0; i < bits; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    b.add_output(xor2(b, x[idx], carry), 'n' + std::to_string(i));
    carry = b.add_and(x[idx], carry);
    all_ones = b.add_and(all_ones, x[idx]);
  }
  b.add_output(carry, "carry");
  b.add_output(all_ones, "tc");
  return remove_dead_nodes(std::move(b).build());
}

Network gen_symmetric(int inputs, const std::vector<int>& accepted) {
  SOIDOM_REQUIRE(inputs >= 1, "gen_symmetric: inputs must be positive");
  NetworkBuilder b;
  const auto x = add_pis(b, "x", inputs);
  // count[j] after i inputs: exactly j of the first i inputs are 1.
  std::vector<NodeId> count{b.const1()};
  for (int i = 0; i < inputs; ++i) {
    const auto xi = x[static_cast<std::size_t>(i)];
    std::vector<NodeId> next(count.size() + 1);
    const NodeId not_xi = b.add_inv(xi);
    next[0] = b.add_and(count[0], not_xi);
    for (std::size_t j = 1; j < count.size(); ++j) {
      next[j] = b.add_or(b.add_and(count[j], not_xi),
                         b.add_and(count[j - 1], xi));
    }
    next[count.size()] = b.add_and(count.back(), xi);
    count = std::move(next);
  }
  NodeId f = b.const0();
  for (const int k : accepted) {
    if (k >= 0 && static_cast<std::size_t>(k) < count.size()) {
      f = b.add_or(f, count[static_cast<std::size_t>(k)]);
    }
  }
  b.add_output(f, "sym");
  return remove_dead_nodes(std::move(b).build());
}

Network gen_xor_tree(int inputs, int outputs, int subset,
                     std::uint64_t seed) {
  SOIDOM_REQUIRE(inputs >= 2 && outputs >= 1 && subset >= 2 &&
                     subset <= inputs,
                 "gen_xor_tree: bad shape");
  Rng rng(seed);
  NetworkBuilder b;
  const auto x = add_pis(b, "x", inputs);
  for (int o = 0; o < outputs; ++o) {
    // Each output XORs `subset` distinct inputs (partial Fisher-Yates).
    std::vector<NodeId> deck = x;
    for (int k = 0; k < subset; ++k) {
      const auto pick = static_cast<std::size_t>(k) +
                        static_cast<std::size_t>(rng.next_below(
                            deck.size() - static_cast<std::size_t>(k)));
      std::swap(deck[static_cast<std::size_t>(k)], deck[pick]);
    }
    std::vector<NodeId> terms(deck.begin(),
                              deck.begin() + static_cast<std::ptrdiff_t>(subset));
    while (terms.size() > 1) {
      std::vector<NodeId> next;
      for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
        next.push_back(xor2(b, terms[i], terms[i + 1]));
      }
      if (terms.size() % 2 == 1) next.push_back(terms.back());
      terms = std::move(next);
    }
    b.add_output(terms.front(), 'p' + std::to_string(o));
  }
  return remove_dead_nodes(std::move(b).build());
}

Network gen_priority(int inputs) {
  SOIDOM_REQUIRE(inputs >= 2, "gen_priority: need at least 2 inputs");
  NetworkBuilder b;
  const auto req = add_pis(b, "r", inputs);
  const auto mask = add_pis(b, "m", inputs);
  NodeId taken = b.const0();
  NodeId any = b.const0();
  for (int i = 0; i < inputs; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const NodeId eligible = b.add_and(req[idx], mask[idx]);
    b.add_output(b.add_and(eligible, b.add_inv(taken)),
                 'g' + std::to_string(i));
    taken = b.add_or(taken, eligible);
    any = b.add_or(any, req[idx]);
  }
  b.add_output(any, "any");
  return remove_dead_nodes(std::move(b).build());
}

Network gen_barrel_rotator(int width, int select_bits) {
  SOIDOM_REQUIRE(width >= 2 && select_bits >= 1 && (1 << select_bits) <= 2 * width,
                 "gen_barrel_rotator: bad shape");
  NetworkBuilder b;
  const auto data = add_pis(b, "d", width);
  const auto sel = add_pis(b, "s", select_bits);
  std::vector<NodeId> layer = data;
  for (int k = 0; k < select_bits; ++k) {
    const int shift = (1 << k) % width;
    std::vector<NodeId> next(layer.size());
    for (int i = 0; i < width; ++i) {
      const auto from = static_cast<std::size_t>((i + shift) % width);
      next[static_cast<std::size_t>(i)] =
          mux2(b, sel[static_cast<std::size_t>(k)], layer[from],
               layer[static_cast<std::size_t>(i)]);
    }
    layer = std::move(next);
  }
  for (int i = 0; i < width; ++i) {
    b.add_output(layer[static_cast<std::size_t>(i)], 'y' + std::to_string(i));
  }
  return remove_dead_nodes(std::move(b).build());
}

Network gen_spn(int width, int rounds, std::uint64_t seed) {
  SOIDOM_REQUIRE(width >= 6 && width % 3 == 0,
                 "gen_spn: width must be a multiple of 3 (3-bit S-boxes)");
  Rng rng(seed);
  NetworkBuilder b;
  auto state = add_pis(b, "x", width);

  for (int r = 0; r < rounds; ++r) {
    // S-box layer: seeded random 3-input truth table per output bit.
    std::vector<NodeId> sboxed(state.size());
    for (std::size_t g = 0; g + 2 < state.size(); g += 3) {
      const NodeId in[3] = {state[g], state[g + 1], state[g + 2]};
      for (int bit = 0; bit < 3; ++bit) {
        const std::uint64_t truth = rng.next_below(256);
        // Shannon-expand the 8-row truth table into gates.
        NodeId f = b.const0();
        for (int row = 0; row < 8; ++row) {
          if (((truth >> row) & 1) == 0) continue;
          NodeId minterm = b.const1();
          for (int v = 0; v < 3; ++v) {
            const NodeId lit =
                ((row >> v) & 1) != 0 ? in[v] : b.add_inv(in[v]);
            minterm = b.add_and(minterm, lit);
          }
          f = b.add_or(f, minterm);
        }
        sboxed[g + static_cast<std::size_t>(bit)] = f;
      }
    }
    // Permutation layer: seeded shuffle.
    std::vector<std::size_t> perm(state.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    for (std::size_t i = perm.size(); i-- > 1;) {
      std::swap(perm[i], perm[rng.next_below(i + 1)]);
    }
    // Mixing layer: XOR with the rotated neighbour.
    std::vector<NodeId> next(state.size());
    for (std::size_t i = 0; i < state.size(); ++i) {
      next[i] = xor2(b, sboxed[perm[i]],
                     sboxed[perm[(i + 1) % state.size()]]);
    }
    state = std::move(next);
  }
  for (std::size_t i = 0; i < state.size(); ++i) {
    b.add_output(state[i], 'y' + std::to_string(i));
  }
  return remove_dead_nodes(std::move(b).build());
}

Network gen_alu_like(int bits, std::uint64_t seed) {
  SOIDOM_REQUIRE(bits >= 2, "gen_alu_like: bits must be >= 2");
  Rng rng(seed);
  NetworkBuilder b;
  const auto x = add_pis(b, "a", bits);
  const auto y = add_pis(b, "b", bits);
  const NodeId op0 = b.add_pi("op0");
  const NodeId op1 = b.add_pi("op1");
  const NodeId cin = b.add_pi("cin");
  NodeId cout;
  const auto sum = ripple_sum(b, x, y, cin, cout);
  NodeId zero = b.const1();
  for (int i = 0; i < bits; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const NodeId land = b.add_and(x[idx], y[idx]);
    const NodeId lor = b.add_or(x[idx], y[idx]);
    const NodeId lxor = xor2(b, x[idx], y[idx]);
    // op: 00 -> add, 01 -> and, 10 -> or, 11 -> xor.
    const NodeId lo = mux2(b, op0, land, sum[idx]);
    const NodeId hi = mux2(b, op0, lxor, lor);
    const NodeId out = mux2(b, op1, hi, lo);
    b.add_output(out, 'f' + std::to_string(i));
    zero = b.add_and(zero, b.add_inv(out));
  }
  b.add_output(cout, "cout");
  b.add_output(zero, "zero");
  // A dash of random control logic so instances differ per seed.
  const NodeId extra =
      rng.chance(1, 2) ? b.add_and(x[0], b.add_inv(y[0])) : b.add_or(x[0], y[0]);
  b.add_output(b.add_and(extra, cout), "ovf");
  return remove_dead_nodes(std::move(b).build());
}

Network gen_two_level(int inputs, int cubes, int outputs, int or_denom,
                      std::uint64_t seed) {
  SOIDOM_REQUIRE(inputs >= 2 && cubes >= 1 && outputs >= 1 && or_denom >= 1,
                 "gen_two_level: bad shape");
  Rng rng(seed);
  NetworkBuilder b;
  const auto x = add_pis(b, "x", inputs);
  std::vector<NodeId> products;
  for (int c = 0; c < cubes; ++c) {
    NodeId p = b.const1();
    int used = 0;
    for (const NodeId xi : x) {
      switch (rng.next_below(4)) {
        case 0:
          p = b.add_and(p, xi);
          ++used;
          break;
        case 1:
          p = b.add_and(p, b.add_inv(xi));
          ++used;
          break;
        default:
          break;  // don't care
      }
      if (used >= 5) break;  // keep cubes narrow like real PLAs
    }
    products.push_back(p);
  }
  for (int o = 0; o < outputs; ++o) {
    NodeId f = b.const0();
    for (const NodeId p : products) {
      if (rng.chance(1, static_cast<std::uint64_t>(or_denom))) {
        f = b.add_or(f, p);
      }
    }
    b.add_output(f, 'z' + std::to_string(o));
  }
  return remove_dead_nodes(std::move(b).build());
}

Network gen_random_dag(int pis, int gates, int pos, std::uint64_t seed) {
  SOIDOM_REQUIRE(pis >= 2 && gates >= 1 && pos >= 1,
                 "gen_random_dag: bad shape");
  Rng rng(seed);
  NetworkBuilder b;
  std::vector<NodeId> pool;
  for (int i = 0; i < pis; ++i) {
    pool.push_back(b.add_pi('x' + std::to_string(i)));
  }
  // SIS-style structure: each "named node" is a random SOP cover over a
  // handful of earlier signals, decomposed into a single-fanout AND/OR
  // tree; fanout arises only between named nodes.  This mirrors what the
  // paper's MCNC inputs look like after technology decomposition and is
  // what gives the mapper room to shape multi-transistor pulldowns.
  auto pick = [&]() -> NodeId {
    // Mild recency bias (max of two uniforms) keeps the DAG connected and
    // moderately deep without degenerating into a chain.
    const std::uint64_t n = pool.size();
    const std::uint64_t r = std::max(rng.next_below(n), rng.next_below(n));
    return pool[static_cast<std::size_t>(r)];
  };
  int built = 0;
  while (built < gates) {
    // 2..5 distinct support signals: narrow covers, like SIS output after
    // node simplification, so the mapper can nest several levels of them
    // inside one W<=5 pulldown.
    const int support = 2 + static_cast<int>(rng.next_below(4));
    std::vector<NodeId> in;
    for (int k = 0; k < support; ++k) {
      const NodeId cand = pick();
      if (std::find(in.begin(), in.end(), cand) == in.end()) {
        in.push_back(cand);
      }
    }
    // 1..3 cubes of at most 3 literals each, with random polarities.
    const int cubes = 1 + static_cast<int>(rng.next_below(3));
    NodeId sum = NodeId{};
    for (int c = 0; c < cubes; ++c) {
      NodeId product = NodeId{};
      int lits = 0;
      for (const NodeId sig : in) {
        if (lits >= 3 || rng.chance(1, 3)) continue;
        const NodeId lit = rng.chance(1, 4) ? b.add_inv(sig) : sig;
        product = product.valid() ? b.add_and(product, lit) : lit;
        ++lits;
        ++built;
      }
      if (!product.valid()) product = in.front();
      sum = sum.valid() ? b.add_or(sum, product) : product;
    }
    pool.push_back(sum);
  }
  for (int p = 0; p < pos; ++p) {
    const std::size_t lo = pool.size() / 2;
    const std::size_t pick_idx =
        lo + static_cast<std::size_t>(rng.next_below(pool.size() - lo));
    b.add_output(pool[pick_idx], 'z' + std::to_string(p));
  }
  return remove_dead_nodes(std::move(b).build());
}

Network gen_layered_dag(int width, int depth, int back_weight,
                        std::uint64_t seed) {
  SOIDOM_REQUIRE(width >= 2 && depth >= 1,
                 "gen_layered_dag: need width >= 2 and depth >= 1");
  SOIDOM_REQUIRE(back_weight >= 1 && back_weight <= 100,
                 "gen_layered_dag: back_weight must be in [1, 100]");
  Rng rng(seed);
  NetworkBuilder b;
  // One PI column feeds layer 0; all deeper layers are gate-only, so the
  // level profile is controlled by (width, depth) alone.
  std::vector<NodeId> prev = add_pis(b, "x", width);
  std::vector<NodeId> all = prev;
  for (int layer = 0; layer < depth; ++layer) {
    std::vector<NodeId> cur;
    cur.reserve(static_cast<std::size_t>(width));
    for (int g = 0; g < width; ++g) {
      auto pick = [&]() -> NodeId {
        if (rng.next_below(100) < static_cast<std::uint64_t>(back_weight)) {
          return prev[static_cast<std::size_t>(rng.next_below(prev.size()))];
        }
        return all[static_cast<std::size_t>(rng.next_below(all.size()))];
      };
      NodeId a = pick();
      NodeId c = pick();
      for (int tries = 0; a == c && tries < 4; ++tries) c = pick();
      if (rng.chance(1, 8)) a = b.add_inv(a);
      if (rng.chance(1, 8)) c = b.add_inv(c);
      cur.push_back(rng.chance(1, 2) ? b.add_and(a, c) : b.add_or(a, c));
    }
    all.insert(all.end(), cur.begin(), cur.end());
    prev = std::move(cur);
  }
  for (std::size_t i = 0; i < prev.size(); ++i) {
    b.add_output(prev[i], 'z' + std::to_string(i));
  }
  return remove_dead_nodes(std::move(b).build());
}

Network gen_multiplier(int bits) {
  SOIDOM_REQUIRE(bits >= 2 && bits <= 128,
                 "gen_multiplier: bits out of range");
  NetworkBuilder b;
  const auto x = add_pis(b, "a", bits);
  const auto y = add_pis(b, "b", bits);
  // Row-by-row ripple reduction of the partial-product array.
  std::vector<NodeId> acc(static_cast<std::size_t>(2 * bits), b.const0());
  for (int row = 0; row < bits; ++row) {
    NodeId carry = b.const0();
    for (int col = 0; col < bits; ++col) {
      const auto pos = static_cast<std::size_t>(row + col);
      const NodeId pp = b.add_and(x[static_cast<std::size_t>(col)],
                                  y[static_cast<std::size_t>(row)]);
      // Full add acc[pos] + pp + carry.
      const NodeId p = xor2(b, acc[pos], pp);
      const NodeId sum = xor2(b, p, carry);
      carry = b.add_or(b.add_and(acc[pos], pp), b.add_and(p, carry));
      acc[pos] = sum;
    }
    // Propagate the row's carry up the accumulator.
    for (std::size_t pos = static_cast<std::size_t>(row + bits);
         pos < acc.size() && carry != b.const0(); ++pos) {
      const NodeId sum = xor2(b, acc[pos], carry);
      carry = b.add_and(acc[pos], carry);
      acc[pos] = sum;
    }
  }
  for (std::size_t i = 0; i < acc.size(); ++i) {
    b.add_output(acc[i], 'p' + std::to_string(i));
  }
  return remove_dead_nodes(std::move(b).build());
}

Network gen_decoder(int select_bits) {
  SOIDOM_REQUIRE(select_bits >= 1 && select_bits <= 8,
                 "gen_decoder: select_bits out of range");
  NetworkBuilder b;
  const auto sel = add_pis(b, "s", select_bits);
  const NodeId en = b.add_pi("en");
  for (int code = 0; code < (1 << select_bits); ++code) {
    NodeId hit = en;
    for (int k = 0; k < select_bits; ++k) {
      const NodeId lit = ((code >> k) & 1) != 0
                             ? sel[static_cast<std::size_t>(k)]
                             : b.add_inv(sel[static_cast<std::size_t>(k)]);
      hit = b.add_and(hit, lit);
    }
    b.add_output(hit, 'o' + std::to_string(code));
  }
  return remove_dead_nodes(std::move(b).build());
}

Network gen_cordic(int width, int stages) {
  SOIDOM_REQUIRE(width >= 4 && stages >= 1, "gen_cordic: bad shape");
  NetworkBuilder b;
  auto x = add_pis(b, "x", width);
  auto y = add_pis(b, "y", width);
  const auto dir = add_pis(b, "d", stages);
  for (int s = 0; s < stages; ++s) {
    // x' = x +/- (y >> s), y' = y -/+ (x >> s); the +/- select comes from
    // the stage's direction bit, realized with XOR-conditioned operands.
    const int shift = s + 1;
    std::vector<NodeId> ys(static_cast<std::size_t>(width));
    std::vector<NodeId> xs(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) {
      const int j = i + shift;
      ys[static_cast<std::size_t>(i)] =
          j < width ? y[static_cast<std::size_t>(j)] : b.const0();
      xs[static_cast<std::size_t>(i)] =
          j < width ? x[static_cast<std::size_t>(j)] : b.const0();
    }
    auto conditioned = [&](std::vector<NodeId> v) {
      for (NodeId& n : v) n = xor2(b, n, dir[static_cast<std::size_t>(s)]);
      return v;
    };
    NodeId cx;
    NodeId cy;
    const auto nx = ripple_sum(b, x, conditioned(ys),
                               dir[static_cast<std::size_t>(s)], cx);
    const auto ny = ripple_sum(b, y, conditioned(xs),
                               b.add_inv(dir[static_cast<std::size_t>(s)]), cy);
    x = nx;
    y = ny;
  }
  for (int i = 0; i < width; ++i) {
    b.add_output(x[static_cast<std::size_t>(i)], "xo" + std::to_string(i));
    b.add_output(y[static_cast<std::size_t>(i)], "yo" + std::to_string(i));
  }
  return remove_dead_nodes(std::move(b).build());
}

}  // namespace soidom
