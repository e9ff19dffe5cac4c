#include "sfc/curve.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <mutex>

#include "sfc/generator.hpp"
#include "util/require.hpp"

namespace sfp::sfc {

namespace {

constexpr int kMaxSide = 1 << 20;

struct frame {
  // All in corner coordinates: the frame covers the square spanned from
  // (ox,oy) by the vectors A=(ax,ay) and B=(bx,by).
  int ox, oy;
  int ax, ay;
  int bx, by;
};

/// Lower-left corner of the square a frame covers: the componentwise min of
/// its two opposite corners O and O + A + B.
cell lower_left(const frame& f) {
  return {std::min(f.ox, f.ox + f.ax + f.bx),
          std::min(f.oy, f.oy + f.ay + f.by)};
}

/// Calls visit(child) for each child frame of `f` under generator `fac`, in
/// curve order. A child is given in units of the parent's sub-vectors
/// a = A/fac, b = B/fac (A and B are always divisible: their length is the
/// product of the remaining factors).
template <typename Visit>
void for_each_child(const frame& f, int fac, Visit&& visit) {
  const int sax = f.ax / fac, say = f.ay / fac;
  const int sbx = f.bx / fac, sby = f.by / fac;
  for (const child_frame& cs : generator_for(fac))
    visit(frame{f.ox + cs.oa * sax + cs.ob * sbx,
                f.oy + cs.oa * say + cs.ob * sby,
                cs.aa * sax + cs.ab * sbx, cs.aa * say + cs.ab * sby,
                cs.ba * sax + cs.bb * sbx, cs.ba * say + cs.bb * sby});
}

void recurse(const std::vector<int>& factors, std::size_t depth,
             const frame& f, std::vector<cell>& out) {
  if (depth == factors.size()) {
    out.push_back(lower_left(f));  // leaf: |A| = |B| = 1
    return;
  }
  for_each_child(f, factors[depth], [&](const frame& child) {
    recurse(factors, depth + 1, child, out);
  });
}

// ---- point query ------------------------------------------------------------
//
// A frame's orientation is the pair of unit directions of A and B: A points
// along one of four axes and B is perpendicular to it on one of two sides,
// so there are eight. Which child of a generator covers a given sub-cell,
// and the child's orientation, depend only on the parent's orientation and
// not on its position or size. One table per factor, 8·f² entries built
// once from the generator, therefore turns each level of the point query
// into two divisions (one per coordinate) and one lookup.

/// Unit (A, B) of each orientation; 0 is the root frame's A = +x, B = +y.
constexpr int kOrientations[8][4] = {
    {1, 0, 0, 1}, {0, 1, -1, 0}, {-1, 0, 0, -1}, {0, -1, 1, 0},
    {1, 0, 0, -1}, {0, 1, 1, 0}, {-1, 0, 0, 1}, {0, -1, -1, 0},
};

int orientation_of(const frame& f) {
  const int len = std::abs(f.ax + f.ay);
  for (int o = 0; o < 8; ++o) {
    const int* u = kOrientations[o];
    if (f.ax == u[0] * len && f.ay == u[1] * len && f.bx == u[2] * len &&
        f.by == u[3] * len)
      return o;
  }
  SFP_REQUIRE(false, "frame vectors are not perpendicular unit axes");
  return -1;
}

/// One table entry: the child covering a sub-cell and that child's
/// orientation.
struct descent_step {
  std::int16_t child = -1;
  std::int16_t orientation = 0;
};

/// Table for factor `fac`: entry 8·(dy·fac + dx) + o describes sub-cell
/// (dx, dy) of a frame in orientation o, (0, 0) being the lower-left one.
std::vector<descent_step> build_descent_table(int fac) {
  SFP_REQUIRE(generator_for(fac).size() == static_cast<std::size_t>(fac * fac),
              "generator must have f^2 children");
  std::vector<descent_step> table(static_cast<std::size_t>(8 * fac * fac));
  for (int o = 0; o < 8; ++o) {
    const int* u = kOrientations[o];
    const int ax = u[0] * fac, ay = u[1] * fac;
    const int bx = u[2] * fac, by = u[3] * fac;
    // Place the frame so that the square it covers starts at (0, 0).
    const frame parent{-std::min(0, ax + bx), -std::min(0, ay + by),
                       ax, ay, bx, by};
    std::int16_t k = 0;
    for_each_child(parent, fac, [&](const frame& child) {
      const cell c = lower_left(child);
      SFP_REQUIRE(c.x >= 0 && c.x < fac && c.y >= 0 && c.y < fac,
                  "generator child outside its block");
      descent_step& slot =
          table[static_cast<std::size_t>(8 * (c.y * fac + c.x) + o)];
      SFP_REQUIRE(slot.child < 0, "generator children do not tile the block");
      slot = {k++, static_cast<std::int16_t>(orientation_of(child))};
    });
  }
  return table;
}

constexpr int kMaxFactor = 16;  // derive_generator's search cap

/// The memoized table for `fac`: built on first use, after which a lookup is
/// one atomic load.
const descent_step* descent_table_for(int fac) {
  SFP_ASSERT(fac >= 2 && fac <= kMaxFactor, "factor checked by the caller");
  static std::array<std::atomic<const descent_step*>, kMaxFactor + 1>
      published{};
  const auto i = static_cast<std::size_t>(fac);
  if (const descent_step* table = published[i].load(std::memory_order_acquire))
    return table;
  static std::mutex mutex;
  static std::array<std::vector<descent_step>, kMaxFactor + 1> tables;
  const std::lock_guard<std::mutex> lock(mutex);
  if (tables[i].empty()) {
    tables[i] = build_descent_table(fac);
    published[i].store(tables[i].data(), std::memory_order_release);
  }
  return tables[i].data();
}

/// Quotient and remainder of x / fac for 0 <= x < kMaxSide by one multiply:
/// with m = ceil(2^32 / fac), x·m / 2^32 exceeds x / fac by less than
/// x / 2^32 < 1 / fac, so its floor is the exact quotient.
constexpr auto kReciprocals = [] {
  std::array<std::uint64_t, kMaxFactor + 1> m{};
  for (std::uint64_t f = 2; f <= kMaxFactor; ++f)
    m[f] = ((std::uint64_t{1} << 32) + f - 1) / f;
  return m;
}();

/// The point query behind both public forms; `factor(level)` gives the
/// refinement factor of each level, outermost first.
template <typename Levels, typename FactorOf>
std::int64_t walk_descent_tables(const Levels& levels, FactorOf factor,
                                 cell c) {
  SFP_REQUIRE(c.x >= 0 && c.x < kMaxSide && c.y >= 0 && c.y < kMaxSide,
              "cell out of range for this factor list");
  struct level {
    int fac;
    int subcell;  // 8·(dy·fac + dx) for the sub-cell holding c
  };
  // Innermost level first, peel one base-fac digit off each coordinate.
  // Every factor is >= 2 and the side is capped at 2^20, so at most 20 levels.
  std::array<level, 20> path{};
  std::size_t depth = 0;
  std::int64_t side = 1;
  auto x = static_cast<std::uint64_t>(c.x), y = static_cast<std::uint64_t>(c.y);
  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    const int fac = factor(*it);
    SFP_REQUIRE(fac >= 2, "refinement factors must be at least 2");
    side *= fac;
    SFP_REQUIRE(side <= kMaxSide, "curve side too large");
    SFP_REQUIRE(fac <= kMaxFactor,
                "no space-filling-curve generator exists for this factor");
    const std::uint64_t m = kReciprocals[static_cast<std::size_t>(fac)];
    const std::uint64_t qx = (x * m) >> 32, qy = (y * m) >> 32;  // lint: overflow-arith-ok — x, y < 2^20 and m <= 2^31, so both stay below 2^51
    const auto f = static_cast<std::uint64_t>(fac);
    const auto subcell = static_cast<int>(8 * ((y - qy * f) * f + x - qx * f));
    path[depth++] = {fac, subcell};
    x = qx;
    y = qy;
  }
  SFP_REQUIRE(x == 0 && y == 0, "cell out of range for this factor list");
  // Outermost level first, one table load per level.
  std::int64_t pos = 0;
  int orientation = 0;
  while (depth-- > 0) {
    const level& l = path[depth];
    const descent_step step =
        descent_table_for(l.fac)[l.subcell + orientation];
    pos = pos * (static_cast<std::int64_t>(l.fac) * l.fac) + step.child;
    orientation = step.orientation;
  }
  return pos;
}

/// Factor `side` over the given prime set (largest first), or empty if it
/// does not decompose.
std::vector<int> prime_factors_over(int side, const std::vector<int>& primes) {
  std::vector<int> out;
  int rem = side;
  for (const int p : primes) {
    while (rem % p == 0) {
      rem /= p;
      out.push_back(p);
    }
  }
  if (rem != 1) return {};
  return out;
}

}  // namespace

int factor_of(refinement r) {
  switch (r) {
    case refinement::hilbert2: return 2;
    case refinement::peano3: return 3;
    case refinement::cinco5: return 5;
  }
  SFP_REQUIRE(false, "invalid refinement");
  return 0;
}

int side_of(const schedule& s) {
  int side = 1;
  for (const refinement r : s) side *= factor_of(r);
  return side;
}

std::optional<schedule> schedule_for(int side, nesting_order order) {
  if (side < 2) return std::nullopt;
  int n2 = 0, n3 = 0;
  int rem = side;
  while (rem % 2 == 0) {
    rem /= 2;
    ++n2;
  }
  while (rem % 3 == 0) {
    rem /= 3;
    ++n3;
  }
  if (rem != 1) return std::nullopt;

  schedule s;
  s.reserve(static_cast<std::size_t>(n2 + n3));
  switch (order) {
    case nesting_order::peano_first:
      s.insert(s.end(), static_cast<std::size_t>(n3), refinement::peano3);
      s.insert(s.end(), static_cast<std::size_t>(n2), refinement::hilbert2);
      break;
    case nesting_order::hilbert_first:
      s.insert(s.end(), static_cast<std::size_t>(n2), refinement::hilbert2);
      s.insert(s.end(), static_cast<std::size_t>(n3), refinement::peano3);
      break;
    case nesting_order::interleaved: {
      int r3 = n3, r2 = n2;
      while (r3 > 0 || r2 > 0) {
        if (r3 > 0) {
          s.push_back(refinement::peano3);
          --r3;
        }
        if (r2 > 0) {
          s.push_back(refinement::hilbert2);
          --r2;
        }
      }
      break;
    }
  }
  return s;
}

std::optional<schedule> extended_schedule_for(int side) {
  if (side < 2) return std::nullopt;
  const std::vector<int> factors = prime_factors_over(side, {5, 3, 2});
  if (factors.empty()) return std::nullopt;
  schedule s;
  s.reserve(factors.size());
  for (const int f : factors) {
    s.push_back(f == 5 ? refinement::cinco5
                       : (f == 3 ? refinement::peano3 : refinement::hilbert2));
  }
  return s;
}

bool is_sfc_compatible(int side) { return schedule_for(side).has_value(); }

bool is_sfc_compatible_extended(int side) {
  return extended_schedule_for(side).has_value();
}

std::vector<cell> generate_factors(const std::vector<int>& factors) {
  int side = 1;
  for (const int f : factors) {
    SFP_REQUIRE(f >= 2, "refinement factors must be at least 2");
    SFP_REQUIRE(side <= kMaxSide / f, "curve side too large");
    side *= f;
  }
  SFP_REQUIRE(side >= 1, "factor list must produce a positive side");
  std::vector<cell> out;
  out.reserve(static_cast<std::size_t>(side) * static_cast<std::size_t>(side));
  recurse(factors, 0, frame{0, 0, side, 0, 0, side}, out);
  return out;
}

std::vector<cell> generate(const schedule& s) {
  std::vector<int> factors;
  factors.reserve(s.size());
  for (const refinement r : s) factors.push_back(factor_of(r));
  return generate_factors(factors);
}

std::vector<cell> hilbert_curve(int levels) {
  SFP_REQUIRE(levels >= 1, "hilbert curve needs level >= 1");
  return generate(schedule(static_cast<std::size_t>(levels), refinement::hilbert2));
}

std::vector<cell> peano_curve(int levels) {
  SFP_REQUIRE(levels >= 1, "peano curve needs level >= 1");
  return generate(schedule(static_cast<std::size_t>(levels), refinement::peano3));
}

std::vector<cell> hilbert_peano_curve(int side, nesting_order order) {
  const auto s = schedule_for(side, order);
  SFP_REQUIRE(s.has_value(), "side must be of the form 2^n * 3^m, side >= 2");
  return generate(*s);
}

std::int64_t curve_position_factors(const std::vector<int>& factors, cell c) {
  return walk_descent_tables(factors, [](int f) { return f; }, c);
}

std::int64_t curve_position(const schedule& s, cell c) {
  return walk_descent_tables(
      s, [](refinement r) { return factor_of(r); }, c);
}

std::vector<std::int64_t> curve_index(const std::vector<cell>& curve, int side) {
  SFP_REQUIRE(side >= 1, "side must be positive");
  SFP_REQUIRE(curve.size() == static_cast<std::size_t>(side) *
                                  static_cast<std::size_t>(side),
              "curve length must be side^2");
  std::vector<std::int64_t> index(curve.size(), -1);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const cell c = curve[i];
    SFP_REQUIRE(c.x >= 0 && c.x < side && c.y >= 0 && c.y < side,
                "curve cell out of range");
    const auto flat = static_cast<std::size_t>(c.y) *
                          static_cast<std::size_t>(side) +
                      static_cast<std::size_t>(c.x);
    SFP_REQUIRE(index[flat] == -1, "curve visits a cell twice");
    index[flat] = static_cast<std::int64_t>(i);
  }
  return index;
}

std::string schedule_name(const schedule& s) {
  bool has2 = false, has3 = false, has5 = false;
  for (const refinement r : s) {
    if (r == refinement::hilbert2) has2 = true;
    else if (r == refinement::peano3) has3 = true;
    else has5 = true;
  }
  if (has5) return has2 || has3 ? "hilbert-peano-cinco" : "cinco";
  if (has2 && has3) return "hilbert-peano";
  if (has3) return "m-peano";
  return "hilbert";
}

}  // namespace sfp::sfc
