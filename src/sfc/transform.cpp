#include "sfc/transform.hpp"

#include "util/require.hpp"

namespace sfp::sfc {

namespace {

/// Group tables, indexed by the enumerator values. kCompose[second][first]
/// is the element acting like `first` followed by `second`; the tests
/// re-derive both tables by probing apply() on a 3×3 grid.
constexpr std::uint8_t kCompose[8][8] = {
    {0, 1, 2, 3, 4, 5, 6, 7}, {1, 2, 3, 0, 7, 6, 4, 5},
    {2, 3, 0, 1, 5, 4, 7, 6}, {3, 0, 1, 2, 6, 7, 5, 4},
    {4, 6, 5, 7, 0, 2, 1, 3}, {5, 7, 4, 6, 2, 0, 3, 1},
    {6, 5, 7, 4, 3, 1, 0, 2}, {7, 4, 6, 5, 1, 3, 2, 0},
};
/// rot90 and rot270 undo each other; every other element is an involution.
constexpr std::uint8_t kInverse[8] = {0, 3, 2, 1, 4, 5, 6, 7};

std::size_t index_of(dihedral t) {
  const auto i = static_cast<std::size_t>(t);
  SFP_REQUIRE(i < all_dihedrals.size(), "invalid dihedral");
  return i;
}

}  // namespace

cell apply(dihedral t, cell c, int side) {
  SFP_REQUIRE(side >= 1, "side must be positive");
  SFP_REQUIRE(c.x >= 0 && c.x < side && c.y >= 0 && c.y < side,
              "cell out of range");
  const std::int32_t m = side - 1;
  switch (t) {
    case dihedral::identity: return c;
    case dihedral::rot90: return {static_cast<std::int32_t>(m - c.y), c.x};
    case dihedral::rot180:
      return {static_cast<std::int32_t>(m - c.x),
              static_cast<std::int32_t>(m - c.y)};
    case dihedral::rot270: return {c.y, static_cast<std::int32_t>(m - c.x)};
    case dihedral::flip_x: return {static_cast<std::int32_t>(m - c.x), c.y};
    case dihedral::flip_y: return {c.x, static_cast<std::int32_t>(m - c.y)};
    case dihedral::transpose: return {c.y, c.x};
    case dihedral::anti_transpose:
      return {static_cast<std::int32_t>(m - c.y),
              static_cast<std::int32_t>(m - c.x)};
  }
  SFP_REQUIRE(false, "invalid dihedral");
  return c;
}

std::vector<cell> apply(dihedral t, const std::vector<cell>& curve, int side) {
  std::vector<cell> out;
  out.reserve(curve.size());
  for (const cell c : curve) out.push_back(apply(t, c, side));
  return out;
}

dihedral compose(dihedral second, dihedral first) {
  return static_cast<dihedral>(kCompose[index_of(second)][index_of(first)]);
}

dihedral inverse(dihedral t) {
  return static_cast<dihedral>(kInverse[index_of(t)]);
}

std::string_view dihedral_name(dihedral t) {
  switch (t) {
    case dihedral::identity: return "identity";
    case dihedral::rot90: return "rot90";
    case dihedral::rot180: return "rot180";
    case dihedral::rot270: return "rot270";
    case dihedral::flip_x: return "flip_x";
    case dihedral::flip_y: return "flip_y";
    case dihedral::transpose: return "transpose";
    case dihedral::anti_transpose: return "anti_transpose";
  }
  return "?";
}

}  // namespace sfp::sfc
