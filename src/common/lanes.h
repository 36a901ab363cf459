#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace llamatune {

/// \name Eight-lane double vectors (GCC/clang vector extension)
///
/// The compiler lowers `Lanes` to whatever vector width the target has.
/// Lanes are passed by pointer or reference, never by value: a
/// by-value vector argument's calling convention depends on that width.
///
/// Elementwise contract (the companion of matrix.h's summation-order
/// contract): a lane pass applies only lane-wise operations, each lane
/// computing the same expression tree as the scalar loop it replaces,
/// and a tail runs the same code on a short group. Selects are "value
/// AND comparison mask" through a same-size integer vector, so a false
/// lane is all-zero bits: exactly the +0.0 of `x > 0.0 ? x : 0.0`, NaN
/// and -0.0 included. With FP contraction off, no result depends on
/// the vector width or on whether the compiler vectorises at all.
/// @{

constexpr int kLanes = 8;
typedef double Lanes __attribute__((vector_size(kLanes * sizeof(double))));
typedef int64_t LaneMask
    __attribute__((vector_size(kLanes * sizeof(int64_t))));

/// Loads `count` <= kLanes doubles from `p` into `v`; the other lanes
/// keep their value. The whole-vector case is split out so that it
/// compiles to one vector move rather than a variable-length copy.
inline void LoadLanes(const double* p, int count, Lanes* v) {
  if (count == kLanes) {
    std::memcpy(v, p, sizeof(*v));
  } else {
    std::memcpy(v, p, static_cast<size_t>(count) * sizeof(double));
  }
}

/// Stores the first `count` <= kLanes lanes of `v` to `p`.
inline void StoreLanes(const Lanes& v, int count, double* p) {
  if (count == kLanes) {
    std::memcpy(p, &v, sizeof(v));
  } else {
    std::memcpy(p, &v, static_cast<size_t>(count) * sizeof(double));
  }
}

/// The lane-wise `*v = key > 0.0 ? *v : 0.0`.
inline void KeepWherePositive(const Lanes& key, Lanes* v) {
  const Lanes zero = {};
  *v = (Lanes)((LaneMask)*v & (LaneMask)(key > zero));
}

/// Calls `group(offset, count)` over [0, n): whole groups of kLanes in
/// ascending order, then one short group. Whole groups get `count` as a
/// compile-time constant, so a generic lambda (`auto count`) compiles
/// them to plain vector loads and stores.
template <typename Group>
inline void ForEachLaneGroup(size_t n, Group group) {
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    group(i, std::integral_constant<int, kLanes>());
  }
  if (i < n) group(i, static_cast<int>(n - i));
}

/// `op(src lanes, &dst lanes)` over [0, n), a lane group at a time;
/// `src` may equal `dst`.
template <typename Op>
inline void MapLanes(const double* src, double* dst, size_t n, Op op) {
  ForEachLaneGroup(n, [&](size_t i, auto count) {
    Lanes s = {}, d = {};
    LoadLanes(src + i, count, &s);
    LoadLanes(dst + i, count, &d);
    op(s, &d);
    StoreLanes(d, count, dst + i);
  });
}

/// @}

}  // namespace llamatune
