#pragma once

// Minimal dense 4-D tensor for the convolution substrate.
//
// Input activations are NHWC (channel fastest: the layout implicit-GEMM
// gathers contiguously); filters are KRSC.

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace streamk::conv {

template <typename T>
class Tensor4 {
 public:
  Tensor4() = default;
  Tensor4(std::int64_t d0, std::int64_t d1, std::int64_t d2, std::int64_t d3)
      : d0_(d0), d1_(d1), d2_(d2), d3_(d3),
        data_(static_cast<std::size_t>(d0 * d1 * d2 * d3)) {
    util::check(d0 >= 1 && d1 >= 1 && d2 >= 1 && d3 >= 1,
                "tensor extents must be positive");
  }

  std::int64_t dim0() const { return d0_; }
  std::int64_t dim1() const { return d1_; }
  std::int64_t dim2() const { return d2_; }
  std::int64_t dim3() const { return d3_; }

  T& at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l) {
    return data_[index(i, j, k, l)];
  }
  const T& at(std::int64_t i, std::int64_t j, std::int64_t k,
              std::int64_t l) const {
    return data_[index(i, j, k, l)];
  }

  std::span<T> data() { return data_; }
  std::span<const T> data() const { return data_; }

 private:
  std::size_t index(std::int64_t i, std::int64_t j, std::int64_t k,
                    std::int64_t l) const {
    util::check(i >= 0 && i < d0_ && j >= 0 && j < d1_ && k >= 0 && k < d2_ &&
                    l >= 0 && l < d3_,
                "tensor index out of range");
    return static_cast<std::size_t>(((i * d1_ + j) * d2_ + k) * d3_ + l);
  }

  std::int64_t d0_ = 0, d1_ = 0, d2_ = 0, d3_ = 0;
  std::vector<T> data_;
};

template <typename T>
void fill_random(Tensor4<T>& t, util::Pcg32& rng, double lo = -1.0,
                 double hi = 1.0) {
  for (T& v : t.data()) v = static_cast<T>(rng.uniform(lo, hi));
}

template <typename T>
void fill_random_int(Tensor4<T>& t, util::Pcg32& rng, std::int64_t lo = -3,
                     std::int64_t hi = 3) {
  for (T& v : t.data()) {
    v = static_cast<T>(static_cast<double>(rng.uniform_int(lo, hi)));
  }
}

}  // namespace streamk::conv
