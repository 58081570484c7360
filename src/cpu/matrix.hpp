#pragma once

// Dense row-major matrix container for the CPU execution path, the strided
// operand view every GEMM-family front end executes through, and the
// implicit-im2col view convolution's A operand is.
//
// Deliberately minimal: owning storage, bounds-checked accessors in terms of
// (row, col), and deterministic fill helpers.  GEMM kernels access raw spans
// for speed; tests use at().

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "conv/conv_shape.hpp"
#include "util/check.hpp"
#include "util/half.hpp"
#include "util/rng.hpp"

namespace streamk::cpu {

template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::int64_t rows, std::int64_t cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows * cols)) {
    // Zero extents are legal (a k == 0 GEMM carries 0-column A / 0-row B
    // operands); negative extents are not.
    util::check(rows >= 0 && cols >= 0, "matrix extents must be non-negative");
  }

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }

  T& at(std::int64_t r, std::int64_t c) {
    util::check(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                "matrix index out of range");
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  const T& at(std::int64_t r, std::int64_t c) const {
    util::check(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                "matrix index out of range");
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  /// Unchecked element access for kernels.
  T* row_ptr(std::int64_t r) {
    return data_.data() + static_cast<std::size_t>(r * cols_);
  }
  const T* row_ptr(std::int64_t r) const {
    return data_.data() + static_cast<std::size_t>(r * cols_);
  }

  std::span<T> data() { return data_; }
  std::span<const T> data() const { return data_; }

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<T> data_;
};

enum class Trans {
  kNone,       ///< use the operand as stored
  kTranspose,  ///< use the operand's transpose
};

/// Non-owning strided view of a rows x cols operand: element (r, c) lives at
/// data()[r * row_stride() + c * col_stride()].  A plain Matrix and its
/// transpose are both views (row-major storage has col_stride 1, its
/// transpose row_stride 1), so one execution path serves every layout.
/// OperandView<const T> is read-only; a mutable view converts to it.
template <typename T>
class OperandView {
 public:
  using Element = std::remove_const_t<T>;

  OperandView() = default;
  OperandView(T* data, std::int64_t rows, std::int64_t cols,
              std::int64_t row_stride, std::int64_t col_stride)
      : data_(data), rows_(rows), cols_(cols), row_stride_(row_stride),
        col_stride_(col_stride) {}

  /// The whole matrix as stored, or its transpose.
  OperandView(Matrix<Element>& m, Trans trans = Trans::kNone)
      : OperandView(m.data().data(), m, trans) {}
  OperandView(const Matrix<Element>& m, Trans trans = Trans::kNone)
    requires std::is_const_v<T>
      : OperandView(m.data().data(), m, trans) {}

  template <typename U>
    requires std::is_same_v<const U, T>
  OperandView(const OperandView<U>& other)
      : OperandView(other.data(), other.rows(), other.cols(),
                    other.row_stride(), other.col_stride()) {}

  T* data() const { return data_; }
  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t row_stride() const { return row_stride_; }
  std::int64_t col_stride() const { return col_stride_; }

  /// Unchecked element address / access.
  T* ptr(std::int64_t r, std::int64_t c) const {
    return data_ + r * row_stride_ + c * col_stride_;
  }
  T& at(std::int64_t r, std::int64_t c) const { return *ptr(r, c); }

 private:
  OperandView(T* data, const Matrix<Element>& m, Trans trans)
      : OperandView(data, trans == Trans::kNone ? m.rows() : m.cols(),
                    trans == Trans::kNone ? m.cols() : m.rows(),
                    trans == Trans::kNone ? m.cols() : 1,
                    trans == Trans::kNone ? 1 : m.cols()) {}

  T* data_ = nullptr;
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t row_stride_ = 0;
  std::int64_t col_stride_ = 1;
};

/// Non-owning implicit-im2col view of an NHWC activation tensor: the
/// (N*P*Q) x (R*S*C) A operand of convolution's implicit GEMM.  Row m is
/// output pixel (n, p, q) with q fastest (conv::output_pixel), column k is
/// filter tap (r, s, c) with c fastest (conv::filter_offset), and element
/// (m, k) is In[n, p*stride - pad + r, q*stride - pad + s, c], or zero where
/// the tap falls in the padding.  The matrix is never materialized: pack_a
/// gathers its patches straight into microkernel panels.
template <typename T>
class Im2colView {
 public:
  Im2colView(T* data, const conv::ConvShape& conv)
      : data_(data), conv_(conv) {}

  T* data() const { return data_; }
  const conv::ConvShape& conv() const { return conv_; }
  std::int64_t rows() const { return conv_.gemm_shape().m; }
  std::int64_t cols() const { return conv_.gemm_shape().k; }
  /// Bytes of the NHWC input tensor the view reads.
  std::int64_t extent_bytes() const {
    return conv_.batch * conv_.height * conv_.width * conv_.in_channels *
           static_cast<std::int64_t>(sizeof(T));
  }

 private:
  T* data_ = nullptr;
  conv::ConvShape conv_;
};

namespace detail {
template <typename T>
T from_double(double v) {
  return static_cast<T>(v);
}
template <>
inline util::Half from_double<util::Half>(double v) {
  return util::Half(static_cast<float>(v));
}
}  // namespace detail

/// Uniform random fill in [lo, hi), deterministic under the seed.
template <typename T>
void fill_random(Matrix<T>& m, util::Pcg32& rng, double lo = -1.0,
                 double hi = 1.0) {
  for (T& v : m.data()) v = detail::from_double<T>(rng.uniform(lo, hi));
}

/// Small-integer fill: every value, product, and modest sum is exactly
/// representable at all supported precisions, enabling bitwise-exact
/// cross-decomposition comparisons in tests.
template <typename T>
void fill_random_int(Matrix<T>& m, util::Pcg32& rng, std::int64_t lo = -4,
                     std::int64_t hi = 4) {
  for (T& v : m.data()) {
    v = detail::from_double<T>(static_cast<double>(rng.uniform_int(lo, hi)));
  }
}

template <typename T>
void fill_value(Matrix<T>& m, double value) {
  for (T& v : m.data()) v = detail::from_double<T>(value);
}

}  // namespace streamk::cpu
