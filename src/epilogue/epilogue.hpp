#pragma once

// Composable fused-epilogue IR: once-per-element output transforms.
//
// Every GEMM-family front end used to terminate at C = alpha*A.B + beta*C,
// forcing real workloads (MLP layers, conv+bias+ReLU, quantization
// calibration) into a second full pass over C -- exactly the memory traffic
// Stream-K's work-centric decomposition exists to avoid.  An EpilogueSpec
// is an ordered chain of EpilogueOps applied in-register to each output
// element after the alpha/beta scale and before the store, the CPU analogue
// of composable_kernel's CElementwiseOperation and MIOpen's fused
// bias+activation conv invokers.
//
// The Stream-K twist is *when* the chain may fire.  Under work-centric
// decomposition a tile's output can be assembled from partial accumulators
// by the fixup protocol (DESIGN.md section 2), and a nonlinear op applied
// to a partial sum is simply wrong: relu(x) + relu(y) != relu(x + y).  The
// once-per-element invariant is therefore enforced structurally: the chain
// runs only inside the owning CTA's store functor -- which executes at
// tile-store time for tiles the CTA produced outright, and at the
// post-fixup reconciliation point (after every peer's partials have been
// reduced) for split tiles.  Spilling CTAs store raw accumulators; no
// epilogue code can observe a partial sum.  tests/test_epilogue.cpp pins
// the invariant with per-element application counting (EpilogueProbe)
// under adversarial Stream-K splits.
//
// An EpilogueSpec separates *structure* from *bindings*:
//
//   * structure -- the op chain (kinds + scalar immediates).  Canonically
//     serialized by class_key() ("bias_col+relu", "clamp(0:6)", ...); the
//     class participates in the tuner's database key so a winner measured
//     for one epilogue class is never served to another.
//   * bindings -- non-owning spans/pointers for the data some ops consume
//     (bias vectors, the residual D matrix) or produce (per-row reduction
//     outputs).  Bindings follow GEMM-operand lifetime rules: they must
//     outlive the call (including async submit_gemm handles).
//
// compile() turns a chain into an EpiloguePlan (validated, flags and class
// key precomputed).  core::SchedulePlan memoizes compiled epilogue plans
// per class (SchedulePlan::epilogue_plan), so steady-state fused traffic
// re-derives nothing per call.  The appliers live in epilogue/apply.hpp.

#include <cstdint>
#include <memory>
#include <ranges>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace streamk::epilogue {

/// One link of the epilogue chain.  Ops execute in chain order, each
/// reading and rewriting the element value v (reductions observe v and
/// write their side output instead).
enum class OpKind : std::uint8_t {
  kBiasRow,    ///< v += bias_row[row]   (one value per output row)
  kBiasCol,    ///< v += bias_col[col]   (one value per output column)
  kReLU,       ///< v = max(v, 0)
  kGELU,       ///< tanh-approximation GELU
  kSigmoid,    ///< v = 1 / (1 + exp(-v))
  kClamp,      ///< v = min(max(v, lo), hi)
  kResidual,   ///< v += D(row, col)     (residual/skip connection)
  kRowAbsMax,  ///< row_abs_max[row] = max(row_abs_max[row], |v|); v unchanged
  kRowSum,     ///< row_sum[row] += v; v unchanged
};

struct EpilogueOp {
  OpKind kind = OpKind::kReLU;
  double lo = 0.0;  ///< clamp lower bound (kClamp only)
  double hi = 0.0;  ///< clamp upper bound (kClamp only)

  friend bool operator==(const EpilogueOp&, const EpilogueOp&) = default;

  static EpilogueOp bias_row() { return {OpKind::kBiasRow}; }
  static EpilogueOp bias_col() { return {OpKind::kBiasCol}; }
  static EpilogueOp relu() { return {OpKind::kReLU}; }
  static EpilogueOp gelu() { return {OpKind::kGELU}; }
  static EpilogueOp sigmoid() { return {OpKind::kSigmoid}; }
  static EpilogueOp clamp(double lo, double hi) {
    return {OpKind::kClamp, lo, hi};
  }
  static EpilogueOp residual() { return {OpKind::kResidual}; }
  static EpilogueOp row_abs_max() { return {OpKind::kRowAbsMax}; }
  static EpilogueOp row_sum() { return {OpKind::kRowSum}; }
};

/// Non-owning row-major matrix reference for the residual operand.  The
/// element type is tagged so the templated applier can verify it matches
/// the output matrix instead of reinterpreting bytes.
struct TensorRef {
  enum class Type : std::uint8_t { kNone, kF64, kF32 };

  Type type = Type::kNone;
  const void* data = nullptr;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t ld = 0;  ///< row stride in elements (>= cols)

  static TensorRef of(const double* data, std::int64_t rows, std::int64_t cols,
                      std::int64_t ld = 0) {
    return {Type::kF64, data, rows, cols, ld > 0 ? ld : cols};
  }
  static TensorRef of(const float* data, std::int64_t rows, std::int64_t cols,
                      std::int64_t ld = 0) {
    return {Type::kF32, data, rows, cols, ld > 0 ? ld : cols};
  }
};

/// A read-only binding of caller-owned data: a std::span<const double>
/// that refuses temporaries.  A plain span of const elements also binds to
/// an rvalue container, so `spec.bias_col = std::vector<double>(n)` would
/// compile and leave the span dangling; here binding an rvalue that owns
/// its elements is a compile error, at construction and at assignment.
/// Temporary views (spans) still bind: they own nothing.
class ConstBinding : public std::span<const double> {
 public:
  ConstBinding() = default;
  ConstBinding(std::span<const double> data) : std::span<const double>(data) {}
  template <typename R>
    requires std::is_constructible_v<std::span<const double>, R> &&
             (std::is_lvalue_reference_v<R> || std::ranges::borrowed_range<R>)
  ConstBinding(R&& data) : std::span<const double>(std::forward<R>(data)) {}
  template <typename R>
    requires(!std::ranges::borrowed_range<R>)
  ConstBinding(const R&&) = delete;  // a temporary: the binding would dangle
};

/// The user-facing request: op chain plus data bindings.  Travels inside
/// cpu::GemmOptions / cpu::ExecutorOptions by value (spans copy; the
/// referenced storage must outlive the call).
///
/// Row-indexed bindings (bias_row, row_abs_max, row_sum) are indexed by the
/// *global* output row: plain/BLAS GEMM rows for the matrix front ends,
/// the stacked row `entry * m + i` for batched GEMM, the output-pixel index
/// for convolution.  Reduction outputs are read-modify-write: callers
/// initialize them (0 is the natural identity for both |max| and sum) and
/// the epilogue merges per-tile contributions with atomic updates, so the
/// merge order across tiles is unspecified (exact for integer-valued data,
/// last-bit nondeterministic for general floats).
struct EpilogueSpec {
  std::vector<EpilogueOp> ops;  ///< applied in order after alpha/beta scale

  ConstBinding bias_row;          ///< length >= output rows
  ConstBinding bias_col;          ///< length >= output cols
  TensorRef residual;             ///< output-shaped D matrix
  std::span<double> row_abs_max;  ///< length >= output rows (written)
  std::span<double> row_sum;      ///< length >= output rows (written)

  bool empty() const { return ops.empty(); }
};

/// Compiled chain: validated ops, consumption flags, and the canonical
/// class key, all derived once.  Immutable and shareable across threads.
class EpiloguePlan {
 public:
  /// Compiles (and validates) `ops`; throws util::CheckError on a malformed
  /// chain (currently: clamp bounds with lo > hi).
  explicit EpiloguePlan(std::vector<EpilogueOp> ops);

  std::span<const EpilogueOp> ops() const { return ops_; }
  bool identity() const { return ops_.empty(); }

  bool needs_bias_row() const { return needs_bias_row_; }
  bool needs_bias_col() const { return needs_bias_col_; }
  bool needs_residual() const { return needs_residual_; }
  /// Any op indexed by the output row (bias_row or a reduction).
  bool has_row_indexed() const { return has_row_indexed_; }
  /// Any reduction output (row_abs_max / row_sum).
  bool has_reduction() const { return has_reduction_; }

  /// Canonical structural fingerprint: "" for the identity chain, else op
  /// tokens joined by '+', scalar immediates in shortest-round-trip form
  /// ("bias_col+gelu", "clamp(-1:1)+row_abs_max").  Comma-free by
  /// construction, so it embeds directly in the tuning database's CSV.
  const std::string& class_key() const { return class_key_; }

  /// The (optional bias_col) + (optional single pointwise op) pattern --
  /// the bias+activation shape MLP and conv layers fuse.  Recognized at
  /// compile time so the applier runs it without the generic chain
  /// interpreter's per-row set-up.
  struct BiasActPattern {
    bool bias_col = false;
    bool has_act = false;
    EpilogueOp act{OpKind::kReLU};  ///< relu/gelu/sigmoid/clamp
  };
  /// Non-null when the chain matches BiasActPattern.
  const BiasActPattern* bias_act() const {
    return is_bias_act_ ? &bias_act_ : nullptr;
  }

 private:
  std::vector<EpilogueOp> ops_;
  std::string class_key_;
  bool needs_bias_row_ = false;
  bool needs_bias_col_ = false;
  bool needs_residual_ = false;
  bool has_row_indexed_ = false;
  bool has_reduction_ = false;
  bool is_bias_act_ = false;
  BiasActPattern bias_act_;
};

using EpiloguePlanPtr = std::shared_ptr<const EpiloguePlan>;

/// Compiles a chain (shared identity plan for the empty chain, so the
/// common unfused path allocates nothing).
EpiloguePlanPtr compile(std::span<const EpilogueOp> ops);

/// The shared identity (no-op) plan.
EpiloguePlanPtr identity_plan();

/// class_key() without compiling: "" for an empty chain.
std::string class_key(std::span<const EpilogueOp> ops);

/// Inverse of class_key(): parses a canonical class string back into the
/// op chain it denotes ("" -> empty chain).  Throws util::CheckError on an
/// unrecognized token -- the tuner uses this to rebuild a measurable chain
/// from a database key.
std::vector<EpilogueOp> parse_class_key(std::string_view key);

/// Parse-and-reformat: any parseable class string to its canonical form
/// (the one class_key() computes from a caller's chain, which is what
/// runtime dispatch and the tuning database key on).  Throws
/// util::CheckError on an unparseable class.  The single definition of
/// "canonical" -- every ingestion boundary (TuningDb, tuner, CLI) calls
/// this rather than composing the parse/format pair itself.
std::string canonical_class_key(std::string_view key);

/// Validates `spec`'s bindings against `plan` for an `m` x `n` output with
/// `out_type`-typed elements; throws util::CheckError naming the missing or
/// mis-sized binding.  Front ends call this once per execution, before the
/// parallel region.
void check_bindings(const EpiloguePlan& plan, const EpilogueSpec& spec,
                    std::int64_t m, std::int64_t n, TensorRef::Type out_type);

/// The TensorRef type tag for an output element type.
template <typename Out>
constexpr TensorRef::Type tensor_type_of();
template <>
constexpr TensorRef::Type tensor_type_of<double>() {
  return TensorRef::Type::kF64;
}
template <>
constexpr TensorRef::Type tensor_type_of<float>() {
  return TensorRef::Type::kF32;
}

/// Test-only per-element application accounting (MacProbe's sibling).  When
/// armed, every epilogue application records the output elements it
/// touched; tests assert afterwards that each of the m*n elements was
/// applied *exactly once* -- the invariant that makes nonlinear epilogues
/// legal under Stream-K fixup.  Disabled it costs one relaxed atomic load
/// per applied row.
class EpilogueProbe {
 public:
  /// Arms the probe for an output of `elements` elements (counters zeroed).
  static void begin(std::int64_t elements);
  /// Disarms the probe (counters remain readable until the next begin()).
  static void end();
  static bool enabled();

  /// Records one application of each element in [first, first + count).
  static void record(std::int64_t first, std::int64_t count);

  /// Applications recorded for one element.
  static std::int64_t applications(std::int64_t element);
  /// Total applications recorded.
  static std::int64_t total();
  /// True when every element in [0, elements) was applied exactly once.
  static bool all_exactly_once();
};

}  // namespace streamk::epilogue
