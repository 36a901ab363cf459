#pragma once

#include <cstddef>
#include <vector>

#include "src/common/status.h"

namespace llamatune {

/// \brief Dense row-major matrix of doubles over flat contiguous
/// storage.
///
/// The shared math-core type: the GP Gram/Cholesky hot path, the
/// surrogate prediction batches, and the DDPG actor/critic minibatches
/// all run over it. Rows are contiguous, so row-wise kernels and
/// triangular-solve inner loops stream linearly through memory instead
/// of chasing per-row allocations.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows),
        cols_(cols),
        stride_(cols),
        row_capacity_(rows),
        data_(static_cast<size_t>(rows) * cols, fill) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& at(int r, int c) {
    return data_[static_cast<size_t>(r) * stride_ + c];
  }
  double at(int r, int c) const {
    return data_[static_cast<size_t>(r) * stride_ + c];
  }

  /// Direct pointer to the start of row `r` (contiguous `cols()`
  /// doubles).
  double* Row(int r) {
    return data_.data() + static_cast<size_t>(r) * stride_;
  }
  const double* Row(int r) const {
    return data_.data() + static_cast<size_t>(r) * stride_;
  }

  /// Raw backing storage. Rows are packed back-to-back only while the
  /// matrix has never grown past its initial shape (stride == cols) —
  /// true for every freshly constructed matrix.
  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  /// Resizes to (rows, cols) keeping the overlapping top-left block;
  /// new cells are set to `fill`. Capacity grows geometrically, so the
  /// GP's per-observation growth of its cached squares (Gram geometry,
  /// Cholesky factor) costs amortized O(new cells), not O(n^2)
  /// relayouts per append.
  void ResizePreserve(int rows, int cols, double fill = 0.0);

  /// Appends one row (cols() doubles) to the bottom; construct with
  /// the intended column count first. Zero-column matrices are fine
  /// (the append only bumps rows()). Amortized O(cols).
  void AppendRow(const double* row);

 private:
  /// Re-layouts into a buffer with at least (rows, cols) logical cells,
  /// growing stride and row capacity geometrically.
  void Grow(int rows, int cols, double fill);

  int rows_ = 0;
  int cols_ = 0;
  int stride_ = 0;        // row pitch in doubles (>= cols_)
  int row_capacity_ = 0;  // allocated rows
  std::vector<double> data_;
};

/// \name Flat dense linear algebra (the model-fitting hot path)
/// @{

/// In-place Cholesky factorization of the symmetric positive-definite
/// matrix in `a`: on success `a` holds the lower-triangular L with
/// A = L L^T (upper triangle zeroed). Fails without touching the
/// caller's semantics if A is not positive definite — the buffer is
/// partially overwritten and must be rebuilt before a retry.
Status CholeskyFactorInPlace(Matrix* a);

/// Rank-extends a cached Cholesky factor by one row/column in O(n^2):
/// given the n x n factor L of A and `row` = [A(n,0..n-1), A(n,n)]
/// (n+1 entries — the new matrix row), grows `l` to the (n+1) x (n+1)
/// factor of the extended matrix. The arithmetic matches what a full
/// CholeskyFactorInPlace of the extended matrix would compute for the
/// new row bit-for-bit, so incremental and from-scratch fits agree
/// exactly. Fails (leaving `l` unchanged) when the extension is not
/// positive definite.
Status CholeskyExtend(Matrix* l, const double* row);

/// Solves L z = b (forward substitution) for lower-triangular L.
/// `b` and `z` may alias.
void TriangularSolveLower(const Matrix& l, const double* b, double* z);

/// Solves L^T z = b (backward substitution) for lower-triangular L.
/// `b` and `z` may alias.
void TriangularSolveLowerTransposed(const Matrix& l, const double* b,
                                    double* z);

/// Solves L Z = B for all columns of B at once, in place (B is n x m;
/// each column is an independent right-hand side). One pass over L
/// serves every column, with contiguous row-wise inner loops — this is
/// what lets acquisition scoring solve all candidate k_star columns
/// against the cached factor in a single sweep. Column c of the result
/// is bit-for-bit what TriangularSolveLower would produce for column c
/// alone.
void TriangularSolveLowerMulti(const Matrix& l, Matrix* b);

/// @}

/// \name Batched dense-layer kernels (the DDPG training hot path)
///
/// One sample per row: X is n x in, W is out x in, G is n x out.
///
/// Summation-order contract: every output element is the sum of its
/// products taken in ascending order of the reduction index, starting
/// from the same value as the one-sample formulation -- 0.0 for Y and
/// G_in (the bias is added after the sum), and the current dW/db
/// entry for the gradients, with samples added in ascending row order.
/// The kernels vectorise only across independent output elements,
/// never across a reduction, so with FP contraction off (the build
/// pins -ffp-contract=off) a result is bit-for-bit the plain
/// per-sample loop and does not depend on the SIMD width.
/// TriangularSolveLowerMulti makes the same promise. The elementwise
/// passes around these kernels keep the contract in src/common/lanes.h.
/// @{

/// Y = X W^T + b: Y(i, r) = (sum_c X(i, c) W(r, c)) + b[r], with `b`
/// holding W.rows() entries.
Matrix MultiplyTransposedAddBias(const Matrix& x, const Matrix& w,
                                 const double* b);

/// G_in = G W: G_in(i, c) = sum_r G(i, r) W(r, c), ascending r.
Matrix Multiply(const Matrix& g, const Matrix& w);

/// dW += G^T X and db += G^T 1: for each sample i in ascending order,
/// dW(r, c) += G(i, r) X(i, c) and db[r] += G(i, r).
void AccumulateTransposedProduct(const Matrix& g, const Matrix& x,
                                 Matrix* dw, double* db);

/// @}

}  // namespace llamatune
