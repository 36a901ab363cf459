#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/matrix.h"
#include "src/common/rng.h"

namespace llamatune {
namespace {

TEST(MatrixTest, FlatRowMajorAccess) {
  Matrix m(2, 3, 0.0);
  m.at(0, 0) = 1.0;
  m.at(0, 2) = 2.0;
  m.at(1, 1) = 3.0;
  EXPECT_EQ(m.data(), (std::vector<double>{1, 0, 2, 0, 3, 0}));
  EXPECT_EQ(m.Row(1)[1], 3.0);
}

TEST(MatrixTest, DenseLayerKernelsOnKnownMatrix) {
  Matrix w(2, 3);
  // [[1,2,3],[4,5,6]]
  for (int c = 0; c < 3; ++c) {
    w.at(0, c) = c + 1.0;
    w.at(1, c) = c + 4.0;
  }
  Matrix ones3(1, 3, 1.0);
  double bias[] = {0.5, -1.0};
  Matrix y = MultiplyTransposedAddBias(ones3, w, bias);
  EXPECT_EQ(y.data(), (std::vector<double>{6.5, 14.0}));
  Matrix ones2(1, 2, 1.0);
  EXPECT_EQ(Multiply(ones2, w).data(), (std::vector<double>{5.0, 7.0, 9.0}));
  Matrix dw(2, 3);
  double db[] = {0.0, 0.0};
  AccumulateTransposedProduct(ones2, ones3, &dw, db);
  AccumulateTransposedProduct(ones2, ones3, &dw, db);
  EXPECT_EQ(dw.data(), (std::vector<double>(6, 2.0)));
  EXPECT_EQ(db[0], 2.0);
  EXPECT_EQ(db[1], 2.0);
}

TEST(MatrixTest, ResizePreserveKeepsTopLeftBlock) {
  Matrix m(2, 2);
  m.at(0, 0) = 1.0;
  m.at(0, 1) = 2.0;
  m.at(1, 0) = 3.0;
  m.at(1, 1) = 4.0;
  m.ResizePreserve(3, 3, -1.0);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.at(0, 0), 1.0);
  EXPECT_EQ(m.at(0, 1), 2.0);
  EXPECT_EQ(m.at(1, 0), 3.0);
  EXPECT_EQ(m.at(1, 1), 4.0);
  EXPECT_EQ(m.at(0, 2), -1.0);
  EXPECT_EQ(m.at(2, 2), -1.0);
  m.ResizePreserve(2, 2);
  EXPECT_EQ(m.at(1, 1), 4.0);
}

TEST(MatrixTest, AppendRowGrowsWithoutMovingCells) {
  Matrix m(1, 2);
  m.at(0, 0) = 1.0;
  m.at(0, 1) = 2.0;
  double row[] = {3.0, 4.0};
  m.AppendRow(row);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.at(1, 0), 3.0);
  EXPECT_EQ(m.at(1, 1), 4.0);
}

TEST(FlatCholeskyTest, FactorsKnownMatrix) {
  // A = [[4,2],[2,3]] => L = [[2,0],[1,sqrt(2)]]
  Matrix a(2, 2);
  a.at(0, 0) = 4.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 3.0;
  ASSERT_TRUE(CholeskyFactorInPlace(&a).ok());
  EXPECT_NEAR(a.at(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(a.at(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(a.at(1, 1), std::sqrt(2.0), 1e-12);
  EXPECT_EQ(a.at(0, 1), 0.0);
}

TEST(FlatCholeskyTest, RejectsIndefinite) {
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 1.0;
  EXPECT_FALSE(CholeskyFactorInPlace(&a).ok());
}

// Builds a random SPD matrix A = B B^T + n I.
Matrix RandomSpd(int n, Rng* rng) {
  Matrix b(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) b.at(i, j) = rng->Gaussian();
  }
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int k = 0; k < n; ++k) acc += b.at(i, k) * b.at(j, k);
      a.at(i, j) = acc;
    }
    a.at(i, i) += n;
  }
  return a;
}

TEST(FlatCholeskyTest, ExtendMatchesFullFactorizationBitForBit) {
  Rng rng(11);
  int n = 12;
  Matrix a = RandomSpd(n, &rng);

  // Full factorization of the whole matrix.
  Matrix full = a;
  ASSERT_TRUE(CholeskyFactorInPlace(&full).ok());

  // Factor the leading 6x6 block, then extend row by row.
  int start = 6;
  Matrix inc(start, start);
  for (int i = 0; i < start; ++i) {
    for (int j = 0; j < start; ++j) inc.at(i, j) = a.at(i, j);
  }
  ASSERT_TRUE(CholeskyFactorInPlace(&inc).ok());
  std::vector<double> row;
  for (int r = start; r < n; ++r) {
    row.assign(a.Row(r), a.Row(r) + r + 1);
    ASSERT_TRUE(CholeskyExtend(&inc, row.data()).ok());
  }

  ASSERT_EQ(inc.rows(), n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      // Incremental extension is bit-for-bit a suffix of the full
      // factorization — exact equality, not approximate.
      EXPECT_EQ(inc.at(i, j), full.at(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

TEST(FlatCholeskyTest, ExtendRejectsIndefiniteExtension) {
  Matrix l(1, 1);
  l.at(0, 0) = 1.0;  // A = [1]
  // Extended matrix [[1, 2], [2, 1]] is indefinite.
  double row[] = {2.0, 1.0};
  EXPECT_FALSE(CholeskyExtend(&l, row).ok());
  EXPECT_EQ(l.rows(), 1);  // untouched on failure
}

TEST(FlatSolveTest, RoundTripSolvesSystem) {
  Rng rng(7);
  int n = 9;
  Matrix a = RandomSpd(n, &rng);
  Matrix l = a;
  ASSERT_TRUE(CholeskyFactorInPlace(&l).ok());
  std::vector<double> b(n);
  for (int i = 0; i < n; ++i) b[i] = rng.Gaussian();
  std::vector<double> z(n, 0.0), x(n, 0.0);
  TriangularSolveLower(l, b.data(), z.data());
  TriangularSolveLowerTransposed(l, z.data(), x.data());
  // Check A x == b.
  for (int i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int j = 0; j < n; ++j) acc += a.at(i, j) * x[j];
    EXPECT_NEAR(acc, b[i], 1e-9);
  }
}

TEST(FlatSolveTest, MultiRhsMatchesSingleSolvesBitForBit) {
  Rng rng(3);
  int n = 10, m = 7;
  Matrix l = RandomSpd(n, &rng);
  ASSERT_TRUE(CholeskyFactorInPlace(&l).ok());
  Matrix rhs(n, m);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < m; ++c) rhs.at(i, c) = rng.Gaussian();
  }
  Matrix multi = rhs;
  TriangularSolveLowerMulti(l, &multi);
  std::vector<double> column(n), solved(n);
  for (int c = 0; c < m; ++c) {
    for (int i = 0; i < n; ++i) column[i] = rhs.at(i, c);
    TriangularSolveLower(l, column.data(), solved.data());
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(multi.at(i, c), solved[i]) << "col " << c << " row " << i;
    }
  }
}

// The batched dense-layer kernels against plain per-sample loops,
// written out here in the one-sample order the kernels promise. Values
// span many binades, so any reordering of a sum changes its low bits
// and the bitwise comparison catches it.
double Spread(Rng* rng) {
  return rng->Uniform(-1.0, 1.0) *
         std::ldexp(1.0, static_cast<int>(rng->UniformInt(-20, 20)));
}

Matrix SpreadMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = Spread(rng);
  return m;
}

void ExpectSameBits(const double* got, const double* want, int count,
                    const std::string& where) {
  for (int k = 0; k < count; ++k) {
    uint64_t g, w;
    std::memcpy(&g, &got[k], sizeof(g));
    std::memcpy(&w, &want[k], sizeof(w));
    ASSERT_EQ(g, w) << where << " element " << k << ": " << got[k]
                    << " vs " << want[k];
  }
}

class DenseKernelContract
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DenseKernelContract, MatchesPerSampleLoopsBitForBit) {
  auto [n, in, out] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 100000 + in * 100 + out));
  Matrix x = SpreadMatrix(n, in, &rng);
  Matrix w = SpreadMatrix(out, in, &rng);
  Matrix g = SpreadMatrix(n, out, &rng);
  std::vector<double> b(out);
  for (double& v : b) v = Spread(&rng);

  Matrix y = MultiplyTransposedAddBias(x, w, b.data());
  Matrix g_in = Multiply(g, w);
  ASSERT_EQ(y.rows(), n);
  ASSERT_EQ(y.cols(), out);
  ASSERT_EQ(g_in.rows(), n);
  ASSERT_EQ(g_in.cols(), in);
  for (int i = 0; i < n; ++i) {
    std::vector<double> want_y(out);
    for (int r = 0; r < out; ++r) {
      double acc = 0.0;
      for (int c = 0; c < in; ++c) acc += w.at(r, c) * x.at(i, c);
      want_y[r] = acc + b[r];
    }
    ExpectSameBits(y.Row(i), want_y.data(), out, "Y row " + std::to_string(i));
    std::vector<double> want_in(in, 0.0);
    for (int r = 0; r < out; ++r) {
      for (int c = 0; c < in; ++c) want_in[c] += w.at(r, c) * g.at(i, r);
    }
    ExpectSameBits(g_in.Row(i), want_in.data(), in,
                   "G_in row " + std::to_string(i));
  }

  // Gradients accumulate onto whatever dW/db already hold.
  Matrix dw = SpreadMatrix(out, in, &rng);
  std::vector<double> db(out);
  for (double& v : db) v = Spread(&rng);
  Matrix want_dw = dw;
  std::vector<double> want_db = db;
  AccumulateTransposedProduct(g, x, &dw, db.data());
  for (int i = 0; i < n; ++i) {
    for (int r = 0; r < out; ++r) {
      want_db[r] += g.at(i, r);
      for (int c = 0; c < in; ++c) want_dw.at(r, c) += g.at(i, r) * x.at(i, c);
    }
  }
  for (int r = 0; r < out; ++r) {
    ExpectSameBits(dw.Row(r), want_dw.Row(r), in, "dW row " + std::to_string(r));
  }
  ExpectSameBits(db.data(), want_db.data(), out, "db");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DenseKernelContract,
    ::testing::Combine(::testing::Values(1, 3, 8, 31, 32, 33),
                       ::testing::Values(1, 27, 43, 117),
                       ::testing::Values(1, 16, 64, 90)));

}  // namespace
}  // namespace llamatune
