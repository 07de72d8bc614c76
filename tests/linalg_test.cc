#include <cmath>

#include <gtest/gtest.h>

#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "prob/rng.h"

namespace dhmm::linalg {
namespace {

// ---------------------------------------------------------------- Vector ---

TEST(VectorTest, ConstructionAndAccess) {
  Vector v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
  v[1] = 5.0;
  EXPECT_DOUBLE_EQ(v[1], 5.0);
}

TEST(VectorTest, Reductions) {
  Vector v{3.0, -4.0, 1.0};
  EXPECT_DOUBLE_EQ(v.sum(), 0.0);
  EXPECT_DOUBLE_EQ(v.norm(), std::sqrt(26.0));
}

TEST(VectorTest, Dot) {
  Vector a{1.0, 2.0};
  Vector b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.dot(b), 11.0);
}

TEST(VectorTest, NormalizeToSimplex) {
  Vector v{1.0, 3.0};
  v.NormalizeToSimplex();
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
}

// ---------------------------------------------------------------- Matrix ---

TEST(MatrixTest, InitializerListAndIdentity) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
}

TEST(MatrixTest, RowColSetters) {
  Matrix m(2, 3);
  m.SetRow(0, Vector{1.0, 2.0, 3.0});
  m.SetCol(2, Vector{9.0, 8.0});
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 2), 9.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 8.0);
  Vector r = m.Row(0);
  EXPECT_DOUBLE_EQ(r[2], 9.0);
  Vector c = m.Col(2);
  EXPECT_DOUBLE_EQ(c[1], 8.0);
}

TEST(MatrixTest, MatMulKnownProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MatMulRectangular) {
  Matrix a(2, 3, 1.0);
  Matrix b(3, 4, 2.0);
  Matrix c = a.MatMul(b);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 4u);
  EXPECT_DOUBLE_EQ(c(1, 3), 6.0);
}

TEST(MatrixTest, Transpose) {
  Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Matrix t = a.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, RowStochasticChecks) {
  Matrix good{{0.2, 0.8}, {0.5, 0.5}};
  EXPECT_TRUE(good.IsRowStochastic());
  Matrix bad{{0.2, 0.9}, {0.5, 0.5}};
  EXPECT_FALSE(bad.IsRowStochastic());
  Matrix negative{{1.2, -0.2}, {0.5, 0.5}};
  EXPECT_FALSE(negative.IsRowStochastic());
}

TEST(MatrixTest, NormalizeRowsHandlesZeroRow) {
  Matrix m(2, 4);
  m(0, 1) = 2.0;
  m.NormalizeRows();
  EXPECT_DOUBLE_EQ(m(0, 1), 1.0);
  // Zero row becomes uniform.
  EXPECT_DOUBLE_EQ(m(1, 0), 0.25);
  EXPECT_TRUE(m.IsRowStochastic());
}

TEST(MatrixTest, NormsAndDistance) {
  Matrix a{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(a.max_abs(), 4.0);
  Matrix b(2, 2);
  EXPECT_DOUBLE_EQ(a.squared_distance(b), 25.0);
  EXPECT_DOUBLE_EQ(a.sum(), 7.0);
}

// -------------------------------------------------------------- Cholesky ---

TEST(CholeskyTest, FactorsSpdMatrix) {
  Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  CholeskyDecomposition chol(a);
  ASSERT_TRUE(chol.ok());
  const Matrix& l = chol.L();
  Matrix rec = l.MatMul(l.Transposed());
  EXPECT_NEAR(rec(0, 0), 4.0, 1e-12);
  EXPECT_NEAR(rec(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(rec(1, 1), 3.0, 1e-12);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_FALSE(CholeskyDecomposition(a).ok());
}

TEST(CholeskyTest, LogDetMatchesEigenvalues) {
  prob::Rng rng(3);
  for (int trial = 0; trial < 8; ++trial) {
    size_t n = 2 + trial % 5;
    Matrix g(n, n);
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j < n; ++j) g(i, j) = rng.Gaussian();
    Matrix spd = g.MatMul(g.Transposed());
    for (size_t i = 0; i < n; ++i) spd(i, i) += 0.5;
    CholeskyDecomposition chol(spd);
    ASSERT_TRUE(chol.ok());
    SymmetricEigen eig(spd);
    double log_det = 0.0;
    for (size_t i = 0; i < n; ++i) log_det += std::log(eig.eigenvalues()[i]);
    EXPECT_NEAR(chol.LogDeterminant(), log_det, 1e-8);
  }
}

TEST(CholeskyTest, SolveIntoRecoversSolution) {
  Matrix a{{5.0, 1.0, 0.5}, {1.0, 4.0, 1.0}, {0.5, 1.0, 3.0}};
  Matrix x_true{{1.0, 0.0}, {-2.0, 1.0}, {3.0, -1.0}};
  CholeskyDecomposition chol(a);
  ASSERT_TRUE(chol.ok());
  Matrix x;
  chol.SolveInto(a.MatMul(x_true), &x);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t c = 0; c < 2; ++c) EXPECT_NEAR(x(i, c), x_true(i, c), 1e-12);
  }
}

// -------------------------------------------------------- SymmetricEigen ---

TEST(EigenSymTest, DiagonalMatrix) {
  SymmetricEigen eig(Matrix{{3.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 2.0}});
  ASSERT_TRUE(eig.converged());
  EXPECT_NEAR(eig.eigenvalues()[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues()[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues()[2], 3.0, 1e-12);
}

TEST(EigenSymTest, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
  SymmetricEigen eig(Matrix{{2.0, 1.0}, {1.0, 2.0}});
  EXPECT_NEAR(eig.eigenvalues()[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.eigenvalues()[1], 3.0, 1e-10);
}

TEST(EigenSymTest, ReconstructionAndOrthonormality) {
  prob::Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    size_t n = 2 + trial;
    Matrix g(n, n);
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j < n; ++j) g(i, j) = rng.Gaussian();
    Matrix s = g + g.Transposed();
    SymmetricEigen eig(s);
    ASSERT_TRUE(eig.converged());
    const Matrix& v = eig.eigenvectors();
    // V^T V = I.
    Matrix vtv = v.Transposed().MatMul(v);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(vtv(i, j), i == j ? 1.0 : 0.0, 1e-8);
      }
    }
    // V diag(w) V^T = S.
    Matrix vw = v;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) vw(i, j) *= eig.eigenvalues()[j];
    }
    Matrix rec = vw.MatMul(v.Transposed());
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(rec(i, j), s(i, j), 1e-7);
      }
    }
  }
}

TEST(EigenSymTest, TraceAndDetInvariants) {
  Matrix s{{4.0, 1.0, 0.0}, {1.0, 3.0, 1.0}, {0.0, 1.0, 2.0}};
  SymmetricEigen eig(s);
  const Vector& w = eig.eigenvalues();
  EXPECT_NEAR(w[0] + w[1] + w[2], 9.0, 1e-9);              // trace
  // det by cofactor expansion along the first row: 4*5 - 1*2 + 0 = 18.
  EXPECT_NEAR(w[0] * w[1] * w[2], 18.0, 1e-8);
}

TEST(EigenSymTest, PsdKernelHasNonNegativeEigenvalues) {
  prob::Rng rng(9);
  Matrix g(4, 6);
  for (size_t i = 0; i < 4; ++i)
    for (size_t j = 0; j < 6; ++j) g(i, j) = rng.Gaussian();
  Matrix psd = g.MatMul(g.Transposed());
  SymmetricEigen eig(psd);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_GE(eig.eigenvalues()[i], -1e-9);
  }
}

}  // namespace
}  // namespace dhmm::linalg
