#include <cmath>

#include <gtest/gtest.h>

#include "optim/projected_gradient.h"
#include "optim/simplex_projection.h"
#include "prob/rng.h"

namespace dhmm::optim {
namespace {

double Distance(const linalg::Vector& a, const linalg::Vector& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
  return std::sqrt(s);
}

// ----------------------------------------------------- SimplexProjection ---

TEST(SimplexProjectionTest, PointOnSimplexIsFixed) {
  linalg::Vector v{0.2, 0.3, 0.5};
  linalg::Vector p = ProjectToSimplex(v);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(p[i], v[i], 1e-12);
}

TEST(SimplexProjectionTest, KnownSolutions) {
  // Projecting (2, 0) -> (1, 0).
  linalg::Vector p1 = ProjectToSimplex(linalg::Vector{2.0, 0.0});
  EXPECT_NEAR(p1[0], 1.0, 1e-12);
  EXPECT_NEAR(p1[1], 0.0, 1e-12);
  // Projecting (0.5, 0.5, 5) -> (0, 0, 1).
  linalg::Vector p2 = ProjectToSimplex(linalg::Vector{0.5, 0.5, 5.0});
  EXPECT_NEAR(p2[2], 1.0, 1e-12);
  // Symmetric input -> uniform output.
  linalg::Vector p3 = ProjectToSimplex(linalg::Vector{7.0, 7.0, 7.0, 7.0});
  for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(p3[i], 0.25, 1e-12);
}

TEST(SimplexProjectionTest, UniformShiftInvariance) {
  // proj(x + c*1) == proj(x) — the property that makes the paper's Eq. 15
  // direction equivalent to the exact gradient after projection.
  prob::Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    linalg::Vector x(6);
    for (size_t i = 0; i < 6; ++i) x[i] = rng.Gaussian(0.0, 2.0);
    linalg::Vector shifted = x;
    double c = rng.Gaussian(0.0, 5.0);
    for (size_t i = 0; i < 6; ++i) shifted[i] += c;
    linalg::Vector p1 = ProjectToSimplex(x);
    linalg::Vector p2 = ProjectToSimplex(shifted);
    for (size_t i = 0; i < 6; ++i) EXPECT_NEAR(p1[i], p2[i], 1e-9);
  }
}

class SimplexProjectionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplexProjectionPropertyTest, OutputOnSimplex) {
  prob::Rng rng(static_cast<uint64_t>(GetParam()));
  size_t n = 2 + static_cast<size_t>(GetParam()) % 9;
  linalg::Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = rng.Gaussian(0.0, 3.0);
  linalg::Vector p = ProjectToSimplex(x);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_GE(p[i], 0.0);
    sum += p[i];
  }
  EXPECT_NEAR(sum, 1.0, 1e-10);
}

TEST_P(SimplexProjectionPropertyTest, IsNearestPoint) {
  // The projection must beat random simplex points in Euclidean distance.
  prob::Rng rng(static_cast<uint64_t>(GetParam()) + 50);
  size_t n = 3 + static_cast<size_t>(GetParam()) % 5;
  linalg::Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = rng.Gaussian(0.0, 2.0);
  linalg::Vector p = ProjectToSimplex(x);
  double best = Distance(p, x);
  for (int trial = 0; trial < 200; ++trial) {
    linalg::Vector q = rng.DirichletSymmetric(n, 1.0);
    EXPECT_GE(Distance(q, x) + 1e-12, best);
  }
}

TEST_P(SimplexProjectionPropertyTest, Idempotent) {
  prob::Rng rng(static_cast<uint64_t>(GetParam()) + 99);
  size_t n = 2 + static_cast<size_t>(GetParam()) % 7;
  linalg::Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = rng.Gaussian();
  linalg::Vector p = ProjectToSimplex(x);
  linalg::Vector pp = ProjectToSimplex(p);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(p[i], pp[i], 1e-12);
}

TEST_P(SimplexProjectionPropertyTest, PreservesOrdering) {
  // x_i >= x_j implies proj(x)_i >= proj(x)_j.
  prob::Rng rng(static_cast<uint64_t>(GetParam()) + 200);
  size_t n = 4;
  linalg::Vector x(n);
  for (size_t i = 0; i < n; ++i) x[i] = rng.Gaussian();
  linalg::Vector p = ProjectToSimplex(x);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (x[i] >= x[j]) {
        EXPECT_GE(p[i] + 1e-12, p[j]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, SimplexProjectionPropertyTest,
                         ::testing::Range(0, 15));

TEST(SimplexProjectionTest, MatrixRowsProjected) {
  linalg::Matrix m{{2.0, -1.0, 0.0}, {0.1, 0.1, 0.1}};
  ProjectRowsToSimplex(&m);
  EXPECT_TRUE(m.IsRowStochastic(1e-9));
  EXPECT_NEAR(m(0, 0), 1.0, 1e-12);  // dominated row snaps to corner
  EXPECT_NEAR(m(1, 0), 1.0 / 3.0, 1e-12);
}

// ------------------------------------------------- ProjectedGradientAscent ---

// Runs the ascent with a value-and-gradient oracle built from `objective`
// and `gradient`; `gradient` returns false where it is undefined.
template <typename Objective, typename Gradient>
ProjectedGradientResult Ascend(const linalg::Matrix& init,
                               const Objective& objective,
                               const Gradient& gradient,
                               const MatrixProjection& project,
                               const ProjectedGradientOptions& options = {}) {
  MatrixValueGradient value_and_grad =
      [&](const linalg::Matrix& a, double* value, linalg::Matrix* grad) {
        *value = objective(a);
        return gradient(a, grad);
      };
  ProjectedGradientWorkspace ws;
  ProjectedGradientResult result;
  ProjectedGradientAscent(init, objective, value_and_grad, project, options,
                          &ws, &result);
  return result;
}

TEST(ProjectedGradientTest, ConcaveQuadraticOnSimplexRow) {
  // maximize -||a - t||^2 over the simplex (1x3 matrix); optimum = proj(t).
  linalg::Vector target{0.6, 0.9, -0.5};
  auto objective = [&](const linalg::Matrix& a) {
    double s = 0.0;
    for (size_t j = 0; j < 3; ++j) {
      s -= (a(0, j) - target[j]) * (a(0, j) - target[j]);
    }
    return s;
  };
  auto gradient = [&](const linalg::Matrix& a, linalg::Matrix* g) {
    *g = linalg::Matrix(1, 3);
    for (size_t j = 0; j < 3; ++j) (*g)(0, j) = -2.0 * (a(0, j) - target[j]);
    return true;
  };
  auto project = [](linalg::Matrix* a) { ProjectRowsToSimplex(a); };

  linalg::Matrix init(1, 3, 1.0 / 3.0);
  ProjectedGradientOptions opts;
  opts.tol = 1e-12;
  opts.max_iters = 500;
  auto result = Ascend(init, objective, gradient, project, opts);
  linalg::Vector expected = ProjectToSimplex(target);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(result.argmax(0, j), expected[j], 1e-5);
  }
  EXPECT_TRUE(result.converged);
}

TEST(ProjectedGradientTest, ObjectiveNeverDecreases) {
  // Track the objective through a run on a concave entropy-like function.
  linalg::Matrix counts{{3.0, 1.0, 6.0}};
  auto objective = [&](const linalg::Matrix& a) {
    double s = 0.0;
    for (size_t j = 0; j < 3; ++j) {
      if (a(0, j) <= 0.0) return -std::numeric_limits<double>::infinity();
      s += counts(0, j) * std::log(a(0, j));
    }
    return s;
  };
  auto gradient = [&](const linalg::Matrix& a, linalg::Matrix* g) {
    *g = linalg::Matrix(1, 3);
    for (size_t j = 0; j < 3; ++j) (*g)(0, j) = counts(0, j) / a(0, j);
    return true;
  };
  auto project = [](linalg::Matrix* a) {
    ProjectRowsToSimplex(a);
    for (size_t j = 0; j < a->cols(); ++j) {
      (*a)(0, j) = std::max((*a)(0, j), 1e-12);
    }
  };
  linalg::Matrix init(1, 3, 1.0 / 3.0);
  auto result = Ascend(init, objective, gradient, project);
  // The analytic optimum is counts normalized: (0.3, 0.1, 0.6).
  EXPECT_NEAR(result.argmax(0, 0), 0.3, 1e-3);
  EXPECT_NEAR(result.argmax(0, 1), 0.1, 1e-3);
  EXPECT_NEAR(result.argmax(0, 2), 0.6, 1e-3);
  EXPECT_GE(result.objective, objective(init));
}

TEST(ProjectedGradientTest, InfeasibleCandidatesAreRejected) {
  // Objective is -inf off a shrunk region; ascent must still improve within.
  auto objective = [](const linalg::Matrix& a) {
    if (a(0, 0) > 0.8) return -std::numeric_limits<double>::infinity();
    return a(0, 0);
  };
  auto gradient = [](const linalg::Matrix&, linalg::Matrix* g) {
    *g = linalg::Matrix(1, 2);
    (*g)(0, 0) = 1.0;
    return true;
  };
  auto project = [](linalg::Matrix* a) { ProjectRowsToSimplex(a); };
  linalg::Matrix init(1, 2, 0.5);
  auto result = Ascend(init, objective, gradient, project);
  EXPECT_GT(result.argmax(0, 0), 0.5);
  EXPECT_LE(result.argmax(0, 0), 0.8);
}

TEST(ProjectedGradientTest, ZeroGradientStopsImmediately) {
  auto objective = [](const linalg::Matrix&) { return 1.0; };
  auto gradient = [](const linalg::Matrix&, linalg::Matrix* g) {
    *g = linalg::Matrix(1, 2);
    return true;
  };
  auto project = [](linalg::Matrix* a) { ProjectRowsToSimplex(a); };
  linalg::Matrix init(1, 2, 0.5);
  auto result = Ascend(init, objective, gradient, project);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_DOUBLE_EQ(result.objective, 1.0);
}

TEST(ProjectedGradientTest, GradientFailureReturnsStart) {
  auto objective = [](const linalg::Matrix&) { return 0.0; };
  auto gradient = [](const linalg::Matrix&, linalg::Matrix*) { return false; };
  auto project = [](linalg::Matrix*) {};
  linalg::Matrix init(1, 2, 0.5);
  auto result = Ascend(init, objective, gradient, project);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_DOUBLE_EQ(result.argmax(0, 0), 0.5);
}

}  // namespace
}  // namespace dhmm::optim
