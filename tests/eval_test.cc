#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "eval/crossval.h"
#include "eval/diversity.h"
#include "eval/hungarian.h"
#include "eval/metrics.h"
#include "prob/rng.h"

namespace dhmm::eval {
namespace {

// Total cost of an assignment: sum_r cost(r, assign[r]). A wrong-length
// assignment or an out-of-range column fails the test (NaN, never a read
// past `cost`).
double AssignmentCost(const linalg::Matrix& cost,
                      const std::vector<int>& assign) {
  EXPECT_EQ(assign.size(), cost.rows());
  if (assign.size() != cost.rows()) return std::nan("");
  double total = 0.0;
  for (size_t r = 0; r < assign.size(); ++r) {
    if (assign[r] < 0 || static_cast<size_t>(assign[r]) >= cost.cols()) {
      ADD_FAILURE() << "row " << r << " assigned to column " << assign[r]
                    << " of " << cost.cols();
      return std::nan("");
    }
    total += cost(r, static_cast<size_t>(assign[r]));
  }
  return total;
}

// --------------------------------------------------------------- Hungarian ---

TEST(HungarianTest, TrivialDiagonal) {
  linalg::Matrix cost{{1.0, 10.0}, {10.0, 1.0}};
  auto assign = SolveAssignment(cost);
  EXPECT_EQ(assign[0], 0);
  EXPECT_EQ(assign[1], 1);
  EXPECT_DOUBLE_EQ(AssignmentCost(cost, assign), 2.0);
}

TEST(HungarianTest, CrossAssignment) {
  linalg::Matrix cost{{10.0, 1.0}, {1.0, 10.0}};
  auto assign = SolveAssignment(cost);
  EXPECT_EQ(assign[0], 1);
  EXPECT_EQ(assign[1], 0);
}

TEST(HungarianTest, KnownThreeByThree) {
  // Enumerating all six permutations of this cost matrix gives minimum 12.
  linalg::Matrix cost{{4.0, 2.0, 8.0}, {4.0, 3.0, 7.0}, {3.0, 1.0, 6.0}};
  auto assign = SolveAssignment(cost);
  EXPECT_DOUBLE_EQ(AssignmentCost(cost, assign), 12.0);
}

double BruteForceMin(const linalg::Matrix& cost) {
  std::vector<int> perm(cost.rows());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
  double best = 1e300;
  do {
    double s = 0.0;
    for (size_t i = 0; i < perm.size(); ++i) {
      s += cost(i, static_cast<size_t>(perm[i]));
    }
    best = std::min(best, s);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

class HungarianPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HungarianPropertyTest, MatchesBruteForce) {
  prob::Rng rng(static_cast<uint64_t>(GetParam()));
  size_t n = 2 + static_cast<size_t>(GetParam()) % 6;  // up to 7!
  linalg::Matrix cost(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) cost(i, j) = rng.Uniform(0.0, 10.0);
  auto assign = SolveAssignment(cost);
  // Valid permutation.
  std::vector<bool> used(n, false);
  for (int a : assign) {
    ASSERT_FALSE(used[static_cast<size_t>(a)]);
    used[static_cast<size_t>(a)] = true;
  }
  EXPECT_NEAR(AssignmentCost(cost, assign), BruteForceMin(cost), 1e-9);
}

TEST_P(HungarianPropertyTest, MaxAssignmentIsMinOfNegated) {
  prob::Rng rng(static_cast<uint64_t>(GetParam()) + 77);
  size_t n = 2 + static_cast<size_t>(GetParam()) % 5;
  linalg::Matrix value(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) value(i, j) = rng.Uniform(0.0, 5.0);
  auto assign = SolveMaxAssignment(value);
  linalg::Matrix neg = value;
  neg *= -1.0;
  EXPECT_NEAR(AssignmentCost(value, assign), -BruteForceMin(neg), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomCosts, HungarianPropertyTest,
                         ::testing::Range(0, 15));

TEST(HungarianTest, RectangularRowsLessThanCols) {
  linalg::Matrix cost{{5.0, 1.0, 9.0}, {1.0, 5.0, 9.0}};
  auto assign = SolveAssignment(cost);
  EXPECT_EQ(assign[0], 1);
  EXPECT_EQ(assign[1], 0);
}

// ----------------------------------------------------------------- Metrics ---

TEST(MetricsTest, ConfusionCounts) {
  LabelSequences pred = {{0, 0, 1}, {1}};
  LabelSequences gold = {{0, 1, 1}, {0}};
  linalg::Matrix c = BuildConfusion(pred, gold, 2);
  EXPECT_DOUBLE_EQ(c(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 1.0);
}

TEST(MetricsTest, OneToOneFindsBestPermutation) {
  // Predictions are gold with labels swapped: accuracy must be 1 after
  // alignment.
  LabelSequences gold = {{0, 1, 0, 1, 2, 2}};
  LabelSequences pred = {{1, 0, 1, 0, 2, 2}};
  AlignedAccuracy acc = OneToOneAccuracy(pred, gold, 3);
  EXPECT_DOUBLE_EQ(acc.accuracy, 1.0);
  EXPECT_EQ(acc.mapping[0], 1);
  EXPECT_EQ(acc.mapping[1], 0);
  EXPECT_EQ(acc.mapping[2], 2);
}

TEST(MetricsTest, OneToOneIsBijective) {
  // Two predicted states both matching gold 0: 1-to-1 must sacrifice one.
  LabelSequences gold = {{0, 0, 0, 0}};
  LabelSequences pred = {{0, 1, 0, 1}};
  AlignedAccuracy acc = OneToOneAccuracy(pred, gold, 2);
  EXPECT_DOUBLE_EQ(acc.accuracy, 0.5);
}

TEST(MetricsTest, ManyToOneAtLeastOneToOne) {
  prob::Rng rng(5);
  LabelSequences gold(10), pred(10);
  for (int s = 0; s < 10; ++s) {
    for (int t = 0; t < 20; ++t) {
      gold[s].push_back(static_cast<int>(rng.UniformInt(4)));
      pred[s].push_back(static_cast<int>(rng.UniformInt(4)));
    }
  }
  double one = OneToOneAccuracy(pred, gold, 4).accuracy;
  double many = ManyToOneAccuracy(pred, gold, 4).accuracy;
  EXPECT_GE(many, one - 1e-12);
}

TEST(MetricsTest, FrameAccuracy) {
  LabelSequences pred = {{0, 1, 2}, {2, 2}};
  LabelSequences gold = {{0, 1, 1}, {2, 0}};
  EXPECT_DOUBLE_EQ(FrameAccuracy(pred, gold), 3.0 / 5.0);
}

TEST(MetricsTest, StateHistogramAndEffectiveStates) {
  LabelSequences labels = {{0, 0, 0, 1}, {1, 2}};
  linalg::Vector hist = StateHistogram(labels, 4);
  EXPECT_DOUBLE_EQ(hist[0], 3.0);
  EXPECT_DOUBLE_EQ(hist[1], 2.0);
  EXPECT_DOUBLE_EQ(hist[2], 1.0);
  EXPECT_DOUBLE_EQ(hist[3], 0.0);
  EXPECT_EQ(CountEffectiveStates(hist, 2.0), 2);
  EXPECT_EQ(CountEffectiveStates(hist, 1.0), 3);
  EXPECT_EQ(CountEffectiveStates(hist, 0.5), 3);
}

TEST(MetricsTest, MeanStd) {
  MeanStd ms = ComputeMeanStd({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_NEAR(ms.mean, 5.0, 1e-12);
  EXPECT_NEAR(ms.std, std::sqrt(32.0 / 7.0), 1e-12);
  MeanStd single = ComputeMeanStd({3.0});
  EXPECT_DOUBLE_EQ(single.mean, 3.0);
  EXPECT_DOUBLE_EQ(single.std, 0.0);
}

// --------------------------------------------------------------- Diversity ---

TEST(DiversityTest, BhattacharyyaIdentities) {
  linalg::Vector p{0.5, 0.5};
  EXPECT_NEAR(BhattacharyyaCoefficient(p, p), 1.0, 1e-12);
  EXPECT_NEAR(BhattacharyyaDistance(p, p), 0.0, 1e-12);
  linalg::Vector q{1.0, 0.0};
  EXPECT_NEAR(BhattacharyyaCoefficient(p, q), std::sqrt(0.5), 1e-12);
  EXPECT_NEAR(BhattacharyyaDistance(p, q), -std::log(std::sqrt(0.5)), 1e-12);
}

TEST(DiversityTest, DisjointSupportsAreMaximallyDistant) {
  linalg::Vector p{1.0, 0.0};
  linalg::Vector q{0.0, 1.0};
  EXPECT_NEAR(BhattacharyyaCoefficient(p, q), 0.0, 1e-12);
  EXPECT_GT(BhattacharyyaDistance(p, q), 100.0);  // effectively infinite
  EXPECT_NEAR(CosineDistance(p, q), 1.0, 1e-12);
}

TEST(DiversityTest, SymmetricInArguments) {
  prob::Rng rng(6);
  linalg::Vector p = rng.DirichletSymmetric(5, 1.0);
  linalg::Vector q = rng.DirichletSymmetric(5, 1.0);
  EXPECT_NEAR(BhattacharyyaDistance(p, q), BhattacharyyaDistance(q, p),
              1e-12);
  EXPECT_NEAR(CosineDistance(p, q), CosineDistance(q, p), 1e-12);
}

TEST(DiversityTest, AveragePairwiseKnownValue) {
  linalg::Matrix a{{1.0, 0.0}, {0.0, 1.0}};
  // Only one pair with (clamped) BC of ~0 -> distance -log(1e-300) huge; use
  // cosine for the exact value.
  EXPECT_NEAR(AveragePairwiseDiversity(a, DiversityMeasure::kCosine), 1.0,
              1e-12);
}

TEST(DiversityTest, MorePeakedRowsAreMoreDiverse) {
  linalg::Matrix peaked{{0.9, 0.05, 0.05}, {0.05, 0.9, 0.05},
                        {0.05, 0.05, 0.9}};
  linalg::Matrix flat{{0.4, 0.3, 0.3}, {0.3, 0.4, 0.3}, {0.3, 0.3, 0.4}};
  EXPECT_GT(AveragePairwiseDiversity(peaked), AveragePairwiseDiversity(flat));
  EXPECT_GT(AveragePairwiseDiversity(peaked, DiversityMeasure::kCosine),
            AveragePairwiseDiversity(flat, DiversityMeasure::kCosine));
}

TEST(DiversityTest, RowProfileShape) {
  linalg::Matrix a{{0.8, 0.1, 0.1}, {0.1, 0.8, 0.1}, {0.34, 0.33, 0.33}};
  linalg::Vector profile = RowDiversityProfile(a, 0);
  EXPECT_DOUBLE_EQ(profile[0], 0.0);
  EXPECT_GT(profile[1], profile[2]);  // row 1 is farther from row 0 than row 2
}

// ---------------------------------------------------------------- KFold ---

TEST(KFoldTest, PartitionsAllIndicesExactlyOnce) {
  prob::Rng rng(7);
  auto folds = KFoldSplit(103, 10, rng);
  ASSERT_EQ(folds.size(), 10u);
  std::vector<int> seen(103, 0);
  for (const auto& fold : folds) {
    for (size_t i : fold.test) ++seen[i];
    EXPECT_EQ(fold.train.size() + fold.test.size(), 103u);
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(KFoldTest, FoldSizesBalanced) {
  prob::Rng rng(8);
  auto folds = KFoldSplit(25, 4, rng);
  for (const auto& fold : folds) {
    EXPECT_GE(fold.test.size(), 6u);
    EXPECT_LE(fold.test.size(), 7u);
  }
}

TEST(KFoldTest, TrainAndTestDisjoint) {
  prob::Rng rng(9);
  auto folds = KFoldSplit(30, 5, rng);
  for (const auto& fold : folds) {
    std::vector<bool> in_test(30, false);
    for (size_t i : fold.test) in_test[i] = true;
    for (size_t i : fold.train) EXPECT_FALSE(in_test[i]);
  }
}

TEST(KFoldTest, SubsetGathers) {
  std::vector<int> data = {10, 20, 30, 40};
  auto sub = Subset(data, {3, 0});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub[0], 40);
  EXPECT_EQ(sub[1], 10);
}

}  // namespace
}  // namespace dhmm::eval
