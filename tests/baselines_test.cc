#include <gtest/gtest.h>

#include "baselines/naive_bayes.h"
#include "baselines/optimized_hmm.h"
#include "data/ocr.h"
#include "eval/metrics.h"

namespace dhmm::baselines {
namespace {

data::OcrOptions SmallOcr(uint64_t seed, size_t n = 400,
                          double noise = 0.08) {
  data::OcrOptions opts;
  opts.num_words = n;
  opts.pixel_flip = noise;
  opts.seed = seed;
  return opts;
}

struct Split {
  hmm::Dataset<prob::BinaryObs> train;
  hmm::Dataset<prob::BinaryObs> test;
};

Split TrainTest(const data::OcrDataset& ds, double test_fraction = 0.2) {
  Split split;
  size_t n_test = static_cast<size_t>(ds.words.size() * test_fraction);
  for (size_t i = 0; i < ds.words.size(); ++i) {
    (i < n_test ? split.test : split.train).push_back(ds.words[i]);
  }
  return split;
}

double Accuracy(const std::vector<std::vector<int>>& pred,
                const hmm::Dataset<prob::BinaryObs>& data) {
  eval::LabelSequences gold;
  for (const auto& seq : data) gold.push_back(seq.labels);
  return eval::FrameAccuracy(pred, gold);
}

// -------------------------------------------------------------- NaiveBayes ---

TEST(NaiveBayesTest, LearnsSeparableClasses) {
  // Without spatial jitter the glyphs are near-perfectly separable per frame;
  // jitter is what drags NaiveBayes into the paper's ~63% band (Fig. 11).
  data::OcrOptions opts = SmallOcr(1, 300, 0.02);
  opts.max_jitter = 0;
  data::OcrDataset ds = data::GenerateOcrDataset(opts);
  Split split = TrainTest(ds);
  NaiveBayesClassifier nb(data::kNumLetters, data::kGlyphDims);
  nb.Fit(split.train);
  std::vector<std::vector<int>> pred;
  for (const auto& seq : split.test) {
    pred.push_back(nb.PredictSequence(seq.obs));
  }
  EXPECT_GT(Accuracy(pred, split.test), 0.9);
}

TEST(NaiveBayesTest, DegradesWithNoiseButNotBelowChance) {
  data::OcrDataset clean = data::GenerateOcrDataset(SmallOcr(3, 300, 0.02));
  data::OcrDataset noisy = data::GenerateOcrDataset(SmallOcr(3, 300, 0.25));
  Split cs = TrainTest(clean);
  Split ns = TrainTest(noisy);

  NaiveBayesClassifier nb_clean(data::kNumLetters, data::kGlyphDims);
  nb_clean.Fit(cs.train);
  NaiveBayesClassifier nb_noisy(data::kNumLetters, data::kGlyphDims);
  nb_noisy.Fit(ns.train);

  std::vector<std::vector<int>> pred_clean, pred_noisy;
  for (const auto& s : cs.test) {
    pred_clean.push_back(nb_clean.PredictSequence(s.obs));
  }
  for (const auto& s : ns.test) {
    pred_noisy.push_back(nb_noisy.PredictSequence(s.obs));
  }
  double acc_clean = Accuracy(pred_clean, cs.test);
  double acc_noisy = Accuracy(pred_noisy, ns.test);
  EXPECT_GT(acc_clean, acc_noisy);
  EXPECT_GT(acc_noisy, 1.5 / 26.0);  // well above chance
}

TEST(NaiveBayesTest, FitKeepsTheConstructorsProbabilityFloor) {
  // One pixel: off in the 900 class-0 frames, on in the 100 class-1
  // frames. A floor of 0.2 clamps every fitted pixel probability into
  // [0.2, 0.8], so a lit pixel is worth at most log 4 and cannot overturn
  // the 9:1 prior; under the default floor of 1e-3 it does.
  hmm::Dataset<prob::BinaryObs> data(1);
  for (int i = 0; i < 1000; ++i) {
    const int label = i % 10 == 0 ? 1 : 0;
    data[0].obs.push_back({static_cast<uint8_t>(label)});
    data[0].labels.push_back(label);
  }
  const prob::BinaryObs lit = {1};
  NaiveBayesClassifier floored(2, 1, /*p_floor=*/0.2);
  floored.Fit(data);
  EXPECT_EQ(floored.Predict(lit), 0);
  NaiveBayesClassifier fine(2, 1);
  fine.Fit(data);
  EXPECT_EQ(fine.Predict(lit), 1);
}

// ------------------------------------------------------------ OptimizedHmm ---

TEST(OptimizedHmmTest, FitsAndDecodes) {
  data::OcrDataset ds = data::GenerateOcrDataset(SmallOcr(4, 400, 0.15));
  Split split = TrainTest(ds);
  OptimizedHmm ohmm(data::kNumLetters, data::kGlyphDims);
  ohmm.Fit(split.train);
  std::vector<std::vector<int>> pred;
  for (const auto& seq : split.test) pred.push_back(ohmm.Decode(seq.obs));
  EXPECT_GT(Accuracy(pred, split.test), 0.5);
}

TEST(OptimizedHmmTest, BeatsNaiveBayesAtHighNoise) {
  // With very noisy pixels, the chain structure must help. This is the
  // Fig. 11 ordering: NaiveBayes < (Optimized)HMM.
  data::OcrDataset ds = data::GenerateOcrDataset(SmallOcr(6, 700, 0.28));
  Split split = TrainTest(ds);

  NaiveBayesClassifier nb(data::kNumLetters, data::kGlyphDims);
  nb.Fit(split.train);
  OptimizedHmm ohmm(data::kNumLetters, data::kGlyphDims);
  ohmm.Fit(split.train);

  std::vector<std::vector<int>> pred_nb, pred_hmm;
  for (const auto& s : split.test) {
    pred_nb.push_back(nb.PredictSequence(s.obs));
    pred_hmm.push_back(ohmm.Decode(s.obs));
  }
  EXPECT_GT(Accuracy(pred_hmm, split.test), Accuracy(pred_nb, split.test));
}

}  // namespace
}  // namespace dhmm::baselines
