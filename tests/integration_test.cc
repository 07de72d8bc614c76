// End-to-end reproductions of the paper's experimental *shapes* at reduced
// scale: each test runs a miniature version of one experiment and checks the
// qualitative result the paper reports.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "checked_inference.h"
#include "core/dhmm_trainer.h"
#include "core/supervised_diversified.h"
#include "data/ocr.h"
#include "data/pos_corpus.h"
#include "data/toy.h"
#include "dpp/logdet.h"
#include "eval/crossval.h"
#include "eval/diversity.h"
#include "eval/metrics.h"
#include "hmm/sampler.h"
#include "hmm/trainer.h"

namespace dhmm {
namespace {

using eval::LabelSequences;

LabelSequences GoldLabels(const hmm::Dataset<double>& data) {
  LabelSequences out;
  for (const auto& seq : data) out.push_back(seq.labels);
  return out;
}

// ----------------------------------------------------- Toy (Table 1 shape) ---

struct ToyRun {
  double hmm_accuracy = 0.0;
  double dhmm_accuracy = 0.0;
  double hmm_diversity = 0.0;
  double dhmm_diversity = 0.0;
};

ToyRun RunToyComparison(double sigma, uint64_t seed, double alpha) {
  prob::Rng data_rng(seed);
  hmm::Dataset<double> data = data::GenerateToyDataset(sigma, 150, 6, data_rng);
  LabelSequences gold = GoldLabels(data);

  prob::Rng init_rng(seed + 1);
  hmm::HmmModel<double> base = data::ToyRandomInit(init_rng);
  hmm::HmmModel<double> diver = base;

  hmm::EmOptions em;
  em.max_iters = 40;
  hmm::FitEm(&base, data, em);

  core::DiversifiedEmOptions opts;
  opts.alpha = alpha;
  opts.max_iters = 40;
  core::FitDiversifiedHmm(&diver, data, opts);

  ToyRun run;
  run.hmm_accuracy =
      eval::OneToOneAccuracy(hmm::DecodeDataset(base, data), gold, 5).accuracy;
  run.dhmm_accuracy =
      eval::OneToOneAccuracy(hmm::DecodeDataset(diver, data), gold, 5)
          .accuracy;
  run.hmm_diversity = eval::AveragePairwiseDiversity(base.a);
  run.dhmm_diversity = eval::AveragePairwiseDiversity(diver.a);
  return run;
}

TEST(ToyIntegrationTest, DiversityOrderingWithFlatEmissions) {
  // Fig. 3 shape at one flat-emission point: diversity(dHMM) > diversity(HMM)
  // on average across seeds.
  double dhmm_total = 0.0, hmm_total = 0.0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    ToyRun run = RunToyComparison(/*sigma=*/1.5, 100 + seed, /*alpha=*/1.0);
    dhmm_total += run.dhmm_diversity;
    hmm_total += run.hmm_diversity;
  }
  EXPECT_GT(dhmm_total, hmm_total);
}

TEST(ToyIntegrationTest, DhmmAccuracyCompetitiveAtLowSigma) {
  // With well-separated emissions both models label well and dHMM does not
  // hurt (the left side of Fig. 5).
  ToyRun run = RunToyComparison(/*sigma=*/0.025, 200, /*alpha=*/1.0);
  EXPECT_GT(run.dhmm_accuracy, 0.6);
  EXPECT_GT(run.dhmm_accuracy, run.hmm_accuracy - 0.1);
}

TEST(ToyIntegrationTest, DhmmIdentifiesMoreStatesWithFlatEmissions) {
  // Fig. 4/5 shape: with flat emissions the HMM concentrates mass on few
  // states; the dHMM keeps more states effective (averaged over seeds).
  int dhmm_states_total = 0, hmm_states_total = 0;
  const double threshold = 25.0;  // sigma_F scaled to 150*6=900 frames
  for (uint64_t seed = 0; seed < 3; ++seed) {
    prob::Rng data_rng(300 + seed);
    hmm::Dataset<double> data =
        data::GenerateToyDataset(2.825, 150, 6, data_rng);
    prob::Rng init_rng(400 + seed);
    hmm::HmmModel<double> base = data::ToyRandomInit(init_rng);
    hmm::HmmModel<double> diver = base;
    hmm::EmOptions em;
    em.max_iters = 30;
    hmm::FitEm(&base, data, em);
    core::DiversifiedEmOptions opts;
    opts.alpha = 1.0;
    opts.max_iters = 30;
    core::FitDiversifiedHmm(&diver, data, opts);
    hmm_states_total += eval::CountEffectiveStates(
        eval::StateHistogram(hmm::DecodeDataset(base, data), 5), threshold);
    dhmm_states_total += eval::CountEffectiveStates(
        eval::StateHistogram(hmm::DecodeDataset(diver, data), 5), threshold);
  }
  EXPECT_GE(dhmm_states_total, hmm_states_total);
}

// ------------------------------------------------------ PoS (Fig. 7 shape) ---

TEST(PosIntegrationTest, DiversityPriorHelpsUnsupervisedTagging) {
  data::PosCorpusOptions copts;
  copts.num_sentences = 250;
  copts.vocab_size = 400;
  copts.mean_length = 12.0;
  copts.max_length = 30;
  copts.seed = 21;
  data::PosCorpus corpus = GeneratePosCorpus(copts);
  LabelSequences gold;
  for (const auto& s : corpus.sentences) gold.push_back(s.labels);

  prob::Rng init_rng(22);
  auto make_init = [&]() {
    return hmm::HmmModel<int>(
        init_rng.DirichletSymmetric(data::kNumPosTags, 1.0),
        init_rng.RandomStochasticMatrix(data::kNumPosTags, data::kNumPosTags,
                                        1.0),
        std::make_unique<prob::CategoricalEmission>(
            prob::CategoricalEmission::RandomInit(
                data::kNumPosTags, copts.vocab_size, init_rng)));
  };
  hmm::HmmModel<int> base = make_init();
  hmm::HmmModel<int> diver = base;

  hmm::EmOptions em;
  em.max_iters = 25;
  hmm::FitEm(&base, corpus.sentences, em);

  core::DiversifiedEmOptions opts;
  opts.alpha = 100.0;  // the paper's best PoS setting
  opts.max_iters = 25;
  core::FitDiversifiedHmm(&diver, corpus.sentences, opts);

  double acc_base =
      eval::OneToOneAccuracy(hmm::DecodeDataset(base, corpus.sentences), gold,
                             data::kNumPosTags)
          .accuracy;
  double acc_diver =
      eval::OneToOneAccuracy(hmm::DecodeDataset(diver, corpus.sentences), gold,
                             data::kNumPosTags)
          .accuracy;

  // Fig. 7/8 shape: the prior increases the diversity objective it
  // regularizes (log det of the row kernel; plain EM leaves near-coincident
  // rows) without materially hurting accuracy.
  EXPECT_GT(dpp::LogDetNormalizedKernel(diver.a, 0.5),
            dpp::LogDetNormalizedKernel(base.a, 0.5));
  EXPECT_GT(acc_diver, acc_base - 0.03);
  EXPECT_GT(acc_diver, 1.5 / 15.0);  // far above chance
}

// --------------------------------------------------- OCR (Fig. 10 shape) ---

TEST(OcrIntegrationTest, SupervisedDiversifiedMatchesOrBeatsCounting) {
  data::OcrOptions oopts;
  oopts.num_words = 500;
  oopts.pixel_flip = 0.12;  // noisy enough that transitions matter
  oopts.seed = 31;
  data::OcrDataset ds = data::GenerateOcrDataset(oopts);

  prob::Rng rng(32);
  auto folds = eval::KFoldSplit(ds.words.size(), 5, rng);
  const auto& fold = folds[0];
  auto train = eval::Subset(ds.words, fold.train);
  auto test = eval::Subset(ds.words, fold.test);

  auto emission =
      [&]() -> std::unique_ptr<prob::EmissionModel<prob::BinaryObs>> {
    return std::make_unique<prob::BernoulliEmission>(
        linalg::Matrix(data::kNumLetters, data::kGlyphDims, 0.5));
  };

  core::SupervisedDiversifiedOptions plain;
  plain.alpha = 0.0;
  plain.counting.transition_pseudo_count = 0.1;
  plain.counting.initial_pseudo_count = 0.1;
  hmm::HmmModel<prob::BinaryObs> m0 = core::FitSupervisedDiversified(
      train, data::kNumLetters, emission(), plain);

  core::SupervisedDiversifiedOptions diverse = plain;
  diverse.alpha = 10.0;
  diverse.tether_weight = 1e5;
  hmm::HmmModel<prob::BinaryObs> m1 = core::FitSupervisedDiversified(
      train, data::kNumLetters, emission(), diverse);

  LabelSequences gold, pred0, pred1;
  for (const auto& seq : test) {
    gold.push_back(seq.labels);
    pred0.push_back(
        checked::Viterbi(m0.pi, m0.a, m0.emission->LogProbTable(seq.obs)).path);
    pred1.push_back(
        checked::Viterbi(m1.pi, m1.a, m1.emission->LogProbTable(seq.obs)).path);
  }
  double acc0 = eval::FrameAccuracy(pred0, gold);
  double acc1 = eval::FrameAccuracy(pred1, gold);
  EXPECT_GT(acc0, 0.55);            // the supervised HMM works at all
  EXPECT_GE(acc1, acc0 - 0.02);     // the prior does not hurt (Fig. 10)
}

// ------------------------------------------------- Model selection shape ---

TEST(AlphaSweepIntegrationTest, OverRegularizationTradesDataFitForDiversity) {
  // Fig. 7/10 right edge: a huge alpha trades data fit for diversity. At the
  // M-step level this is deterministic — for transition counts coming from a
  // near-static-mixture chain (near-identical rows), the alpha-dominated
  // update must sacrifice count log-likelihood relative to the ML update,
  // while gaining row diversity.
  hmm::HmmModel<int> truth = [&] {
    prob::Rng rng(41);
    return hmm::HmmModel<int>(
        rng.DirichletSymmetric(3, 2.0), rng.RandomStochasticMatrix(3, 3, 50.0),
        std::make_unique<prob::CategoricalEmission>(
            prob::CategoricalEmission::RandomInit(3, 8, rng)));
  }();
  prob::Rng rng(42);
  hmm::Dataset<int> data = hmm::SampleDataset(truth, 50, 10, rng);

  linalg::Matrix counts(3, 3);
  for (const auto& seq : data) {
    for (size_t t = 1; t < seq.length(); ++t) {
      counts(static_cast<size_t>(seq.labels[t - 1]),
             static_cast<size_t>(seq.labels[t])) += 1.0;
    }
  }

  core::TransitionUpdateOptions ml_opts;
  ml_opts.alpha = 0.0;
  core::TransitionUpdateResult ml = core::UpdateTransitions(
      linalg::Matrix(3, 3, 1.0 / 3.0), counts, ml_opts);

  core::TransitionUpdateOptions extreme_opts;
  extreme_opts.alpha = 5000.0;
  core::TransitionUpdateResult extreme = core::UpdateTransitions(
      ml.a, counts, extreme_opts);

  // Count log-likelihood (the alpha = 0 objective) degrades...
  dpp::KernelWorkspace ws;
  double fit_ml = core::TransitionObjective(ml.a, counts, ml_opts, &ws);
  double fit_extreme =
      core::TransitionObjective(extreme.a, counts, ml_opts, &ws);
  EXPECT_GT(fit_ml, fit_extreme + 1.0);
  // ...while diversity improves.
  EXPECT_GT(extreme.log_det, ml.log_det + 0.5);
  EXPECT_GT(eval::AveragePairwiseDiversity(extreme.a),
            eval::AveragePairwiseDiversity(ml.a));
}

}  // namespace
}  // namespace dhmm
