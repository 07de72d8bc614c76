#include "common.h"

#include <cstdio>
#include <memory>

#include "core/batch_mstep.h"
#include "dpp/logdet.h"
#include "hmm/inference.h"
#include "hmm/sampler.h"
#include "prob/categorical_emission.h"
#include "util/check.h"

namespace dhmm::bench {

void PrintHeader(const std::string& experiment_id, const std::string& title) {
  std::printf("==== %s — %s ====\n", experiment_id.c_str(), title.c_str());
  std::printf("(paper: \"Diversified Hidden Markov Models for Sequential "
              "Labeling\"; synthetic substitute data, see DESIGN.md §4)\n");
  if (BenchFastMode()) std::printf("[fast mode: reduced workload]\n");
  std::printf("\n");
}

// ------------------------------------------------------------------- Toy ---

ToyRun RunToy(double sigma, size_t num_sequences, size_t length, double alpha,
              uint64_t seed, int em_iters) {
  ToyRun run;
  prob::Rng data_rng(seed);
  run.data = data::GenerateToyDataset(sigma, num_sequences, length, data_rng);
  run.truth = data::ToyGroundTruthModel(sigma);
  for (const auto& seq : run.data) run.gold.push_back(seq.labels);

  prob::Rng init_rng(seed + 1);
  run.hmm = data::ToyRandomInit(init_rng);
  run.dhmm = run.hmm;  // identical starting point

  hmm::EmOptions em;
  em.max_iters = em_iters;
  hmm::FitEm(&run.hmm, run.data, em);

  core::DiversifiedEmOptions opts;
  opts.alpha = alpha;
  opts.max_iters = em_iters;
  core::FitDiversifiedHmm(&run.dhmm, run.data, opts);

  run.hmm_paths = hmm::DecodeDataset(run.hmm, run.data);
  run.dhmm_paths = hmm::DecodeDataset(run.dhmm, run.data);
  run.truth_paths = hmm::DecodeDataset(run.truth, run.data);
  return run;
}

// ------------------------------------------------------------------- PoS ---

data::PosCorpusOptions PosBenchCorpus() {
  data::PosCorpusOptions opts;
  opts.num_sentences = static_cast<size_t>(BenchScaled(1500, 250));
  opts.vocab_size = static_cast<size_t>(BenchScaled(1000, 400));
  opts.ambiguity = 0.10;
  opts.mean_length = 18.0;
  opts.max_length = 60;
  opts.seed = 7;
  return opts;
}

PosRun RunPos(const data::PosCorpus& corpus, double alpha, uint64_t seed,
              int em_iters, int restarts) {
  const size_t k = data::kNumPosTags;
  PosRun best;
  double best_objective = -std::numeric_limits<double>::infinity();
  for (int restart = 0; restart < restarts; ++restart) {
    prob::Rng init_rng(seed + 1000 * static_cast<uint64_t>(restart));
    hmm::HmmModel<int> model(
        init_rng.DirichletSymmetric(k, 1.0),
        init_rng.RandomStochasticMatrix(k, k, 1.0),
        std::make_unique<prob::CategoricalEmission>(
            prob::CategoricalEmission::RandomInit(k, corpus.vocab_size,
                                                  init_rng)));
    double objective;
    if (alpha == 0.0) {
      hmm::EmOptions em;
      em.max_iters = em_iters;
      hmm::EmResult r = hmm::FitEm(&model, corpus.sentences, em);
      objective = r.final_loglik;
    } else {
      core::DiversifiedEmOptions opts;
      opts.alpha = alpha;
      opts.max_iters = em_iters;
      core::DiversifiedFitResult r =
          core::FitDiversifiedHmm(&model, corpus.sentences, opts);
      objective = r.final_map_objective;
    }
    if (objective > best_objective) {
      best_objective = objective;
      best.model = std::move(model);
    }
  }

  eval::LabelSequences gold;
  for (const auto& s : corpus.sentences) gold.push_back(s.labels);
  best.decoded = hmm::DecodeDataset(best.model, corpus.sentences);
  best.accuracy_1to1 = eval::OneToOneAccuracy(best.decoded, gold, k).accuracy;
  best.accuracy_m2o = eval::ManyToOneAccuracy(best.decoded, gold, k).accuracy;
  best.avg_diversity = eval::AveragePairwiseDiversity(best.model.a);
  best.log_det = dpp::LogDetNormalizedKernel(best.model.a, 0.5);
  return best;
}

// ------------------------------------------------------------------- OCR ---

data::OcrOptions OcrBenchCorpus() {
  data::OcrOptions opts;
  opts.num_words = static_cast<size_t>(BenchScaled(3000, 400));
  opts.pixel_flip = 0.10;
  opts.max_jitter = 1;
  opts.seed = 7;
  return opts;
}

OcrRun RunOcrFold(const hmm::Dataset<prob::BinaryObs>& train,
                  const hmm::Dataset<prob::BinaryObs>& test, double alpha,
                  double tether_weight, core::TransitionUpdateWorkspace* ws) {
  OcrRun run;
  std::unique_ptr<prob::EmissionModel<prob::BinaryObs>> emission =
      std::make_unique<prob::BernoulliEmission>(
          linalg::Matrix(data::kNumLetters, data::kGlyphDims, 0.5));
  core::SupervisedDiversifiedOptions opts;
  opts.alpha = alpha;
  opts.tether_weight = tether_weight;
  opts.counting.transition_pseudo_count = 0.1;
  opts.counting.initial_pseudo_count = 0.1;
  run.model = core::FitSupervisedDiversified(train, data::kNumLetters,
                                             std::move(emission), opts,
                                             /*diagnostics=*/nullptr, ws);

  eval::LabelSequences gold, pred;
  hmm::InferenceWorkspace decode_ws;
  hmm::ViterbiResult decoded;
  for (const auto& seq : test) {
    gold.push_back(seq.labels);
    run.model.emission->LogProbTableInto(seq.obs, &decode_ws.log_b);
    const Status st = hmm::TryViterbi(run.model.pi, run.model.a,
                                      decode_ws.log_b, &decode_ws, &decoded);
    DHMM_CHECK_MSG(st.ok(), st.message().c_str());
    pred.push_back(decoded.path);
  }
  run.accuracy = eval::FrameAccuracy(pred, gold);
  return run;
}

std::vector<double> CrossValidatedOcr(const data::OcrDataset& ds,
                                      size_t num_folds, double alpha,
                                      double tether_weight, uint64_t seed,
                                      int num_threads) {
  prob::Rng rng(seed);
  auto folds = eval::KFoldSplit(ds.words.size(), num_folds, rng);
  core::BatchMStepDriver driver(core::BatchMStepOptions{num_threads});
  return eval::EvaluateFolds(
      &driver, folds.size(),
      [&](size_t f, core::TransitionUpdateWorkspace& ws) {
        auto train = eval::Subset(ds.words, folds[f].train);
        auto test = eval::Subset(ds.words, folds[f].test);
        return RunOcrFold(train, test, alpha, tether_weight, &ws).accuracy;
      });
}

}  // namespace dhmm::bench
