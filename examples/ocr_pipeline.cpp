// Supervised OCR end to end (paper §4.2.2): render a corpus of noisy 16x8
// glyph words, train the supervised diversified HMM (counting + tethered
// DPP refinement of the letter-transition matrix), decode held-out words,
// and show some decodes with their glyph images.
//
// Flags: --alpha=<double> (default 10)  --tether=<double> (default 1e5)
//        --words=<int>  --noise=<double>
#include <cstdio>
#include <memory>

#include "core/supervised_diversified.h"
#include "data/ocr.h"
#include "eval/metrics.h"
#include "hmm/inference.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace dhmm;
  FlagParser flags;
  Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  // 1. Dataset: noisy renderings of English words.
  data::OcrOptions oopts;
  oopts.num_words = static_cast<size_t>(flags.GetInt("words", 1500));
  oopts.pixel_flip = flags.GetDouble("noise", 0.10);
  oopts.seed = 5;
  data::OcrDataset ds = GenerateOcrDataset(oopts);

  // 90/10 train/test split.
  hmm::Dataset<prob::BinaryObs> train, test;
  for (size_t i = 0; i < ds.words.size(); ++i) {
    (i % 10 == 0 ? test : train).push_back(ds.words[i]);
  }
  std::printf("train %zu words, test %zu words, noise %.2f\n", train.size(),
              test.size(), oopts.pixel_flip);

  // 2. Supervised diversified training (Eq. 8).
  std::unique_ptr<prob::EmissionModel<prob::BinaryObs>> emission =
      std::make_unique<prob::BernoulliEmission>(
          linalg::Matrix(data::kNumLetters, data::kGlyphDims, 0.5));
  core::SupervisedDiversifiedOptions opts;
  opts.alpha = flags.GetDouble("alpha", 10.0);
  opts.tether_weight = flags.GetDouble("tether", 1e5);
  opts.counting.transition_pseudo_count = 0.1;
  opts.counting.initial_pseudo_count = 0.1;
  st = flags.VerifyAllRead();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  core::SupervisedDiversifiedDiagnostics diag;
  hmm::HmmModel<prob::BinaryObs> model = core::FitSupervisedDiversified(
      train, data::kNumLetters, std::move(emission), opts, &diag);
  std::printf("A refined: log det K~ %.4f -> %.4f, drift ||A - A0|| = %.5f\n",
              diag.log_det_a0, diag.log_det_a, diag.drift);

  // 3. Decode test words; per-letter and per-word accuracy.
  eval::LabelSequences gold, pred;
  size_t words_exact = 0;
  hmm::InferenceWorkspace ws;
  hmm::ViterbiResult decoded;
  for (const auto& seq : test) {
    model.emission->LogProbTableInto(seq.obs, &ws.log_b);
    st = hmm::TryViterbi(model.pi, model.a, ws.log_b, &ws, &decoded);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    words_exact += decoded.path == seq.labels;
    pred.push_back(decoded.path);
    gold.push_back(seq.labels);
  }
  std::printf("letter accuracy: %.4f   exact-word rate: %.4f\n",
              eval::FrameAccuracy(pred, gold),
              static_cast<double>(words_exact) / test.size());

  // 4. Show a couple of decodes with their glyphs.
  for (size_t i = 0; i < 2 && i < test.size(); ++i) {
    std::printf("\ntruth: %-14s decoded: %s\n",
                data::LabelsToWord(test[i].labels).c_str(),
                data::LabelsToWord(pred[i]).c_str());
    std::printf("%s", data::RenderWordAscii(test[i].obs).c_str());
  }
  return 0;
}
