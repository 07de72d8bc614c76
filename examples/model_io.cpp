// Model persistence: train a dHMM, save it to disk, load it back, verify the
// round trip preserves the model exactly, and resume training from the
// loaded checkpoint.
//
// Flags: --path=<file> (default /tmp/dhmm_model.dhmms)
#include <cstdio>
#include <memory>

#include "core/dhmm_trainer.h"
#include "data/toy.h"
#include "hmm/sampler.h"
#include "hmm/trainer.h"
#include "store/model_codec.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace dhmm;
  FlagParser flags;
  Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const std::string path = flags.GetString("path", "/tmp/dhmm_model.dhmms");
  st = flags.VerifyAllRead();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  // 1. Train briefly.
  prob::Rng data_rng(1);
  hmm::Dataset<double> data =
      data::GenerateToyDataset(0.5, 100, 6, data_rng);
  prob::Rng init_rng(2);
  hmm::HmmModel<double> model = data::ToyRandomInit(init_rng);
  core::DiversifiedEmOptions opts;
  opts.alpha = 1.0;
  opts.max_iters = 10;
  core::FitDiversifiedHmm(&model, data, opts);
  double ll_before = hmm::DatasetLogLikelihood(model, data);
  std::printf("trained 10 iterations, loglik %.4f\n", ll_before);

  // 2. Save.
  st = store::WriteModel(model, 1, path);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("saved to %s\n", path.c_str());

  // 3. Load and verify.
  Result<hmm::HmmModel<double>> loaded =
      store::ReadModelFromFile<double>(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  double ll_after = hmm::DatasetLogLikelihood(loaded.value(), data);
  std::printf("loaded: loglik %.4f (delta %.2e)\n", ll_after,
              ll_after - ll_before);

  // 4. Resume training from the checkpoint.
  hmm::HmmModel<double> resumed = std::move(loaded).value();
  opts.max_iters = 20;
  core::DiversifiedFitResult more =
      core::FitDiversifiedHmm(&resumed, data, opts);
  std::printf("resumed %d more iterations, loglik %.4f -> %.4f\n",
              more.iterations, ll_after,
              hmm::DatasetLogLikelihood(resumed, data));
  return 0;
}
