// The binary model store end to end: train a model, publish two versions
// through a dual-slot store, hot-reload a serving DecodeService from it,
// then corrupt the active slot and show the failsafe — open falls back to
// the surviving slot and serving never misses a beat.
//
// Flags: --dir=<directory>. Without it the demo publishes into a fresh
// temporary directory and removes it at exit, so every run starts the
// store's sequence at 1. An explicit directory continues the sequence of
// the store it holds and is never deleted.
#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/dhmm_trainer.h"
#include "data/toy.h"
#include "hmm/sampler.h"
#include "hmm/trainer.h"
#include "serve/decode_service.h"
#include "store/dual_slot.h"
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
  std::string dir = flags.GetString("dir", "");
  st = flags.VerifyAllRead();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  struct RemoveAtExit {
    std::string path;  // empty: the caller's directory, kept
    ~RemoveAtExit() {
      std::error_code ec;
      if (!path.empty()) std::filesystem::remove_all(path, ec);
    }
  } fresh_dir;
  if (dir.empty()) {
    dir = (std::filesystem::temp_directory_path() / "dhmm_store_demo.XXXXXX")
              .string();
    if (::mkdtemp(dir.data()) == nullptr) {
      std::perror("mkdtemp");
      return 1;
    }
    fresh_dir.path = dir;
  }

  // 1. Train two model versions (v2 = v1 plus extra EM iterations).
  prob::Rng data_rng(1);
  hmm::Dataset<double> data = data::GenerateToyDataset(0.5, 80, 6, data_rng);
  prob::Rng init_rng(2);
  hmm::HmmModel<double> model = data::ToyRandomInit(init_rng);
  hmm::EmOptions em;
  em.max_iters = 5;
  FitEm(&model, data, em);
  hmm::HmmModel<double> v1 = model;
  FitEm(&model, data, em);

  // 2. Publish both into the dual-slot store. Each publish writes the
  // inactive slot atomically, then flips the manifest. A store given with
  // --dir continues its sequence, so print what the store reports.
  auto slots = store::DualSlotStore::Open(dir);
  if (!slots.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 slots.status().ToString().c_str());
    return 1;
  }
  if (!slots.value().Publish(v1).ok()) {
    std::fprintf(stderr, "publish failed\n");
    return 1;
  }
  const unsigned long long seq_v1 = slots.value().sequence_number();
  if (!slots.value().Publish(model).ok()) {
    std::fprintf(stderr, "publish failed\n");
    return 1;
  }
  const unsigned long long seq_v2 = slots.value().sequence_number();
  std::printf("published seq %llu and %llu; active slot file: %s\n", seq_v1,
              seq_v2, slots.value().active_path().c_str());

  // 3. Serve from the store: ReloadModel routes a directory path to the
  // dual-slot store.
  serve::DecodeService<double> service(
      std::make_shared<const hmm::HmmModel<double>>(v1));
  st = service.ReloadModel(dir);
  std::printf("reload from store: %s (model version %llu)\n",
              st.ok() ? "ok" : st.ToString().c_str(),
              static_cast<unsigned long long>(service.model_version()));
  auto before = service.Submit(serve::DecodeKind::kPosterior, data[0].obs);
  const double value_before = before.Wait().value;
  before.Release();
  std::printf("decode under seq-%llu model: log-lik %.6f\n", seq_v2,
              value_before);

  // 4. Corrupt the active slot on disk — flip one byte.
  {
    const std::string active = slots.value().active_path();
    std::fstream f(active,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    f.seekg(size - 1);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(size - 1);
    f.write(&byte, 1);
    std::printf("corrupted one byte of %s\n", active.c_str());
  }

  // 5. Failsafe: a fresh open detects the corruption (CRC mismatch) and
  // falls back to the surviving slot; the service keeps serving either way.
  st = service.ReloadModel(dir);
  std::printf("reload after corruption: %s\n",
              st.ok() ? "ok (fell back to surviving slot)"
                      : st.ToString().c_str());
  auto reopened = store::DualSlotStore::Open(dir);
  if (reopened.ok()) {
    std::printf("store now serves seq %llu (was %llu before corruption)\n",
                static_cast<unsigned long long>(
                    reopened.value().sequence_number()),
                seq_v2);
  }
  auto after = service.Submit(serve::DecodeKind::kPosterior, data[0].obs);
  std::printf("decode still works: log-lik %.6f\n", after.Wait().value);
  after.Release();
  return 0;
}
