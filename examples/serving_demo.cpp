// The serve layer end to end: train a model, stand up a DecodeService,
// submit a burst of mixed decode requests, hot-swap to a better checkpoint
// via the atomic save + reload path while the service keeps running, and
// label a live stream with a fixed-lag SessionManager session.
//
// Flags: --requests=<int> (default 64)  --threads=<int> (default 2)
//        --lag=<int> (default 4)  --path=<file> (checkpoint path)
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/dhmm_trainer.h"
#include "data/toy.h"
#include "hmm/sampler.h"
#include "hmm/trainer.h"
#include "obs/metrics.h"
#include "serve/decode_service.h"
#include "serve/session_manager.h"
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
  const int requests_flag = flags.GetInt("requests", 64);
  const int threads = flags.GetInt("threads", 2);
  const int lag_flag = flags.GetInt("lag", 4);
  const std::string path =
      flags.GetString("path", "/tmp/dhmm_serving_demo.dhmms");
  // Misspelled flags fail loudly instead of being silently ignored.
  st = flags.VerifyAllRead();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  // Range-check before casting so negative values cannot wrap to huge
  // size_t counts.
  if (requests_flag < 3 || requests_flag > 1000000) {
    std::fprintf(stderr,
                 "--requests must be in [3, 1000000] (one per kind)\n");
    return 1;
  }
  if (lag_flag < 0 || lag_flag > 1000000) {
    std::fprintf(stderr, "--lag must be in [0, 1000000]\n");
    return 1;
  }
  const size_t num_requests = static_cast<size_t>(requests_flag);
  const size_t lag = static_cast<size_t>(lag_flag);

  // 1. A briefly-trained checkpoint v1 and a longer-trained v2.
  prob::Rng data_rng(1);
  hmm::Dataset<double> data = data::GenerateToyDataset(0.5, 120, 8, data_rng);
  prob::Rng init_rng(2);
  hmm::HmmModel<double> trained = data::ToyRandomInit(init_rng);
  core::DiversifiedEmOptions opts;
  opts.alpha = 1.0;
  opts.max_iters = 3;
  core::FitDiversifiedHmm(&trained, data, opts);
  auto v1 = std::make_shared<const hmm::HmmModel<double>>(trained);
  opts.max_iters = 25;
  core::FitDiversifiedHmm(&trained, data, opts);
  st = store::WriteModel(trained, 1, path);  // atomic: write tmp, rename
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // 2. Serve a burst of mixed requests on checkpoint v1.
  prob::Rng req_rng(3);
  hmm::Dataset<double> requests =
      hmm::SampleDataset(trained, num_requests, 16, req_rng);
  serve::DecodeServiceOptions sopts;
  sopts.num_threads = threads;
  sopts.max_batch = 16;
  serve::DecodeService<double> service(v1, sopts);
  // The service counts into the process-wide registry; this burst's share
  // is the growth of its counters.
  obs::Counter* const served =
      obs::Registry::Global().GetCounter("decode.requests");
  obs::Counter* const batches =
      obs::Registry::Global().GetCounter("decode.batches");
  const uint64_t served_before = served->Value();
  const uint64_t batches_before = batches->Value();

  const serve::DecodeKind kinds[] = {serve::DecodeKind::kViterbi,
                                     serve::DecodeKind::kPosterior,
                                     serve::DecodeKind::kLogLikelihood};
  std::vector<serve::DecodeFuture<double>> futures;
  for (size_t i = 0; i < requests.size(); ++i) {
    futures.push_back(service.Submit(kinds[i % 3], requests[i].obs));
  }
  double total_ll = 0.0;
  size_t ll_count = 0;
  for (auto& f : futures) {
    const serve::DecodeResponse& r = f.Wait();
    if (r.kind == serve::DecodeKind::kLogLikelihood) {
      total_ll += r.value;
      ++ll_count;
    }
  }
  futures.clear();
  const double avg_v1 = total_ll / static_cast<double>(ll_count);
  const uint64_t n_served = served->Value() - served_before;
  const uint64_t n_batches = batches->Value() - batches_before;
  std::printf("v%llu served %llu requests in %llu batches "
              "(mean %.2f per batch), mean loglik %.3f\n",
              static_cast<unsigned long long>(service.model_version()),
              static_cast<unsigned long long>(n_served),
              static_cast<unsigned long long>(n_batches),
              static_cast<double>(n_served) / static_cast<double>(n_batches),
              avg_v1);

  // 3. Hot-swap to checkpoint v2 from disk; the service never stops.
  st = service.ReloadModel(path);
  if (!st.ok()) {
    std::fprintf(stderr, "reload failed: %s\n", st.ToString().c_str());
    return 1;
  }
  double total_ll_v2 = 0.0;
  for (size_t i = 0; i < requests.size(); ++i) {
    futures.push_back(
        service.Submit(serve::DecodeKind::kLogLikelihood, requests[i].obs));
  }
  for (auto& f : futures) total_ll_v2 += f.Wait().value;
  futures.clear();
  const double avg_v2 = total_ll_v2 / static_cast<double>(requests.size());
  std::printf("v%llu (hot-swapped from %s) mean loglik %.3f "
              "(better fit: %s)\n",
              static_cast<unsigned long long>(service.model_version()),
              path.c_str(), avg_v2, avg_v2 > avg_v1 ? "yes" : "no");

  // 4. Online labeling: fixed-lag smoothing over a live stream.
  serve::SessionManagerOptions stream_opts;
  stream_opts.lag = lag;
  serve::SessionManager<double> sessions(service.ModelSnapshot(),
                                         stream_opts);
  const serve::SessionHandle stream = sessions.CreateSession().value();
  const std::vector<double>& live = requests[0].obs;
  std::printf("streaming %zu frames at lag %zu:", live.size(), lag);
  std::vector<int> labels;
  for (double y : live) {
    int label = -1;
    st = sessions.Push(stream, y, &label);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    if (label >= 0) labels.push_back(label);
  }
  st = sessions.Finish(stream, &labels);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  for (int label : labels) std::printf(" %d", label);
  std::printf("\n  prefix loglik %.3f over %llu frames, %zu labels\n",
              sessions.LogLikelihood(stream).value(),
              static_cast<unsigned long long>(
                  sessions.FramesPushed(stream).value()),
              labels.size());
  return 0;
}
