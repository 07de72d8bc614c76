// The benchmark's two workloads. Every workload both serves and fits, so
// every end-to-end metric is measured on each; they differ in which layers
// each half stresses:
//
//   pos_tagging     serves a 15-state PoS tagger over the wire (short
//                   sentences plus streaming session pushes: the decode is a
//                   few microseconds, so the round trip is mostly codec,
//                   poll loop, rings and dispatcher hand-offs), and fits the
//                   paper's unsupervised dHMM by MAP-EM at paper scale
//                   (3828 sentences, 10000 words): forward-backward E-steps
//                   plus the DPP M-step.
//   wire_k50_mixed  serves two 50-state Gaussian models, T = 100, Viterbi
//                   and posterior requests plus periodic store reloads (the
//                   inference kernels dominate the round trip), and refits
//                   its request pool by Baum-Welch at k = 50.
//
// Time split of --seconds: pos_tagging spends 35% in the open loop, 25% in
// the closed loop and 40% fitting restarts; wire_k50_mixed 45%, 35% and
// 20%.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "data/pos_corpus.h"
#include "eval/metrics.h"
#include "fit.h"
#include "hmm/sampler.h"
#include "hmm/trainer.h"
#include "prob/categorical_emission.h"
#include "prob/gaussian_emission.h"
#include "prob/rng.h"
#include "serve.h"
#include "serve_phases.h"

namespace perfbench {
namespace {

using dhmm::prob::Rng;

// Open-loop arrival rates, fixed per workload so every commit is measured
// at the same offered load: about a quarter of each workload's closed-loop
// saturation throughput on the 4-vCPU KVM guest the benchmark was
// calibrated on. At half of saturation, as first planned, the host's CPU
// steal pushed the single server CPU near saturation in some runs, and
// queueing then multiplied the round-trip tail tenfold.
constexpr double kPosOpenRate = 20000.0;
constexpr double kK50OpenRate = 600.0;

// How often set-up is repeated; setup_s is the median. wire_k50_mixed's
// set-up takes a third of a second, so it is repeated more often than
// pos_tagging's, which generates the paper-scale corpus.
constexpr int kPosSetupRepeats = 3;
constexpr int kK50SetupRepeats = 9;

// The order in which each connection cycles through its templates.
constexpr size_t kOrderLength = 4096;

// Frames per kSessionPush request.
constexpr size_t kPushFrames = 4;

/// Times `build` `repeats` times (tearing the previous result down outside
/// the timed region), keeps the last result, and reports setup_s.
template <typename T, typename Build>
std::unique_ptr<T> TimedSetup(const Args& args, int repeats, Build build,
                              Result* res) {
  std::vector<double> times;
  std::unique_ptr<T> kept;
  if (args.trace) repeats = 1;
  for (int i = 0; i < repeats; ++i) {
    kept.reset();
    const Clock::time_point t0 = Clock::now();
    kept = build(args.workdir + "/setup" + std::to_string(i));
    times.push_back(SecondsSince(t0));
  }
  const double median = Median(&times);
  res->Note(Fmt("setup: median %.4f s over %.0f repeats", median,
                static_cast<double>(times.size())));
  if (!args.trace) res->Add("setup_s", median, "s");
  return kept;
}

dhmm::core::DiversifiedEmOptions FitOptions(int iterations, double alpha) {
  dhmm::core::DiversifiedEmOptions o;
  o.alpha = alpha;
  o.rho = 0.5;
  o.max_iters = iterations;
  o.tol = 0.0;  // a fixed iteration count: the work per fit is constant
  o.num_threads = 2;
  return o;
}

/// The bench::RunPos initialisation of restart r.
hmm::HmmModel<int> PosInit(uint64_t seed, int r, size_t vocab) {
  const size_t k = dhmm::data::kNumPosTags;
  Rng rng(seed + 1000 * static_cast<uint64_t>(r));
  return hmm::HmmModel<int>(
      rng.DirichletSymmetric(k, 1.0), rng.RandomStochasticMatrix(k, k, 1.0),
      std::make_unique<dhmm::prob::CategoricalEmission>(
          dhmm::prob::CategoricalEmission::RandomInit(k, vocab, rng)));
}

/// A seeded cyclic send order over `candidates`.
std::vector<uint32_t> RandomOrder(const std::vector<uint32_t>& candidates,
                                  Rng* rng) {
  std::vector<uint32_t> order(kOrderLength);
  for (uint32_t& o : order) {
    o = candidates[rng->UniformInt(candidates.size())];
  }
  return order;
}

/// Adds one stateless Viterbi template per sentence; returns their indices.
template <typename Obs>
std::vector<uint32_t> AddViterbiTemplates(
    const hmm::Dataset<Obs>& sentences,
    std::vector<RequestTemplate<Obs>>* templates) {
  std::vector<uint32_t> ids;
  for (const hmm::Sequence<Obs>& s : sentences) {
    RequestTemplate<Obs> t;
    t.obs = s.obs;
    t.gold = s.labels;
    ids.push_back(static_cast<uint32_t>(templates->size()));
    templates->push_back(std::move(t));
  }
  return ids;
}

/// The serving half of a workload, from set-up to metrics.
template <typename Obs>
void ServeAndReport(const Args& args, WireEnv<Obs>* env, double open_s,
                    double closed_s, Result* res) {
  const ServePhaseData phases =
      RunServePhases(args, env, open_s, closed_s, res);
  if (args.trace) {
    TraceServeLayers(env, args.short_mode ? 20 : 200, args.short_mode ? 1 : 3,
                     phases, res);
  }
  env->ReleaseClientCpu();
}

// ---------------------------------------------------------- pos_tagging --

struct PosTagging {
  std::unique_ptr<WireEnv<int>> env;
  dhmm::data::PosCorpus paper;  // the training corpus
};

}  // namespace

Result RunPosTagging(const Args& args) {
  Result res;
  const bool small = args.short_mode;
  const size_t pool = small ? 32 : 512;
  const size_t stream = small ? 16 : 256;
  auto build = [&](const std::string& dir) {
    auto w = std::make_unique<PosTagging>();
    dhmm::data::PosCorpusOptions paper;
    paper.num_sentences = small ? 200 : 3828;
    paper.vocab_size = small ? 1000 : 10000;
    paper.mean_length = 24.0;
    paper.seed = args.seed;
    w->paper = dhmm::data::GeneratePosCorpus(paper);

    dhmm::data::PosCorpusOptions o;
    o.num_sentences = pool + stream;
    o.vocab_size = 2000;
    o.mean_length = 18.0;
    o.seed = args.seed;
    const dhmm::data::PosCorpus corpus = dhmm::data::GeneratePosCorpus(o);
    ServeSpec<int> spec;
    spec.models.push_back(
        std::make_shared<const hmm::HmmModel<int>>(corpus.ground_truth));
    Rng rng(args.seed * 31 + 7);
    const hmm::Dataset<int> requests(
        corpus.sentences.begin(),
        corpus.sentences.begin() + static_cast<long>(pool));
    spec.order[0] =
        RandomOrder(AddViterbiTemplates(requests, &spec.templates), &rng);
    // One continuous token stream cut into kPushFrames-frame pushes.
    std::vector<int> tokens;
    for (size_t s = pool; s < corpus.sentences.size(); ++s) {
      const std::vector<int>& obs = corpus.sentences[s].obs;
      tokens.insert(tokens.end(), obs.begin(), obs.end());
    }
    for (size_t i = 0; i + kPushFrames <= tokens.size(); i += kPushFrames) {
      RequestTemplate<int> t;
      t.kind = serve::DecodeKind::kSessionPush;
      t.obs.assign(tokens.begin() + static_cast<long>(i),
                   tokens.begin() + static_cast<long>(i + kPushFrames));
      spec.order[1].push_back(static_cast<uint32_t>(spec.templates.size()));
      spec.templates.push_back(std::move(t));
    }
    spec.sessions = true;
    spec.open_rate = small ? 2000.0 : kPosOpenRate;
    spec.window = 64;
    spec.rounds = small ? 2 : 12;
    w->env = std::make_unique<WireEnv<int>>(std::move(spec), dir,
                                            small ? 20 : 500);
    return w;
  };
  const std::unique_ptr<PosTagging> w =
      TimedSetup<PosTagging>(args, kPosSetupRepeats, build, &res);
  const dhmm::data::PosCorpus& paper = w->paper;
  res.Note(Fmt("training corpus: %.0f sentences, %.0f tokens",
               static_cast<double>(paper.sentences.size()),
               static_cast<double>(hmm::TotalFrames(paper.sentences))));

  ServeAndReport(args, w->env.get(), 0.35 * args.seconds,
                 0.25 * args.seconds, &res);

  FitSpec<int> fit;
  fit.data = &paper.sentences;
  const uint64_t seed = args.seed;
  const size_t vocab = paper.vocab_size;
  fit.init = [seed, vocab](int r) { return PosInit(seed, r, vocab); };
  fit.options = FitOptions(small ? 3 : 30, /*alpha=*/1.0);
  fit.min_restarts = small ? 1 : 5;
  if (args.trace) {
    TraceFit(fit, &res);
  } else {
    FitOutcome<int> out = RunFits(fit, 0.4 * args.seconds, &res);
    res.Add("fit_s", Quantile(&out.fit_s, kQuietLatencyQuantile), "s");
    dhmm::eval::LabelSequences gold;
    for (const hmm::Sequence<int>& s : paper.sentences) {
      gold.push_back(s.labels);
    }
    const double acc =
        dhmm::eval::ManyToOneAccuracy(
            hmm::DecodeDataset(out.best, paper.sentences), gold,
            dhmm::data::kNumPosTags)
            .accuracy;
    res.Add("tag_acc", acc, "fraction");
  }
  return res;
}

// ------------------------------------------------------- wire_k50_mixed --

namespace {

constexpr size_t kK50States = 50;

// A 50-state Gaussian model with unit-spaced means; `variant` perturbs
// the chain so the two served models differ.
hmm::HmmModel<double> K50Model(uint64_t seed, int variant) {
  Rng rng(seed * 1009 + static_cast<uint64_t>(variant));
  dhmm::linalg::Vector mu(kK50States);
  dhmm::linalg::Vector sigma(kK50States, 0.75);
  for (size_t i = 0; i < kK50States; ++i) mu[i] = static_cast<double>(i);
  return hmm::HmmModel<double>(
      rng.DirichletSymmetric(kK50States, 2.0),
      rng.RandomStochasticMatrix(kK50States, kK50States, 2.0),
      std::make_unique<dhmm::prob::GaussianEmission>(mu, sigma));
}

struct K50Wire {
  std::unique_ptr<WireEnv<double>> env;
  hmm::Dataset<double> fit_data;  // the request pool
};

}  // namespace

Result RunWireK50Mixed(const Args& args) {
  Result res;
  const bool small = args.short_mode;
  const size_t per_model = small ? 4 : 64;
  constexpr size_t kFrames = 100;
  auto build = [&](const std::string& dir) {
    auto w = std::make_unique<K50Wire>();
    ServeSpec<double> spec;
    Rng rng(args.seed * 17 + 3);
    for (int m = 0; m < 2; ++m) {
      auto model = std::make_shared<const hmm::HmmModel<double>>(
          K50Model(args.seed, m));
      for (size_t s = 0; s < per_model; ++s) {
        w->fit_data.push_back(hmm::SampleSequence(*model, kFrames, rng));
      }
      spec.models.push_back(std::move(model));
    }
    // Every pool sequence under both models and both request kinds.
    std::vector<uint32_t> ids[2][2];  // [model][kind]
    for (const hmm::Sequence<double>& s : w->fit_data) {
      for (int m = 0; m < 2; ++m) {
        for (int k = 0; k < 2; ++k) {
          RequestTemplate<double> t;
          t.model = static_cast<serve::ModelId>(m + 1);
          t.kind = k == 0 ? serve::DecodeKind::kViterbi
                          : serve::DecodeKind::kPosterior;
          t.obs = s.obs;
          t.gold = s.labels;
          ids[m][k].push_back(static_cast<uint32_t>(spec.templates.size()));
          spec.templates.push_back(std::move(t));
        }
      }
    }
    // Each connection interleaves both models in seeded order, 75%
    // Viterbi and 25% posterior.
    for (std::vector<uint32_t>& order : spec.order) {
      order.resize(kOrderLength);
      for (uint32_t& o : order) {
        const size_t m = rng.UniformInt(2);
        const size_t k = rng.Uniform() < 0.75 ? 0 : 1;
        o = ids[m][k][rng.UniformInt(ids[m][k].size())];
      }
    }
    spec.open_rate = small ? 500.0 : kK50OpenRate;
    spec.window = 8;
    spec.rounds = small ? 2 : 6;
    spec.reload_period_ms = 100;
    w->env = std::make_unique<WireEnv<double>>(std::move(spec), dir,
                                               small ? 10 : 200);
    return w;
  };
  std::unique_ptr<K50Wire> w =
      TimedSetup<K50Wire>(args, kK50SetupRepeats, build, &res);

  ServeAndReport(args, w->env.get(), 0.45 * args.seconds,
                 0.35 * args.seconds, &res);
  FitSpec<double> fit;
  fit.data = &w->fit_data;
  const uint64_t seed = args.seed;
  // Random chains; means jittered around the unit grid the data covers,
  // so no state starts without support (which would leave it with zero
  // responsibility and a non-finite M-step).
  fit.init = [seed](int r) {
    Rng rng(seed + 1000 * static_cast<uint64_t>(r));
    dhmm::linalg::Vector mu(kK50States);
    dhmm::linalg::Vector sigma(kK50States, 1.0);
    for (size_t i = 0; i < kK50States; ++i) {
      mu[i] = static_cast<double>(i) + rng.Uniform(-0.5, 0.5);
    }
    return hmm::HmmModel<double>(
        rng.DirichletSymmetric(kK50States, 1.0),
        rng.RandomStochasticMatrix(kK50States, kK50States, 1.0),
        std::make_unique<dhmm::prob::GaussianEmission>(mu, sigma));
  };
  // Baum-Welch (alpha = 0): the refit's cost is the k = 50 forward-backward
  // E-step, a fixed amount of work per iteration, instead of a
  // data-dependent count of projected-gradient steps.
  fit.options = FitOptions(small ? 2 : 10, /*alpha=*/0.0);
  if (args.trace) {
    TraceFit(fit, &res);
  } else {
    FitOutcome<double> out = RunFits(fit, 0.2 * args.seconds, &res);
    res.Add("fit_s", Quantile(&out.fit_s, kQuietLatencyQuantile), "s");
    res.Add("tag_acc",
            ServedTagAccuracy(w->env->spec().templates, kK50States),
            "fraction");
  }
  return res;
}

}  // namespace perfbench
