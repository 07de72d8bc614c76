#include "data/pos_corpus.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "hmm/sampler.h"
#include "util/check.h"

namespace dhmm::data {

namespace {

// Tag order used throughout (0-based); mirrors Table 2's merged classes.
enum Tag : size_t {
  kNoun = 0, kPunct, kNum, kAdj, kModal, kVerb, kDet, kPrep, kFw, kAdv,
  kIntj, kPron, kPos, kEx, kRp,
};

// Hand-specified next-tag preferences (sparse linguistic structure). Each
// inner list is {tag, weight}; weights within a row sum to 1.
const std::vector<std::vector<std::pair<size_t, double>>>& Preferences() {
  static const std::vector<std::vector<std::pair<size_t, double>>> prefs = {
      /*NOUN*/ {{kVerb, .25}, {kPunct, .22}, {kPrep, .22}, {kNoun, .18},
                {kPos, .07}, {kAdv, .06}},
      /*PUNCT*/ {{kNoun, .25}, {kDet, .20}, {kPrep, .15}, {kPron, .12},
                 {kVerb, .08}, {kAdj, .07}, {kAdv, .06}, {kNum, .07}},
      /*NUM*/ {{kNoun, .50}, {kPunct, .20}, {kPrep, .15}, {kNum, .15}},
      /*ADJ*/ {{kNoun, .60}, {kAdj, .12}, {kPunct, .10}, {kPrep, .10},
               {kVerb, .08}},
      /*MODAL*/ {{kVerb, .70}, {kAdv, .15}, {kPron, .05}, {kDet, .05},
                 {kNoun, .05}},
      /*VERB*/ {{kDet, .25}, {kPrep, .20}, {kNoun, .15}, {kVerb, .12},
                {kAdv, .10}, {kAdj, .08}, {kPunct, .10}},
      /*DET*/ {{kNoun, .62}, {kAdj, .25}, {kNum, .08}, {kAdv, .05}},
      /*PREP*/ {{kDet, .35}, {kNoun, .30}, {kNum, .10}, {kAdj, .10},
                {kPron, .08}, {kPunct, .07}},
      /*FW*/ {{kNoun, .40}, {kPunct, .30}, {kPrep, .30}},
      /*ADV*/ {{kVerb, .30}, {kAdj, .20}, {kPunct, .18}, {kPrep, .12},
               {kAdv, .10}, {kDet, .10}},
      /*INTJ*/ {{kPunct, .60}, {kNoun, .20}, {kPron, .20}},
      /*PRON*/ {{kVerb, .45}, {kModal, .12}, {kNoun, .25}, {kPunct, .10},
                {kAdv, .08}},
      /*POS*/ {{kNoun, .70}, {kAdj, .20}, {kNum, .10}},
      /*EX*/ {{kVerb, .80}, {kModal, .20}},
      /*RP*/ {{kDet, .30}, {kNoun, .25}, {kPrep, .25}, {kPunct, .20}},
  };
  return prefs;
}

// Sentence-initial preferences.
const std::vector<std::pair<size_t, double>>& InitialPreferences() {
  static const std::vector<std::pair<size_t, double>> prefs = {
      {kNoun, .28}, {kDet, .23}, {kPrep, .12}, {kPron, .10}, {kAdv, .08},
      {kAdj, .05},  {kVerb, .04}, {kNum, .04}, {kPunct, .03}, {kModal, .02},
      {kEx, .01},
  };
  return prefs;
}

linalg::Vector PaperFrequencyDistribution() {
  const auto& table = PaperPosTagTable();
  linalg::Vector freq(kNumPosTags);
  for (const auto& row : table) {
    freq[static_cast<size_t>(row.index - 1)] =
        static_cast<double>(row.paper_frequency);
  }
  freq.NormalizeToSimplex();
  return freq;
}

// Zipf weights over m ranks with the given exponent.
linalg::Vector ZipfWeights(size_t m, double exponent) {
  DHMM_CHECK(m > 0);
  linalg::Vector w(m);
  for (size_t r = 0; r < m; ++r) {
    w[r] = 1.0 / std::pow(static_cast<double>(r + 1), exponent);
  }
  w.NormalizeToSimplex();
  return w;
}

size_t SampleLength(const PosCorpusOptions& options, prob::Rng& rng) {
  // Geometric tail above the minimum length, clamped to the paper's range.
  double mean_extra = std::max(
      1.0, options.mean_length - static_cast<double>(options.min_length));
  double p = 1.0 / mean_extra;
  double u = rng.Uniform();
  size_t extra =
      static_cast<size_t>(std::floor(std::log1p(-u) / std::log1p(-p)));
  return std::min(options.max_length, options.min_length + extra);
}

}  // namespace

const std::vector<PosTagInfo>& PaperPosTagTable() {
  static const std::vector<PosTagInfo> table = {
      {1, "NOUN", "NNP NNPS NNS NN SYM", 28866},
      {2, "PUNCT", ", -- '' : . $ ( ) LS #", 11727},
      {3, "NUM", "CD", 3546},
      {4, "ADJ", "JJS JJ JJR", 6397},
      {5, "MODAL", "MD", 927},
      {6, "VERB", "VBZ VB VBG VBD VBN VBP VBG|NN", 12637},
      {7, "DET", "DT PDT", 8192},
      {8, "PREP", "IN CC TO", 14403},
      {9, "FW", "FW", 4},
      {10, "ADV", "WRB RB RBS RBR", 3178},
      {11, "INTJ", "UH", 3},
      {12, "PRON", "WP WP$ PRP PRP$", 2737},
      {13, "POS", "POS", 824},
      {14, "EX", "EX", 88},
      {15, "RP", "RP", 107},
  };
  return table;
}

hmm::HmmModel<int> BuildPosGroundTruth(const PosCorpusOptions& options) {
  const size_t k = kNumPosTags;
  const linalg::Vector freq = PaperFrequencyDistribution();

  // Transition matrix: 0.55 linguistic preference + 0.45 frequency profile.
  // The frequency component keeps the chain ergodic and pins the stationary
  // distribution near the Table-2 histogram.
  constexpr double kStructWeight = 0.55;
  linalg::Matrix a(k, k);
  const auto& prefs = Preferences();
  DHMM_CHECK(prefs.size() == k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      a(i, j) = (1.0 - kStructWeight) * freq[j];
    }
    for (const auto& [j, w] : prefs[i]) a(i, j) += kStructWeight * w;
  }
  a.NormalizeRows();

  // Initial distribution: 0.7 sentence-initial preference + 0.3 frequency.
  linalg::Vector pi(k);
  for (size_t j = 0; j < k; ++j) pi[j] = 0.3 * freq[j];
  for (const auto& [j, w] : InitialPreferences()) pi[j] += 0.7 * w;
  pi.NormalizeToSimplex();

  // Emissions: each tag owns a block of word ids sized by its frequency
  // share (minimum 2), except PUNCT which is capped at a handful of symbols;
  // a shared ambiguous block receives `ambiguity` of every tag's mass.
  const size_t v = options.vocab_size;
  DHMM_CHECK_MSG(v >= 20 * k, "vocab too small for 15 tag blocks");
  const size_t shared = std::max<size_t>(10, v / 10);
  size_t assignable = v - shared;
  std::vector<size_t> block_size(k);
  size_t used = 0;
  for (size_t i = 0; i < k; ++i) {
    block_size[i] = std::max<size_t>(
        2, static_cast<size_t>(std::floor(freq[i] * assignable)));
    if (i == kPunct) block_size[i] = std::min<size_t>(block_size[i], 15);
    used += block_size[i];
  }
  // Give leftover ids to NOUN (the heaviest, longest-tail class).
  DHMM_CHECK(used <= assignable);
  block_size[kNoun] += assignable - used;

  linalg::Matrix b(k, v);
  linalg::Vector shared_zipf = ZipfWeights(shared, options.zipf_exponent);
  size_t offset = shared;  // word ids [0, shared) are the ambiguous block
  for (size_t i = 0; i < k; ++i) {
    linalg::Vector own = ZipfWeights(block_size[i], options.zipf_exponent);
    for (size_t r = 0; r < block_size[i]; ++r) {
      b(i, offset + r) = (1.0 - options.ambiguity) * own[r];
    }
    for (size_t r = 0; r < shared; ++r) {
      b(i, r) += options.ambiguity * shared_zipf[r];
    }
    offset += block_size[i];
  }
  DHMM_CHECK(offset == v);
  b.NormalizeRows();

  return hmm::HmmModel<int>(
      std::move(pi), std::move(a),
      std::make_unique<prob::CategoricalEmission>(std::move(b)));
}

PosCorpus GeneratePosCorpus(const PosCorpusOptions& options) {
  prob::Rng rng(options.seed);
  PosCorpus corpus;
  corpus.vocab_size = options.vocab_size;
  corpus.ground_truth = BuildPosGroundTruth(options);
  for (const auto& row : PaperPosTagTable()) {
    corpus.tag_names.emplace_back(row.name);
  }
  corpus.sentences.reserve(options.num_sentences);
  for (size_t n = 0; n < options.num_sentences; ++n) {
    size_t len = SampleLength(options, rng);
    corpus.sentences.push_back(
        hmm::SampleSequence(corpus.ground_truth, len, rng));
  }
  return corpus;
}

}  // namespace dhmm::data
