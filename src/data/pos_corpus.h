// Synthetic WSJ-like corpus for the unsupervised PoS tagging experiment
// (paper §4.2.1).
//
// Substitution note (see DESIGN.md §4): the Penn Treebank WSJ corpus is
// licensed and unavailable offline. This generator reproduces the statistical
// properties the experiment depends on: the paper's 15 merged tags with the
// exact Table-2 frequency profile, sparse linguistically-structured tag
// transitions, Zipf-distributed per-tag vocabularies with cross-tag lexical
// ambiguity, and sentence lengths in the paper's 2..250 range.
#ifndef DHMM_DATA_POS_CORPUS_H_
#define DHMM_DATA_POS_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hmm/model.h"
#include "hmm/sequence.h"
#include "prob/categorical_emission.h"

namespace dhmm::data {

/// The paper's 15 merged tag classes (Table 2).
inline constexpr size_t kNumPosTags = 15;

/// One row of the paper's Table 2, after tag merging.
struct PosTagInfo {
  int index;               ///< 1-based tag index used in the paper
  const char* name;        ///< representative name of the merged class
  const char* members;     ///< original WSJ tags merged into this class
  int paper_frequency;     ///< summed WSJ frequency from Table 2
};

/// \brief The merged Table-2 inventory (15 rows, paper frequencies).
const std::vector<PosTagInfo>& PaperPosTagTable();

/// Options for corpus generation.
struct PosCorpusOptions {
  size_t num_sentences = 1000;  ///< paper uses 3828
  size_t vocab_size = 2000;     ///< paper's corpus has ~10K
  size_t min_length = 2;        ///< paper: lengths 2..250
  size_t max_length = 250;
  double mean_length = 24.0;    ///< matches WSJ's ~93.6K tokens / 3828 sents
  /// Fraction of each tag's emission mass spent on a shared ambiguous block
  /// of words (lexical ambiguity is what makes unsupervised tagging hard).
  double ambiguity = 0.25;
  /// Zipf exponent for within-tag word frequencies (long-tail emissions).
  double zipf_exponent = 1.1;
  uint64_t seed = 42;
};

/// A generated corpus plus its generating model.
struct PosCorpus {
  hmm::Dataset<int> sentences;          ///< labels = gold tag ids (0-based)
  size_t vocab_size = 0;
  std::vector<std::string> tag_names;   ///< 15 names, index-aligned
  hmm::HmmModel<int> ground_truth;      ///< the generating HMM
};

/// \brief Builds the ground-truth tagging HMM (without sampling sentences).
///
/// The transition matrix mixes hand-specified linguistic preferences
/// (DET->NOUN, MODAL->VERB, ADJ->NOUN, ...) with the Table-2 frequency
/// profile so that the stationary tag distribution tracks the paper's
/// skewed long-tail histogram (Fig. 9's "ground-truth" curve).
hmm::HmmModel<int> BuildPosGroundTruth(const PosCorpusOptions& options);

/// \brief Samples a corpus from the ground truth.
PosCorpus GeneratePosCorpus(const PosCorpusOptions& options);

}  // namespace dhmm::data

#endif  // DHMM_DATA_POS_CORPUS_H_
