// Synthetic handwritten-character dataset for the supervised OCR experiment
// (paper §4.2.2).
//
// Substitution note (see DESIGN.md §4): the Kassel/Taskar handwritten-letter
// corpus is not available offline. This generator preserves the properties
// the experiment depends on: 16x8 binary glyphs of the 26 lowercase letters
// (flattened to 128-dim binary vectors), per-sample pixel noise and spatial
// jitter standing in for handwriting variability, and words drawn from an
// English word list so the letter-transition matrix carries real bigram
// signal (the 'm'->'a'/'b' vs 'n'->'d'/'g' structure the paper highlights).
#ifndef DHMM_DATA_OCR_H_
#define DHMM_DATA_OCR_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "hmm/sequence.h"
#include "prob/bernoulli_emission.h"
#include "prob/rng.h"

namespace dhmm::data {

/// Glyph raster dimensions (paper: 16 x 8 binary images).
inline constexpr size_t kGlyphRows = 16;
inline constexpr size_t kGlyphCols = 8;
inline constexpr size_t kGlyphDims = kGlyphRows * kGlyphCols;  // 128
inline constexpr size_t kNumLetters = 26;

/// \brief Clean 16x8 template for letter index 0..25 ('a'..'z').
const prob::BinaryObs& GlyphTemplate(size_t letter);

/// \brief The built-in lowercase word list (lengths 1..14) used to sample
/// letter sequences with realistic English bigram structure.
const std::vector<std::string>& WordList();

/// Options for dataset generation.
struct OcrOptions {
  size_t num_words = 6877;   ///< paper's corpus size
  double pixel_flip = 0.08;  ///< Bernoulli pixel noise probability
  int max_jitter = 1;        ///< uniform +-pixels of translation per glyph
  uint64_t seed = 7;
};

/// A generated OCR dataset.
struct OcrDataset {
  /// One sequence per word; obs are 128-dim binary vectors, labels are letter
  /// indices 0..25.
  hmm::Dataset<prob::BinaryObs> words;
};

/// \brief Renders a word (letter indices) to noisy glyph observations.
hmm::Sequence<prob::BinaryObs> RenderWord(const std::string& word,
                                          const OcrOptions& options,
                                          prob::Rng& rng);

/// \brief Samples `num_words` words (with replacement, Zipf-weighted toward
/// common words) and renders each with independent noise.
OcrDataset GenerateOcrDataset(const OcrOptions& options);

/// \brief Side-by-side ASCII rendering of a whole word (Table 3 style).
std::string RenderWordAscii(const std::vector<prob::BinaryObs>& glyphs);

/// Letter index -> char and back.
inline char LetterChar(int index) { return static_cast<char>('a' + index); }
inline int LetterIndex(char c) { return c - 'a'; }

/// Converts a label sequence to its word string.
std::string LabelsToWord(const std::vector<int>& labels);

}  // namespace dhmm::data

#endif  // DHMM_DATA_OCR_H_
