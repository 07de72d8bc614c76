#include "data/ocr.h"

#include <cmath>

#include "util/check.h"

namespace dhmm::data {

namespace {

// Applies integer translation (dy, dx) to a glyph; pixels shifted in from
// outside the raster are 0.
prob::BinaryObs Translate(const prob::BinaryObs& glyph, int dy, int dx) {
  prob::BinaryObs out(kGlyphDims, 0);
  for (size_t r = 0; r < kGlyphRows; ++r) {
    for (size_t c = 0; c < kGlyphCols; ++c) {
      int sr = static_cast<int>(r) - dy;
      int sc = static_cast<int>(c) - dx;
      if (sr >= 0 && sr < static_cast<int>(kGlyphRows) && sc >= 0 &&
          sc < static_cast<int>(kGlyphCols)) {
        out[r * kGlyphCols + c] =
            glyph[static_cast<size_t>(sr) * kGlyphCols +
                  static_cast<size_t>(sc)];
      }
    }
  }
  return out;
}

}  // namespace

hmm::Sequence<prob::BinaryObs> RenderWord(const std::string& word,
                                          const OcrOptions& options,
                                          prob::Rng& rng) {
  DHMM_CHECK(!word.empty());
  DHMM_CHECK(options.pixel_flip >= 0.0 && options.pixel_flip < 0.5);
  hmm::Sequence<prob::BinaryObs> seq;
  seq.obs.reserve(word.size());
  seq.labels.reserve(word.size());
  for (char ch : word) {
    DHMM_CHECK_MSG(ch >= 'a' && ch <= 'z', "words must be lowercase a-z");
    int letter = LetterIndex(ch);
    prob::BinaryObs glyph = GlyphTemplate(static_cast<size_t>(letter));
    if (options.max_jitter > 0) {
      int span = 2 * options.max_jitter + 1;
      int dy = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(span))) -
               options.max_jitter;
      int dx = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(span))) -
               options.max_jitter;
      if (dy != 0 || dx != 0) glyph = Translate(glyph, dy, dx);
    }
    for (auto& px : glyph) {
      if (rng.Bernoulli(options.pixel_flip)) px ^= 1;
    }
    seq.obs.push_back(std::move(glyph));
    seq.labels.push_back(letter);
  }
  return seq;
}

OcrDataset GenerateOcrDataset(const OcrOptions& options) {
  prob::Rng rng(options.seed);
  const auto& words = WordList();
  // Zipf-weighted sampling with replacement: common (early) words appear more
  // often, mimicking natural word-frequency skew in the handwriting corpus.
  linalg::Vector weights(words.size());
  for (size_t i = 0; i < words.size(); ++i) {
    weights[i] = 1.0 / std::sqrt(static_cast<double>(i + 1));
  }
  OcrDataset out;
  out.words.reserve(options.num_words);
  for (size_t n = 0; n < options.num_words; ++n) {
    const std::string& w = words[rng.Categorical(weights)];
    out.words.push_back(RenderWord(w, options, rng));
  }
  return out;
}

std::string RenderWordAscii(const std::vector<prob::BinaryObs>& glyphs) {
  DHMM_CHECK(!glyphs.empty());
  std::string out;
  for (size_t r = 0; r < kGlyphRows; ++r) {
    for (size_t g = 0; g < glyphs.size(); ++g) {
      DHMM_CHECK(glyphs[g].size() == kGlyphDims);
      for (size_t c = 0; c < kGlyphCols; ++c) {
        out += glyphs[g][r * kGlyphCols + c] ? '#' : '.';
      }
      if (g + 1 < glyphs.size()) out += ' ';
    }
    out += '\n';
  }
  return out;
}

std::string LabelsToWord(const std::vector<int>& labels) {
  std::string out;
  out.reserve(labels.size());
  for (int l : labels) {
    DHMM_CHECK(l >= 0 && l < static_cast<int>(kNumLetters));
    out += LetterChar(l);
  }
  return out;
}

}  // namespace dhmm::data
