#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "data/ocr.h"
#include "data/pos_corpus.h"
#include "data/toy.h"
#include "eval/diversity.h"
#include "eval/metrics.h"

namespace dhmm::data {
namespace {

// ------------------------------------------------------------------- Toy ---

TEST(ToyTest, GroundTruthMatchesPaperParameters) {
  ToyParams p = ToyGroundTruth();
  ASSERT_EQ(p.pi.size(), 5u);
  EXPECT_DOUBLE_EQ(p.pi[0], 0.0101);
  EXPECT_DOUBLE_EQ(p.pi[4], 0.5914);
  EXPECT_NEAR(p.pi.sum(), 1.0, 1e-12);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(p.mu[i], static_cast<double>(i + 1));
    EXPECT_DOUBLE_EQ(p.sigma[i], 0.025);
  }
  EXPECT_TRUE(p.a.IsRowStochastic(1e-9));
}

TEST(ToyTest, GroundTruthDiversityNearPaperValue) {
  // The paper's Fig. 3 green line sits at ~0.531.
  ToyParams p = ToyGroundTruth();
  double div = eval::AveragePairwiseDiversity(p.a);
  EXPECT_NEAR(div, 0.531, 0.08);
}

TEST(ToyTest, SigmaParameterPropagates) {
  ToyParams p = ToyGroundTruth(2.825);
  for (size_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(p.sigma[i], 2.825);
}

TEST(ToyTest, DatasetShapeAndDeterminism) {
  prob::Rng rng1(5), rng2(5);
  auto d1 = GenerateToyDataset(0.025, 10, 6, rng1);
  auto d2 = GenerateToyDataset(0.025, 10, 6, rng2);
  ASSERT_EQ(d1.size(), 10u);
  for (size_t s = 0; s < 10; ++s) {
    ASSERT_EQ(d1[s].length(), 6u);
    ASSERT_TRUE(d1[s].labeled());
    for (size_t t = 0; t < 6; ++t) {
      EXPECT_DOUBLE_EQ(d1[s].obs[t], d2[s].obs[t]);
      EXPECT_EQ(d1[s].labels[t], d2[s].labels[t]);
    }
  }
}

TEST(ToyTest, ObservationsClusterAroundStateMeans) {
  prob::Rng rng(6);
  auto data = GenerateToyDataset(0.025, 100, 6, rng);
  for (const auto& seq : data) {
    for (size_t t = 0; t < seq.length(); ++t) {
      double expected = static_cast<double>(seq.labels[t] + 1);
      EXPECT_NEAR(seq.obs[t], expected, 0.2);  // 8 sigma
    }
  }
}

TEST(ToyTest, RandomInitIsValidModel) {
  prob::Rng rng(7);
  hmm::HmmModel<double> m = ToyRandomInit(rng);
  m.Validate();
  EXPECT_EQ(m.num_states(), kToyStates);
}

// ------------------------------------------------------------- PosCorpus ---

TEST(PosCorpusTest, PaperTableHasFifteenMergedTags) {
  const auto& table = PaperPosTagTable();
  ASSERT_EQ(table.size(), kNumPosTags);
  // Spot-check the Table-2 sums.
  EXPECT_EQ(table[0].paper_frequency, 28866);   // NOUN block
  EXPECT_EQ(table[4].paper_frequency, 927);     // MODAL
  EXPECT_EQ(table[10].paper_frequency, 3);      // INTJ
  int total = 0;
  for (const auto& row : table) total += row.paper_frequency;
  EXPECT_EQ(total, 93636);
}

PosCorpusOptions SmallCorpusOptions() {
  PosCorpusOptions opts;
  opts.num_sentences = 300;
  opts.vocab_size = 600;
  opts.seed = 11;
  return opts;
}

TEST(PosCorpusTest, ShapesAndRanges) {
  PosCorpus corpus = GeneratePosCorpus(SmallCorpusOptions());
  EXPECT_EQ(corpus.sentences.size(), 300u);
  EXPECT_EQ(corpus.tag_names.size(), kNumPosTags);
  for (const auto& sent : corpus.sentences) {
    ASSERT_TRUE(sent.labeled());
    EXPECT_GE(sent.length(), 2u);
    EXPECT_LE(sent.length(), 250u);
    for (size_t t = 0; t < sent.length(); ++t) {
      EXPECT_GE(sent.obs[t], 0);
      EXPECT_LT(static_cast<size_t>(sent.obs[t]), corpus.vocab_size);
      EXPECT_GE(sent.labels[t], 0);
      EXPECT_LT(static_cast<size_t>(sent.labels[t]), kNumPosTags);
    }
  }
}

TEST(PosCorpusTest, TagFrequenciesTrackPaperProfile) {
  PosCorpusOptions opts = SmallCorpusOptions();
  opts.num_sentences = 1500;
  PosCorpus corpus = GeneratePosCorpus(opts);
  eval::LabelSequences labels;
  for (const auto& s : corpus.sentences) labels.push_back(s.labels);
  linalg::Vector hist = eval::StateHistogram(labels, kNumPosTags);
  hist.NormalizeToSimplex();

  const auto& table = PaperPosTagTable();
  double total = 93636.0;
  // The big classes must land near the paper's shares; NOUN is the heaviest.
  const double* shares = hist.data();
  EXPECT_EQ(std::max_element(shares, shares + hist.size()), shares);
  for (size_t i = 0; i < kNumPosTags; ++i) {
    double target = table[i].paper_frequency / total;
    if (target > 0.02) {
      EXPECT_NEAR(hist[i], target, 0.6 * target + 0.01)
          << "tag " << table[i].name;
    }
  }
}

TEST(PosCorpusTest, GroundTruthTransitionsEncodeLinguistics) {
  PosCorpusOptions opts = SmallCorpusOptions();
  hmm::HmmModel<int> gt = BuildPosGroundTruth(opts);
  // DET -> NOUN must dominate DET -> VERB (indices: NOUN 0, VERB 5, DET 6).
  EXPECT_GT(gt.a(6, 0), 3.0 * gt.a(6, 5));
  // MODAL (4) -> VERB (5) is the strongest MODAL transition.
  const double* modal = gt.a.row_data(4);
  EXPECT_EQ(std::max_element(modal, modal + gt.a.cols()), modal + 5);
  EXPECT_TRUE(gt.a.IsRowStochastic(1e-9));
}

TEST(PosCorpusTest, EmissionsHaveLongTailAndAmbiguity) {
  PosCorpusOptions opts = SmallCorpusOptions();
  hmm::HmmModel<int> gt = BuildPosGroundTruth(opts);
  auto* em = dynamic_cast<prob::CategoricalEmission*>(gt.emission.get());
  ASSERT_NE(em, nullptr);
  // The shared ambiguous block (first 10% of ids) has mass under every tag.
  size_t shared = opts.vocab_size / 10;
  for (size_t tag = 0; tag < kNumPosTags; ++tag) {
    double shared_mass = 0.0;
    for (size_t w = 0; w < shared; ++w) shared_mass += em->b()(tag, w);
    EXPECT_NEAR(shared_mass, opts.ambiguity, 0.02) << "tag " << tag;
  }
}

TEST(PosCorpusTest, DeterministicForSeed) {
  PosCorpus a = GeneratePosCorpus(SmallCorpusOptions());
  PosCorpus b = GeneratePosCorpus(SmallCorpusOptions());
  ASSERT_EQ(a.sentences.size(), b.sentences.size());
  for (size_t s = 0; s < a.sentences.size(); ++s) {
    EXPECT_EQ(a.sentences[s].obs, b.sentences[s].obs);
    EXPECT_EQ(a.sentences[s].labels, b.sentences[s].labels);
  }
}

// FNV-1a over each sentence's length, tokens and labels, each as 8
// little-endian bytes.
uint64_t CorpusDigest(const hmm::Dataset<int>& sentences) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& s : sentences) {
    mix(s.length());
    for (int y : s.obs) mix(static_cast<uint64_t>(y));
    for (int l : s.labels) mix(static_cast<uint64_t>(l));
  }
  return h;
}

TEST(PosCorpusTest, CorpusDigestIsPinned) {
  // Recorded when every emission draw was a full scan of its row; the
  // checkpointed draw must reproduce that corpus token for token.
  EXPECT_EQ(CorpusDigest(GeneratePosCorpus(SmallCorpusOptions()).sentences),
            0xd7b8993a5ef7d499ULL);
}

// ------------------------------------------------------------------- OCR ---

TEST(OcrTest, GlyphTemplatesWellFormed) {
  std::set<prob::BinaryObs> distinct;
  for (size_t l = 0; l < kNumLetters; ++l) {
    const prob::BinaryObs& g = GlyphTemplate(l);
    ASSERT_EQ(g.size(), kGlyphDims);
    size_t on = 0;
    for (uint8_t px : g) {
      ASSERT_LE(px, 1);
      on += px;
    }
    EXPECT_GT(on, 8u) << "letter " << LetterChar(static_cast<int>(l))
                      << " too sparse";
    EXPECT_LT(on, kGlyphDims / 2) << "letter too dense";
    distinct.insert(g);
  }
  EXPECT_EQ(distinct.size(), kNumLetters);  // all glyphs distinct
}

TEST(OcrTest, GlyphsMutuallyDistinguishable) {
  // Pairwise Hamming distance must exceed the expected noise flips so the
  // OCR task is well-posed at the default noise level.
  for (size_t a = 0; a < kNumLetters; ++a) {
    for (size_t b = a + 1; b < kNumLetters; ++b) {
      const auto& ga = GlyphTemplate(a);
      const auto& gb = GlyphTemplate(b);
      size_t hamming = 0;
      for (size_t d = 0; d < kGlyphDims; ++d) hamming += ga[d] != gb[d];
      EXPECT_GE(hamming, 8u) << LetterChar(static_cast<int>(a)) << " vs "
                             << LetterChar(static_cast<int>(b));
    }
  }
}

TEST(OcrTest, WordListCoversPaperProperties) {
  const auto& words = WordList();
  EXPECT_GT(words.size(), 300u);
  size_t min_len = 100, max_len = 0;
  std::set<char> letters;
  for (const auto& w : words) {
    min_len = std::min(min_len, w.size());
    max_len = std::max(max_len, w.size());
    for (char c : w) {
      ASSERT_GE(c, 'a');
      ASSERT_LE(c, 'z');
      letters.insert(c);
    }
  }
  EXPECT_EQ(min_len, 1u);   // paper: word lengths 1..14
  EXPECT_EQ(max_len, 14u);
  EXPECT_EQ(letters.size(), 26u);  // every letter appears
  // Table-3 words present.
  EXPECT_NE(std::find(words.begin(), words.end(), "embraces"), words.end());
  EXPECT_NE(std::find(words.begin(), words.end(), "commanding"), words.end());
  EXPECT_NE(std::find(words.begin(), words.end(), "volcanic"), words.end());
}

TEST(OcrTest, RenderWordNoiseFreeMatchesTemplates) {
  OcrOptions opts;
  opts.pixel_flip = 0.0;
  opts.max_jitter = 0;
  prob::Rng rng(14);
  auto seq = RenderWord("cab", opts, rng);
  ASSERT_EQ(seq.length(), 3u);
  EXPECT_EQ(seq.obs[0], GlyphTemplate(2));   // c
  EXPECT_EQ(seq.obs[1], GlyphTemplate(0));   // a
  EXPECT_EQ(seq.obs[2], GlyphTemplate(1));   // b
  EXPECT_EQ(LabelsToWord(seq.labels), "cab");
}

TEST(OcrTest, NoiseFlipsExpectedFraction) {
  OcrOptions opts;
  opts.pixel_flip = 0.1;
  opts.max_jitter = 0;
  prob::Rng rng(15);
  size_t flips = 0, total = 0;
  for (int trial = 0; trial < 200; ++trial) {
    auto seq = RenderWord("e", opts, rng);
    const auto& tmpl = GlyphTemplate(4);
    for (size_t d = 0; d < kGlyphDims; ++d) {
      flips += seq.obs[0][d] != tmpl[d];
      ++total;
    }
  }
  EXPECT_NEAR(static_cast<double>(flips) / total, 0.1, 0.01);
}

TEST(OcrTest, DatasetShapes) {
  OcrOptions opts;
  opts.num_words = 200;
  OcrDataset ds = GenerateOcrDataset(opts);
  EXPECT_EQ(ds.words.size(), 200u);
  for (const auto& w : ds.words) {
    ASSERT_TRUE(w.labeled());
    EXPECT_GE(w.length(), 1u);
    EXPECT_LE(w.length(), 14u);
    for (const auto& o : w.obs) EXPECT_EQ(o.size(), kGlyphDims);
  }
}

TEST(OcrTest, DatasetDeterministicForSeed) {
  OcrOptions opts;
  opts.num_words = 50;
  OcrDataset a = GenerateOcrDataset(opts);
  OcrDataset b = GenerateOcrDataset(opts);
  ASSERT_EQ(a.words.size(), b.words.size());
  for (size_t i = 0; i < a.words.size(); ++i) {
    EXPECT_EQ(a.words[i].labels, b.words[i].labels);
    EXPECT_EQ(a.words[i].obs, b.words[i].obs);
  }
}

TEST(OcrTest, AsciiRenderingRoundTrip) {
  const auto& g = GlyphTemplate(0);
  std::string art = RenderWordAscii({g});
  // 16 lines of 8 chars + newlines.
  EXPECT_EQ(art.size(), (kGlyphCols + 1) * kGlyphRows);
  size_t hashes = 0;
  for (char c : art) hashes += c == '#';
  size_t on = 0;
  for (uint8_t px : g) on += px;
  EXPECT_EQ(hashes, on);
}

TEST(OcrTest, WordAsciiHasSeparators) {
  std::vector<prob::BinaryObs> glyphs = {GlyphTemplate(0), GlyphTemplate(1)};
  std::string art = RenderWordAscii(glyphs);
  // Each of the 16 lines: 8 + 1 + 8 chars + newline.
  EXPECT_EQ(art.size(), (2 * kGlyphCols + 2) * kGlyphRows);
}

TEST(OcrTest, BigramStructurePresent) {
  // The paper highlights that 'q' is nearly always followed by 'u' in
  // English; our sampled corpus must reflect real bigram structure. Check a
  // softer universal: 'th' is a frequent bigram, 'zz' (nearly) absent.
  OcrOptions opts;
  opts.num_words = 3000;
  OcrDataset ds = GenerateOcrDataset(opts);
  size_t th = 0, zz = 0, total = 0;
  for (const auto& w : ds.words) {
    for (size_t t = 1; t < w.length(); ++t) {
      ++total;
      if (w.labels[t - 1] == LetterIndex('t') &&
          w.labels[t] == LetterIndex('h')) {
        ++th;
      }
      if (w.labels[t - 1] == LetterIndex('z') &&
          w.labels[t] == LetterIndex('z')) {
        ++zz;
      }
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(th, 20u);
  EXPECT_EQ(zz, 0u);
}

}  // namespace
}  // namespace dhmm::data
