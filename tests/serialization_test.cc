// File-level checkpoint coverage over the `.dhmms` store: training resumed
// from a checkpoint, atomic saves, typed IO errors, and a grid of hostile
// images that pass every CRC yet must read as a typed IOError, never a
// constructor abort.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dhmm_trainer.h"
#include "data/toy.h"
#include "hmm/trainer.h"
#include "prob/bernoulli_emission.h"
#include "prob/categorical_emission.h"
#include "store/crc32c.h"
#include "store/model_codec.h"
#include "store/model_store.h"

namespace dhmm {
namespace {

class CheckpointFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dhmm_serialization_test_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->line()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string path() const { return (dir_ / "model.dhmms").string(); }

 private:
  std::filesystem::path dir_;
};

hmm::HmmModel<int> CategoricalModel(size_t k, uint64_t seed) {
  prob::Rng rng(seed);
  return hmm::HmmModel<int>(
      rng.DirichletSymmetric(k, 2.0), rng.RandomStochasticMatrix(k, k, 2.0),
      std::make_unique<prob::CategoricalEmission>(
          prob::CategoricalEmission::RandomInit(k, 7, rng)));
}

TEST_F(CheckpointFileTest, ResumedTrainingContinuesImproving) {
  prob::Rng data_rng(5);
  hmm::Dataset<double> data = data::GenerateToyDataset(0.5, 60, 6, data_rng);
  prob::Rng init_rng(6);
  hmm::HmmModel<double> m = data::ToyRandomInit(init_rng);
  core::DiversifiedEmOptions opts;
  opts.alpha = 1.0;
  opts.max_iters = 3;
  core::FitDiversifiedHmm(&m, data, opts);
  double ll_checkpoint = hmm::DatasetLogLikelihood(m, data);

  ASSERT_TRUE(store::WriteModel(m, 1, path()).ok());
  auto r = store::ReadModelFromFile<double>(path());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  hmm::HmmModel<double> resumed = std::move(r).value();
  EXPECT_EQ(hmm::DatasetLogLikelihood(resumed, data), ll_checkpoint);
  opts.max_iters = 15;
  core::FitDiversifiedHmm(&resumed, data, opts);
  EXPECT_GE(hmm::DatasetLogLikelihood(resumed, data), ll_checkpoint - 1e-9);
}

TEST_F(CheckpointFileTest, MissingFileIsIOError) {
  auto r = store::ReadModelFromFile<double>("/nonexistent/dir/model.dhmms");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(CheckpointFileTest, AtomicSaveLeavesNoTempResidue) {
  prob::Rng rng(21);
  hmm::HmmModel<double> m = data::ToyRandomInit(rng);
  ASSERT_TRUE(store::WriteModel(m, 1, path()).ok());
  EXPECT_TRUE(std::filesystem::exists(path()));
  EXPECT_FALSE(std::filesystem::exists(path() + ".tmp"));
}

TEST_F(CheckpointFileTest, AtomicSaveReplacesPreviousCheckpointWholesale) {
  // Overwriting a checkpoint goes through rename, so a reader polling the
  // path can never observe a mix of old and new bytes.
  const hmm::HmmModel<int> a = CategoricalModel(3, 22);
  const hmm::HmmModel<int> b = CategoricalModel(4, 23);
  ASSERT_TRUE(store::WriteModel(a, 1, path()).ok());
  ASSERT_TRUE(store::WriteModel(b, 2, path()).ok());
  auto r = store::ReadModelFromFile<int>(path());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_states(), 4u);
  EXPECT_TRUE(r.value().a == b.a);
  EXPECT_FALSE(std::filesystem::exists(path() + ".tmp"));
}

TEST(CheckpointRobustnessTest, SaveToUnwritableDirIsIOError) {
  prob::Rng rng(23);
  hmm::HmmModel<double> m = data::ToyRandomInit(rng);
  Status st = store::WriteModel(m, 1, "/nonexistent/dir/model.dhmms");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// Hostile-but-CRC-valid images: every section is written through
// ModelStoreWriter, so checksums pass and only the codec's semantic checks
// stand between the bytes and an aborting constructor.

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Block {
  size_t rows;
  size_t cols;
  std::vector<double> values;
};

/// One store image, section by section (k = 2 throughout).
struct Image {
  store::EmissionTag tag;
  std::vector<double> pi;
  std::vector<double> a;        // 2 x 2, row major
  std::vector<double> scalars;  // floors / pseudo-counts
  std::vector<Block> emission;  // kEmission0, kEmission1, ... in order
};

Image CategoricalImage() {
  return {store::EmissionTag::kCategorical, {0.5, 0.5}, {0.5, 0.5, 0.5, 0.5},
          {0.0}, {{2, 2, {0.25, 0.75, 0.5, 0.5}}}};
}

Image BernoulliImage() {
  return {store::EmissionTag::kBernoulli, {0.5, 0.5}, {0.5, 0.5, 0.5, 0.5},
          {1e-3}, {{2, 3, {0.25, 0.75, 0.5, 0.5, 0.1, 0.9}}}};
}

Image GaussianImage() {
  return {store::EmissionTag::kGaussian, {0.5, 0.5}, {0.5, 0.5, 0.5, 0.5},
          {1e-4}, {{1, 2, {0.0, 3.0}}, {1, 2, {1.0, 0.5}}}};
}

Image GmmImage() {
  return {store::EmissionTag::kGmm,
          {0.5, 0.5},
          {0.5, 0.5, 0.5, 0.5},
          {1e-4},
          {{2, 2, {0.5, 0.5, 0.25, 0.75}},
           {2, 2, {0.0, 1.0, 2.0, 3.0}},
           {2, 2, {1.0, 1.0, 0.5, 0.5}}}};
}

Status WriteImage(const Image& img, const std::string& path) {
  std::vector<store::SectionSpec> sections = {
      {store::SectionId::kPi, img.pi.data(), 1, img.pi.size()},
      {store::SectionId::kTransition, img.a.data(), 2, img.a.size() / 2},
      {store::SectionId::kScalars, img.scalars.data(), 1, img.scalars.size()}};
  for (size_t i = 0; i < img.emission.size(); ++i) {
    const Block& b = img.emission[i];
    sections.push_back(
        {static_cast<store::SectionId>(
             static_cast<uint32_t>(store::SectionId::kEmission0) + i),
         b.values.data(), b.rows, b.cols});
  }
  return store::ModelStoreWriter::Write(
      path, 1, static_cast<uint32_t>(img.tag), 2, sections);
}

template <typename Obs>
Status ReadStatus(const std::string& path) {
  return store::ReadModelFromFile<Obs>(path).status();
}

using Reader = Status (*)(const std::string&);

struct HostileCase {
  const char* what;
  Image image;
  Reader read;
};

template <typename Edit>
Image With(Image img, Edit edit) {
  edit(&img);
  return img;
}

TEST_F(CheckpointFileTest, HostileCrcValidImagesAreTypedIOErrors) {
  // The unedited image of each family loads, so every rejection below is
  // caused by its one edited field.
  const HostileCase bases[] = {
      {"categorical", CategoricalImage(), &ReadStatus<int>},
      {"bernoulli", BernoulliImage(), &ReadStatus<prob::BinaryObs>},
      {"gaussian", GaussianImage(), &ReadStatus<double>},
      {"gmm", GmmImage(), &ReadStatus<double>}};
  for (const HostileCase& c : bases) {
    ASSERT_TRUE(WriteImage(c.image, path()).ok()) << c.what;
    EXPECT_TRUE(c.read(path()).ok()) << c.what;
  }

  const HostileCase grid[] = {
      {"pi sums to 1.7",
       With(CategoricalImage(), [](Image* m) { m->pi = {0.9, 0.8}; }),
       &ReadStatus<int>},
      {"negative pi entry",
       With(CategoricalImage(), [](Image* m) { m->pi = {-0.2, 1.2}; }),
       &ReadStatus<int>},
      {"NaN pi entry",
       With(CategoricalImage(), [](Image* m) { m->pi = {kNaN, 1.0}; }),
       &ReadStatus<int>},
      {"transition row sums to 1.2",
       With(CategoricalImage(), [](Image* m) { m->a[3] = 0.7; }),
       &ReadStatus<int>},
      {"NaN transition entry",
       With(CategoricalImage(), [](Image* m) { m->a[1] = kNaN; }),
       &ReadStatus<int>},
      {"negative emission entry",
       With(CategoricalImage(),
            [](Image* m) { m->emission[0].values = {-0.25, 1.25, 0.5, 0.5}; }),
       &ReadStatus<int>},
      {"emission rows != k",
       With(CategoricalImage(),
            [](Image* m) {
              m->emission[0] = {3, 2, {0.5, 0.5, 0.5, 0.5, 0.5, 0.5}};
            }),
       &ReadStatus<int>},
      {"negative pseudo-count",
       With(CategoricalImage(), [](Image* m) { m->scalars = {-1.0}; }),
       &ReadStatus<int>},
      {"infinite pseudo-count",
       With(CategoricalImage(), [](Image* m) { m->scalars = {kInf}; }),
       &ReadStatus<int>},
      {"bernoulli floor 0.5",
       With(BernoulliImage(), [](Image* m) { m->scalars = {0.5}; }),
       &ReadStatus<prob::BinaryObs>},
      {"bernoulli p above 1",
       With(BernoulliImage(), [](Image* m) { m->emission[0].values[2] = 1.5; }),
       &ReadStatus<prob::BinaryObs>},
      {"bernoulli p NaN",
       With(BernoulliImage(),
            [](Image* m) { m->emission[0].values[4] = kNaN; }),
       &ReadStatus<prob::BinaryObs>},
      {"gaussian sigma 0",
       With(GaussianImage(), [](Image* m) { m->emission[1].values[0] = 0.0; }),
       &ReadStatus<double>},
      {"gaussian sigma NaN",
       With(GaussianImage(), [](Image* m) { m->emission[1].values[1] = kNaN; }),
       &ReadStatus<double>},
      {"gaussian sigma +inf",
       With(GaussianImage(),
            [](Image* m) { m->emission[1].values[0] = kInf; }),
       &ReadStatus<double>},
      {"gaussian mean NaN",
       With(GaussianImage(),
            [](Image* m) { m->emission[0].values[1] = kNaN; }),
       &ReadStatus<double>},
      {"gaussian mean +inf",
       With(GaussianImage(),
            [](Image* m) { m->emission[0].values[0] = kInf; }),
       &ReadStatus<double>},
      {"gaussian zero sigma floor",
       With(GaussianImage(), [](Image* m) { m->scalars = {0.0}; }),
       &ReadStatus<double>},
      {"gaussian sigma floor +inf",
       With(GaussianImage(), [](Image* m) { m->scalars = {kInf}; }),
       &ReadStatus<double>},
      {"gmm weights sum to 0.9",
       With(GmmImage(),
            [](Image* m) { m->emission[0].values = {0.5, 0.4, 0.25, 0.75}; }),
       &ReadStatus<double>},
      {"negative gmm sigma",
       With(GmmImage(), [](Image* m) { m->emission[2].values[3] = -0.5; }),
       &ReadStatus<double>},
      {"gmm sigma +inf",
       With(GmmImage(), [](Image* m) { m->emission[2].values[1] = kInf; }),
       &ReadStatus<double>},
      {"gmm mean NaN",
       With(GmmImage(), [](Image* m) { m->emission[1].values[2] = kNaN; }),
       &ReadStatus<double>},
      {"gaussian tag read as symbols", GaussianImage(), &ReadStatus<int>},
  };
  for (const HostileCase& c : grid) {
    ASSERT_TRUE(WriteImage(c.image, path()).ok()) << c.what;
    const Status st = c.read(path());
    EXPECT_EQ(st.code(), StatusCode::kIOError) << c.what << ": "
                                               << st.ToString();
  }
}

TEST_F(CheckpointFileTest, AbsurdHeaderStateCountIsTypedIOError) {
  // A corrupt header must fail fast instead of sizing an enormous pi / A
  // allocation, even when its CRC has been resealed over the bad count.
  ASSERT_TRUE(WriteImage(GaussianImage(), path()).ok());
  ASSERT_TRUE(store::ReadModelFromFile<double>(path()).ok());

  std::vector<unsigned char> bytes;
  {
    std::ifstream in(path(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GE(bytes.size(), store::kStoreHeaderBytes);
  auto put_u32 = [&](size_t offset, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes[offset + i] = static_cast<unsigned char>(v >> (8 * i));
    }
  };
  // num_states, then the header CRC over the edited header.
  put_u32(28, 999999999u);
  put_u32(60, store::Crc32c(bytes.data(), 60));
  {
    std::ofstream out(path(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  auto r = store::ReadModelFromFile<double>(path());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace dhmm
