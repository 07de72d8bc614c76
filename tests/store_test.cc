// Binary model store coverage: CRC-32C vectors, byte-exact round trips for
// every emission family, an exhaustive corruption grid (every truncation
// prefix, single-bit flips across the whole image, repeated section ids,
// stale sequence numbers, torn dual-slot publishes), a seeded mutation fuzz
// over resealed images, and the serve-layer failsafe: a reload from a
// corrupt slot keeps the previous snapshot serving, bitwise unchanged.
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/toy.h"
#include "hmm/model.h"
#include "obs/metrics.h"
#include "hmm/sampler.h"
#include "prob/bernoulli_emission.h"
#include "prob/categorical_emission.h"
#include "prob/gaussian_emission.h"
#include "prob/gmm_emission.h"
#include "prob/rng.h"
#include "serve/decode_service.h"
#include "serve/model_registry.h"
#include "store/crc32c.h"
#include "store/dual_slot.h"
#include "store/model_codec.h"
#include "store/model_store.h"

namespace dhmm {
namespace {

// ---------------------------------------------------------------------------
// Fixtures and helpers

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dhmm_store_test_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->line()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::string DirPath(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

void WriteBytes(const std::string& path, const std::vector<unsigned char>& b) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(b.data()),
           static_cast<std::streamsize>(b.size()));
  ASSERT_TRUE(os.good());
}

std::vector<unsigned char> ReadBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(is),
                                    std::istreambuf_iterator<char>());
}

hmm::HmmModel<double> GaussianModel(uint64_t seed) {
  prob::Rng rng(seed);
  return data::ToyRandomInit(rng);
}

hmm::HmmModel<int> CategoricalModel(uint64_t seed) {
  prob::Rng rng(seed);
  return hmm::HmmModel<int>(
      rng.DirichletSymmetric(4, 2.0), rng.RandomStochasticMatrix(4, 4, 2.0),
      std::make_unique<prob::CategoricalEmission>(
          prob::CategoricalEmission::RandomInit(4, 12, rng)));
}

hmm::HmmModel<prob::BinaryObs> BernoulliModel(uint64_t seed) {
  prob::Rng rng(seed);
  return hmm::HmmModel<prob::BinaryObs>(
      rng.DirichletSymmetric(3, 2.0), rng.RandomStochasticMatrix(3, 3, 2.0),
      std::make_unique<prob::BernoulliEmission>(
          prob::BernoulliEmission::RandomInit(3, 5, rng)));
}

hmm::HmmModel<double> GmmModel(uint64_t seed) {
  prob::Rng rng(seed);
  return hmm::HmmModel<double>(
      rng.DirichletSymmetric(3, 2.0), rng.RandomStochasticMatrix(3, 3, 2.0),
      std::make_unique<prob::GmmEmission>(
          prob::GmmEmission::RandomInit(3, 2, rng)));
}

bool BytesEqual(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool CoreEqual(const linalg::Vector& pi_a, const linalg::Matrix& a_a,
               const linalg::Vector& pi_b, const linalg::Matrix& a_b) {
  return pi_a.size() == pi_b.size() && a_a.rows() == a_b.rows() &&
         a_a.cols() == a_b.cols() &&
         BytesEqual(pi_a.data(), pi_b.data(), pi_a.size()) &&
         BytesEqual(a_a.data(), a_b.data(), a_a.rows() * a_a.cols());
}

uint32_t GetU32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetU64(const unsigned char* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

void PutU32(unsigned char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

/// Recomputes every CRC an edit may have broken — each in-bounds
/// section's, then the manifest's, then the header's — so the edit reaches
/// the reader's structural checks and the codec's semantic ones instead of
/// stopping at a checksum.
void Reseal(std::vector<unsigned char>* image) {
  unsigned char* base = image->data();
  const size_t size = image->size();
  const size_t n = GetU32(base + 32);
  const size_t manifest_bytes = n * store::kStoreManifestEntryBytes;
  if (n <= store::kStoreMaxSections &&
      store::kStoreHeaderBytes + manifest_bytes <= size) {
    unsigned char* manifest = base + store::kStoreHeaderBytes;
    for (size_t i = 0; i < n; ++i) {
      unsigned char* e = manifest + i * store::kStoreManifestEntryBytes;
      const uint64_t offset = GetU64(e + 8);
      const uint64_t bytes = GetU64(e + 16);
      if (offset <= size && bytes <= size - offset) {
        PutU32(e + 4, store::Crc32c(base + offset, bytes));
      }
    }
    PutU32(base + 36, store::Crc32c(manifest, manifest_bytes));
  }
  PutU32(base + 60, store::Crc32c(base, 60));
}

template <typename Obs>
std::vector<unsigned char> BuildModelImage(const hmm::HmmModel<Obs>& m,
                                           uint64_t seq) {
  // Same section list WriteModel assembles, but kept in memory so
  // corruption tests can flip bits without rewriting files from scratch.
  const std::string tmp =
      (std::filesystem::temp_directory_path() / "dhmm_store_img.dhmms")
          .string();
  EXPECT_TRUE(store::WriteModel(m, seq, tmp).ok());
  std::vector<unsigned char> image = ReadBytes(tmp);
  std::filesystem::remove(tmp);
  return image;
}

// ---------------------------------------------------------------------------
// CRC-32C

TEST(Crc32cTest, KnownVector) {
  // The canonical CRC-32C check value (RFC 3720 / every iSCSI test suite).
  EXPECT_EQ(store::Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, EmptyAndChaining) {
  EXPECT_EQ(store::Crc32c("", 0), 0u);
  const char* s = "123456789";
  const uint32_t head = store::Crc32c(s, 4);
  EXPECT_EQ(store::Crc32c(s + 4, 5, head), store::Crc32c(s, 9));
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  unsigned char buf[64];
  for (size_t i = 0; i < sizeof(buf); ++i) {
    buf[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  const uint32_t clean = store::Crc32c(buf, sizeof(buf));
  for (size_t bit = 0; bit < sizeof(buf) * 8; ++bit) {
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    EXPECT_NE(store::Crc32c(buf, sizeof(buf)), clean) << "bit " << bit;
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
}

// ---------------------------------------------------------------------------
// Round trips

TEST_F(StoreTest, GaussianRoundTripBitExact) {
  const auto m = GaussianModel(11);
  ASSERT_TRUE(store::WriteModel(m, 7, Path("m.dhmms")).ok());

  auto reader = store::ModelStoreReader::Open(Path("m.dhmms"));
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  EXPECT_EQ(reader.value().sequence_number(), 7u);
  EXPECT_EQ(reader.value().num_states(), m.num_states());
  ASSERT_TRUE(reader.value().VerifyAllSections().ok());

  auto r = store::ReadModel<double>(reader.value());
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_TRUE(CoreEqual(m.pi, m.a, r.value().pi, r.value().a));
  const auto& g0 = dynamic_cast<const prob::GaussianEmission&>(*m.emission);
  const auto& g1 =
      dynamic_cast<const prob::GaussianEmission&>(*r.value().emission);
  EXPECT_TRUE(BytesEqual(g0.mu().data(), g1.mu().data(), g0.mu().size()));
  EXPECT_TRUE(
      BytesEqual(g0.sigma().data(), g1.sigma().data(), g0.sigma().size()));
  EXPECT_EQ(g0.sigma_floor(), g1.sigma_floor());
}

TEST_F(StoreTest, CategoricalRoundTripBitExact) {
  const auto m = CategoricalModel(12);
  ASSERT_TRUE(store::WriteModel(m, 1, Path("m.dhmms")).ok());
  auto r = store::ReadModelFromFile<int>(Path("m.dhmms"));
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_TRUE(CoreEqual(m.pi, m.a, r.value().pi, r.value().a));
  const auto& c0 = dynamic_cast<const prob::CategoricalEmission&>(*m.emission);
  const auto& c1 =
      dynamic_cast<const prob::CategoricalEmission&>(*r.value().emission);
  ASSERT_EQ(c0.b().cols(), c1.b().cols());
  EXPECT_TRUE(BytesEqual(c0.b().data(), c1.b().data(),
                         c0.b().rows() * c0.b().cols()));
  EXPECT_EQ(c0.pseudo_count(), c1.pseudo_count());
}

TEST_F(StoreTest, BernoulliRoundTripBitExact) {
  const auto m = BernoulliModel(13);
  ASSERT_TRUE(store::WriteModel(m, 1, Path("m.dhmms")).ok());
  auto r = store::ReadModelFromFile<prob::BinaryObs>(Path("m.dhmms"));
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_TRUE(CoreEqual(m.pi, m.a, r.value().pi, r.value().a));
  const auto& b0 = dynamic_cast<const prob::BernoulliEmission&>(*m.emission);
  const auto& b1 =
      dynamic_cast<const prob::BernoulliEmission&>(*r.value().emission);
  ASSERT_EQ(b0.p().cols(), b1.p().cols());
  EXPECT_TRUE(BytesEqual(b0.p().data(), b1.p().data(),
                         b0.p().rows() * b0.p().cols()));
  EXPECT_EQ(b0.p_floor(), b1.p_floor());
}

TEST_F(StoreTest, GmmRoundTripBitExact) {
  const auto m = GmmModel(14);
  ASSERT_TRUE(store::WriteModel(m, 1, Path("m.dhmms")).ok());
  auto r = store::ReadModelFromFile<double>(Path("m.dhmms"));
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_TRUE(CoreEqual(m.pi, m.a, r.value().pi, r.value().a));
  const auto& g0 = dynamic_cast<const prob::GmmEmission&>(*m.emission);
  const auto& g1 = dynamic_cast<const prob::GmmEmission&>(*r.value().emission);
  ASSERT_EQ(g0.weights().cols(), g1.weights().cols());
  const size_t n = g0.weights().rows() * g0.weights().cols();
  EXPECT_TRUE(BytesEqual(g0.weights().data(), g1.weights().data(), n));
  EXPECT_TRUE(BytesEqual(g0.mu().data(), g1.mu().data(), n));
  EXPECT_TRUE(BytesEqual(g0.sigma().data(), g1.sigma().data(), n));
  EXPECT_EQ(g0.sigma_floor(), g1.sigma_floor());
}

TEST_F(StoreTest, WrongObservationTypeRejected) {
  ASSERT_TRUE(store::WriteModel(GaussianModel(15), 1, Path("m.dhmms")).ok());
  auto r = store::ReadModelFromFile<int>(Path("m.dhmms"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(StoreTest, OpenIsHeaderOnlyAndSectionsVerifyLazily) {
  ASSERT_TRUE(store::WriteModel(GaussianModel(16), 1, Path("m.dhmms")).ok());
  std::vector<unsigned char> image = ReadBytes(Path("m.dhmms"));
  // Corrupt the LAST byte of the file (inside some section payload, far
  // from header and manifest): Open must still succeed — it promises
  // O(header) work — while full verification must catch it.
  image.back() ^= 0x01;
  WriteBytes(Path("m.dhmms"), image);
  auto reader = store::ModelStoreReader::Open(Path("m.dhmms"));
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  EXPECT_FALSE(reader.value().VerifyAllSections().ok());
}

// ---------------------------------------------------------------------------
// Corruption grid

TEST_F(StoreTest, EveryTruncationPrefixRejected) {
  const auto m = GaussianModel(17);
  const std::vector<unsigned char> image = BuildModelImage(m, 3);
  ASSERT_GT(image.size(), store::kStoreHeaderBytes);
  for (size_t len = 0; len < image.size(); ++len) {
    WriteBytes(Path("t.dhmms"),
               std::vector<unsigned char>(image.begin(),
                                          image.begin() + len));
    auto reader = store::ModelStoreReader::Open(Path("t.dhmms"));
    if (reader.ok()) {
      // The header region can be self-consistent before the payload
      // exists only if the recorded file size matched — it cannot, since
      // the file is shorter than the full image. Belt and braces: if Open
      // somehow passed, section verification must fail.
      EXPECT_FALSE(reader.value().VerifyAllSections().ok())
          << "truncation at " << len << " bytes undetected";
    } else {
      EXPECT_EQ(reader.status().code(), StatusCode::kIOError)
          << "truncation at " << len;
    }
  }
}

TEST_F(StoreTest, EveryByteBitFlipDetectedOrHarmless) {
  const auto m = GaussianModel(18);
  const std::vector<unsigned char> image = BuildModelImage(m, 3);
  size_t detected = 0;
  for (size_t i = 0; i < image.size(); ++i) {
    std::vector<unsigned char> bad = image;
    bad[i] ^= 0x10;
    WriteBytes(Path("b.dhmms"), bad);
    auto r = store::ReadModelFromFile<double>(Path("b.dhmms"));
    if (!r.ok()) {
      ++detected;
      continue;
    }
    // Alignment padding between sections is the only region outside every
    // checksum; a flip there must leave the decoded model bitwise
    // identical to the original.
    EXPECT_TRUE(CoreEqual(m.pi, m.a, r.value().pi, r.value().a))
        << "undetected corrupting flip at byte " << i;
    const auto& g0 = dynamic_cast<const prob::GaussianEmission&>(*m.emission);
    const auto& g1 =
        dynamic_cast<const prob::GaussianEmission&>(*r.value().emission);
    EXPECT_TRUE(BytesEqual(g0.mu().data(), g1.mu().data(), g0.mu().size()))
        << "undetected corrupting flip at byte " << i;
  }
  // Every byte of header, manifest, and payloads is covered by a CRC; only
  // padding escapes. Sanity-check the grid actually exercised detection.
  EXPECT_GT(detected, image.size() / 2);
}

TEST_F(StoreTest, HeaderFieldCorruptionsRejectedTyped) {
  const std::vector<unsigned char> image = BuildModelImage(GaussianModel(19), 3);

  struct Case {
    size_t offset;
    const char* what;
  };
  // One poke per validated header field; every one must be a typed
  // IOError, never an abort or a successful open.
  for (const Case& c : {Case{0, "magic"}, Case{8, "version"},
                        Case{12, "flags"}, Case{28, "num_states"},
                        Case{32, "section_count"}, Case{36, "manifest crc"},
                        Case{40, "file size"}, Case{50, "reserved"},
                        Case{60, "header crc"},
                        Case{store::kStoreHeaderBytes, "manifest"}}) {
    std::vector<unsigned char> bad = image;
    bad[c.offset] ^= 0xFF;
    WriteBytes(Path("h.dhmms"), bad);
    auto reader = store::ModelStoreReader::Open(Path("h.dhmms"));
    ASSERT_FALSE(reader.ok()) << c.what;
    EXPECT_EQ(reader.status().code(), StatusCode::kIOError) << c.what;
  }
}

TEST_F(StoreTest, RepeatedSectionIdRejected) {
  // Section(id) answers the first manifest entry with an id, so a second
  // entry under the same id would escape every payload CRC check. Point
  // the last entry at kPi, corrupt its payload, and reseal the manifest
  // and header CRCs (not the section's): the reader must refuse the file.
  std::vector<unsigned char> image = BuildModelImage(GaussianModel(20), 3);
  const size_t n = GetU32(image.data() + 32);
  unsigned char* manifest = image.data() + store::kStoreHeaderBytes;
  unsigned char* last = manifest + (n - 1) * store::kStoreManifestEntryBytes;
  PutU32(last, static_cast<uint32_t>(store::SectionId::kPi));
  image[GetU64(last + 8)] ^= 0x01;
  PutU32(image.data() + 36,
         store::Crc32c(manifest, n * store::kStoreManifestEntryBytes));
  PutU32(image.data() + 60, store::Crc32c(image.data(), 60));
  WriteBytes(Path("dup.dhmms"), image);

  auto reader = store::ModelStoreReader::Open(Path("dup.dhmms"));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
  auto r = store::ReadModelFromFile<double>(Path("dup.dhmms"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);

  // The writer never produces such a manifest.
  const double pi[2] = {0.5, 0.5};
  std::vector<unsigned char> out;
  const Status st = store::ModelStoreWriter::BuildImage(
      1, static_cast<uint32_t>(store::EmissionTag::kGaussian), 2,
      {{store::SectionId::kPi, pi, 1, 2}, {store::SectionId::kPi, pi, 1, 2}},
      &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(StoreTest, MissingFileAndEmptyFile) {
  EXPECT_FALSE(store::ModelStoreReader::Open(Path("absent.dhmms")).ok());
  WriteBytes(Path("empty.dhmms"), {});
  EXPECT_FALSE(store::ModelStoreReader::Open(Path("empty.dhmms")).ok());
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzz: fixed seeds and iteration counts, every family

/// Applies 1-3 edits: a flipped bit anywhere, or a NaN, +-inf, negative or
/// huge double written over an aligned 8-byte slot (store images are whole
/// 8-byte slots: a 64-byte header, 40-byte manifest entries, and double
/// payloads at 64-byte offsets).
void Mutate(std::mt19937_64* rng, std::vector<unsigned char>* image) {
  static constexpr double kValues[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), -0.5, 1e300};
  const int edits = 1 + static_cast<int>((*rng)() % 3);
  for (int e = 0; e < edits; ++e) {
    const uint64_t r = (*rng)();
    const uint64_t pick = r % 6;
    const uint64_t at = r >> 8;
    if (pick == 5) {
      const size_t bit = at % (image->size() * 8);
      (*image)[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    } else {
      std::memcpy(image->data() + at % (image->size() / 8) * 8,
                  &kValues[pick], sizeof(double));
    }
  }
}

/// Fuzzes one family's image; returns how many mutants loaded.
template <typename Obs>
size_t FuzzReadModel(const hmm::HmmModel<Obs>& model, uint64_t seed,
                     int iterations, const std::string& path) {
  const std::vector<unsigned char> image = BuildModelImage(model, 3);
  EXPECT_EQ(image.size() % 8, 0u);
  // Every mutant has the image's size, so each one overwrites the file in
  // place: truncating the file on every iteration would cost more than
  // the read under test.
  WriteBytes(path, image);
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  std::mt19937_64 rng(seed);
  size_t loaded = 0;
  for (int it = 0; it < iterations; ++it) {
    std::vector<unsigned char> mutant = image;
    Mutate(&rng, &mutant);
    Reseal(&mutant);
    file.seekp(0);
    file.write(reinterpret_cast<const char*>(mutant.data()),
               static_cast<std::streamsize>(mutant.size()));
    file.flush();
    EXPECT_TRUE(file.good());
    auto r = store::ReadModelFromFile<Obs>(path);
    if (r.ok()) {
      r.value().Validate();  // aborts on an inconsistent model
      ++loaded;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kIOError)
          << "seed " << seed << " iteration " << it << ": "
          << r.status().ToString();
    }
  }
  return loaded;
}

TEST_F(StoreTest, SeededMutationFuzzIsTypedIOErrorOrValidModel) {
  constexpr int kIterations = 10000;  // per family
  const std::string path = Path("fuzz.dhmms");
  const size_t loaded[] = {
      FuzzReadModel(GaussianModel(40), 40, kIterations, path),
      FuzzReadModel(CategoricalModel(41), 41, kIterations, path),
      FuzzReadModel(BernoulliModel(42), 42, kIterations, path),
      FuzzReadModel(GmmModel(43), 43, kIterations, path)};
  // Resealing lets mutants through the checksums: some must load, or the
  // fuzz never reached the codec's semantic checks.
  for (size_t n : loaded) EXPECT_GT(n, kIterations / 20u);
}

// ---------------------------------------------------------------------------
// Dual-slot store

TEST_F(StoreTest, DualSlotPublishAndReopen) {
  const std::string dir = DirPath("slots");
  auto s = store::DualSlotStore::Open(dir);
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE(s.value().has_model());
  EXPECT_FALSE(s.value().Load<double>().ok());

  // Process-wide counters: assert exact deltas around the two publishes.
  obs::Counter* publishes =
      obs::Registry::Global().GetCounter("store.publishes");
  const uint64_t publishes_before = publishes->Value();

  const auto m1 = GaussianModel(21);
  const auto m2 = GaussianModel(22);
  ASSERT_TRUE(s.value().Publish(m1).ok());
  EXPECT_EQ(s.value().sequence_number(), 1u);
  ASSERT_TRUE(s.value().Publish(m2).ok());
  EXPECT_EQ(s.value().sequence_number(), 2u);
  EXPECT_EQ(publishes->Value() - publishes_before, 2u);

  // A fresh Open (new process, conceptually) sees the latest publish.
  auto reopened = store::DualSlotStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().sequence_number(), 2u);
  auto loaded = reopened.value().Load<double>();
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(CoreEqual(m2.pi, m2.a, loaded.value().pi, loaded.value().a));
}

TEST_F(StoreTest, CorruptActiveSlotFallsBackToPrevious) {
  const std::string dir = DirPath("slots");
  auto s = store::DualSlotStore::Open(dir);
  ASSERT_TRUE(s.ok());
  const auto m1 = GaussianModel(23);
  const auto m2 = GaussianModel(24);
  ASSERT_TRUE(s.value().Publish(m1).ok());  // slot A, seq 1
  ASSERT_TRUE(s.value().Publish(m2).ok());  // slot B, seq 2, active

  // Flip one bit inside the active slot's payload.
  std::vector<unsigned char> bytes = ReadBytes(dir + "/slot_b.dhmms");
  bytes.back() ^= 0x04;
  WriteBytes(dir + "/slot_b.dhmms", bytes);

  // The survived failover is observable: the reopen counts the corrupt
  // slot it skipped and the active-slot fallback (manifest said B, the
  // store chose A).
  obs::Registry& reg = obs::Registry::Global();
  const uint64_t crc_before =
      reg.GetCounter("store.crc_failures_survived")->Value();
  const uint64_t fallback_before =
      reg.GetCounter("store.fallback_opens")->Value();

  auto reopened = store::DualSlotStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(reopened.value().has_model());
  EXPECT_EQ(reopened.value().sequence_number(), 1u);
  auto loaded = reopened.value().Load<double>();
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(CoreEqual(m1.pi, m1.a, loaded.value().pi, loaded.value().a));
  EXPECT_EQ(reg.GetCounter("store.crc_failures_survived")->Value() -
                crc_before,
            1u);
  EXPECT_EQ(reg.GetCounter("store.fallback_opens")->Value() -
                fallback_before,
            1u);
}

TEST_F(StoreTest, TornPublishNewerSlotWinsOverStaleManifest) {
  const std::string dir = DirPath("slots");
  auto s = store::DualSlotStore::Open(dir);
  ASSERT_TRUE(s.ok());
  const auto m1 = GaussianModel(25);
  ASSERT_TRUE(s.value().Publish(m1).ok());  // slot A, seq 1; manifest -> A

  // Simulate a publisher that crashed after the slot write but before the
  // manifest flip: slot B carries seq 2, the manifest still points at A.
  const auto m2 = GaussianModel(26);
  ASSERT_TRUE(store::WriteModel(m2, 2, dir + "/slot_b.dhmms").ok());

  auto reopened = store::DualSlotStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().sequence_number(), 2u);
  auto loaded = reopened.value().Load<double>();
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(CoreEqual(m2.pi, m2.a, loaded.value().pi, loaded.value().a));
}

TEST_F(StoreTest, StaleSequenceNumberLosesToNewerValidSlot) {
  const std::string dir = DirPath("slots");
  auto s = store::DualSlotStore::Open(dir);
  ASSERT_TRUE(s.ok());
  // Hand-write slots out of order: A at seq 9, B at seq 4.
  const auto m_new = GaussianModel(27);
  const auto m_old = GaussianModel(28);
  ASSERT_TRUE(store::WriteModel(m_new, 9, dir + "/slot_a.dhmms").ok());
  ASSERT_TRUE(store::WriteModel(m_old, 4, dir + "/slot_b.dhmms").ok());

  auto reopened = store::DualSlotStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().sequence_number(), 9u);
  // The next publish must target the non-active slot (B).
  EXPECT_EQ(reopened.value().publish_slot(), 1);
}

TEST_F(StoreTest, CorruptManifestIsOnlyAHint) {
  const std::string dir = DirPath("slots");
  auto s = store::DualSlotStore::Open(dir);
  ASSERT_TRUE(s.ok());
  const auto m1 = GaussianModel(29);
  ASSERT_TRUE(s.value().Publish(m1).ok());

  WriteBytes(dir + "/MANIFEST", {'g', 'a', 'r', 'b', 'a', 'g', 'e'});
  auto reopened = store::DualSlotStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().sequence_number(), 1u);
  EXPECT_TRUE(reopened.value().Load<double>().ok());
}

TEST_F(StoreTest, BothSlotsCorruptMeansNoModel) {
  const std::string dir = DirPath("slots");
  auto s = store::DualSlotStore::Open(dir);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(s.value().Publish(GaussianModel(30)).ok());
  ASSERT_TRUE(s.value().Publish(GaussianModel(31)).ok());
  for (const char* slot : {"slot_a.dhmms", "slot_b.dhmms"}) {
    std::vector<unsigned char> bytes = ReadBytes(DirPath("slots") +
                                                 "/" + slot);
    bytes[bytes.size() / 2] ^= 0x20;
    WriteBytes(DirPath("slots") + "/" + slot, bytes);
  }
  auto reopened = store::DualSlotStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(reopened.value().has_model());
  auto loaded = reopened.value().Load<double>();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// LoadAnyModel routing

TEST_F(StoreTest, LoadAnyModelRoutesTextBinaryAndDirectory) {
  const auto m = GaussianModel(32);

  // The store is the only model format: a text model file is not parsed,
  // it is a typed IOError like any other non-store file.
  {
    std::ofstream os(Path("text.hmm"));
    os << "dhmm-model 1\n1\n1\n1\ngaussian\n1 0.0001\n0 1\n";
  }
  auto from_text = store::LoadAnyModel<double>(Path("text.hmm"));
  ASSERT_FALSE(from_text.ok());
  EXPECT_EQ(from_text.status().code(), StatusCode::kIOError);

  ASSERT_TRUE(store::WriteModel(m, 1, Path("bin.dhmms")).ok());
  auto from_bin = store::LoadAnyModel<double>(Path("bin.dhmms"));
  ASSERT_TRUE(from_bin.ok()) << from_bin.status().message();
  EXPECT_TRUE(
      CoreEqual(m.pi, m.a, from_bin.value().pi, from_bin.value().a));

  auto slots = store::DualSlotStore::Open(DirPath("slots"));
  ASSERT_TRUE(slots.ok());
  ASSERT_TRUE(slots.value().Publish(m).ok());
  auto from_dir = store::LoadAnyModel<double>(DirPath("slots"));
  ASSERT_TRUE(from_dir.ok()) << from_dir.status().message();
  EXPECT_TRUE(
      CoreEqual(m.pi, m.a, from_dir.value().pi, from_dir.value().a));
}

// ---------------------------------------------------------------------------
// Serve-layer failsafe reload

TEST_F(StoreTest, ReloadFromCorruptStoreKeepsServingBitwiseUnchanged) {
  const auto m = GaussianModel(33);
  serve::DecodeService<double> service(
      std::make_shared<const hmm::HmmModel<double>>(m));

  prob::Rng rng(34);
  hmm::Dataset<double> data = hmm::SampleDataset(m, 1, 40, rng);
  auto before = service.Submit(serve::DecodeKind::kPosterior, data[0].obs);
  const std::vector<int> path_before = before.Wait().path;
  const double value_before = before.Wait().value;
  before.Release();

  // A corrupt binary checkpoint must be rejected...
  ASSERT_TRUE(store::WriteModel(GaussianModel(35), 2, Path("c.dhmms")).ok());
  std::vector<unsigned char> bytes = ReadBytes(Path("c.dhmms"));
  bytes.back() ^= 0x08;
  WriteBytes(Path("c.dhmms"), bytes);
  const uint64_t version = service.model_version();
  Status st = service.ReloadModel(Path("c.dhmms"));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(service.model_version(), version);

  // ...and the previous snapshot keeps serving, bitwise unchanged.
  auto after = service.Submit(serve::DecodeKind::kPosterior, data[0].obs);
  EXPECT_EQ(after.Wait().path, path_before);
  EXPECT_EQ(after.Wait().value, value_before);
  after.Release();
}

TEST_F(StoreTest, ReloadFromDualSlotDirWithCorruptActiveSlotServesFallback) {
  const auto m1 = GaussianModel(36);
  const auto m2 = GaussianModel(37);
  const std::string dir = DirPath("slots");
  auto slots = store::DualSlotStore::Open(dir);
  ASSERT_TRUE(slots.ok());
  ASSERT_TRUE(slots.value().Publish(m1).ok());
  ASSERT_TRUE(slots.value().Publish(m2).ok());

  serve::ModelRegistry<double> registry;
  ASSERT_TRUE(registry.RegisterFromFile(1, dir).ok());
  {
    auto svc = registry.Acquire(1);
    ASSERT_TRUE(svc.ok());
    EXPECT_TRUE(CoreEqual(m2.pi, m2.a, svc.value()->ModelSnapshot()->pi,
                          svc.value()->ModelSnapshot()->a));
  }

  // Corrupt the active slot; ReloadModel falls back to the surviving one.
  std::vector<unsigned char> bytes = ReadBytes(dir + "/slot_b.dhmms");
  bytes.back() ^= 0x02;
  WriteBytes(dir + "/slot_b.dhmms", bytes);
  ASSERT_TRUE(registry.ReloadModel(1).ok());
  auto svc = registry.Acquire(1);
  ASSERT_TRUE(svc.ok());
  EXPECT_TRUE(CoreEqual(m1.pi, m1.a, svc.value()->ModelSnapshot()->pi,
                        svc.value()->ModelSnapshot()->a));
}

}  // namespace
}  // namespace dhmm
