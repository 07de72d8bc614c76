// HmmModel <-> binary store mapping for every in-tree emission family.
//
// The store container (store/model_store.h) moves checksummed double
// blocks; this header knows that a Gaussian emission is mu + sigma + a
// variance floor. Section/tag assignments are format contract:
//
//   tag 1 categorical (Obs=int):       scalars=[pseudo_count], E0=b (k x V)
//   tag 2 bernoulli  (Obs=BinaryObs):  scalars=[p_floor],      E0=p (k x D)
//   tag 3 gaussian   (Obs=double):     scalars=[sigma_floor],  E0=mu (1 x k),
//                                      E1=sigma (1 x k)
//   tag 4 gmm        (Obs=double):     scalars=[sigma_floor],  E0=weights,
//                                      E1=mu, E2=sigma (all k x M)
//
// ReadModel validates every parameter (stochastic rows, finite means,
// finite positive variances, sane floors) before any constructor can
// CHECK-abort or a reload can swap in a model that scores NaN: a store
// file that passes every CRC can still be a hand-built hostile file, so
// checksums gate corruption and validation gates semantics.
#ifndef DHMM_STORE_MODEL_CODEC_H_
#define DHMM_STORE_MODEL_CODEC_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hmm/model.h"
#include "prob/bernoulli_emission.h"
#include "prob/categorical_emission.h"
#include "prob/gaussian_emission.h"
#include "prob/gmm_emission.h"
#include "store/model_store.h"
#include "util/status.h"

namespace dhmm::store {

/// Emission type tags (format contract — append, never renumber).
enum class EmissionTag : uint32_t {
  kCategorical = 1,
  kBernoulli = 2,
  kGaussian = 3,
  kGmm = 4,
};

namespace internal {

/// Row-stochastic check: every entry is >= -1e-12 (NaN fails) and every
/// row sums to 1 within HmmModel::Validate's 1e-6.
inline bool RowsStochastic(const double* data, size_t rows, size_t cols) {
  for (size_t i = 0; i < rows; ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      const double v = data[i * cols + j];
      if (!(v >= -1e-12)) return false;  // negated >= also rejects NaN
      sum += v;
    }
    if (!(std::fabs(sum - 1.0) < 1e-6)) return false;
  }
  return true;
}

/// True when v is finite and > 0 (NaN and +inf fail).
inline bool FinitePositive(double v) { return v > 0.0 && std::isfinite(v); }

/// True when every element of the block is finite (NaN and +-inf fail).
inline bool AllFinite(const SectionView& view) {
  return std::all_of(view.data, view.data + view.size(),
                     [](double v) { return std::isfinite(v); });
}

/// True when every element of the block is finite and > 0.
inline bool AllFinitePositive(const SectionView& view) {
  return std::all_of(view.data, view.data + view.size(), FinitePositive);
}

inline linalg::Matrix CopyMatrix(const SectionView& view) {
  linalg::Matrix m(view.rows, view.cols);
  std::memcpy(m.data(), view.data, view.size() * sizeof(double));
  return m;
}

inline linalg::Vector CopyRowVector(const SectionView& view) {
  linalg::Vector v(view.size());
  std::memcpy(v.data(), view.data, view.size() * sizeof(double));
  return v;
}

/// Per-observation-type emission codec: Append lists a family's sections,
/// Make validates them and builds the family.
template <typename Obs>
struct EmissionCodec;

template <>
struct EmissionCodec<int> {
  static Status Append(const prob::EmissionModel<int>& emission,
                       uint32_t* tag, double* scalars, size_t* num_scalars,
                       std::vector<SectionSpec>* sections) {
    const auto* cat =
        dynamic_cast<const prob::CategoricalEmission*>(&emission);
    if (cat == nullptr) {
      return Status::InvalidArgument("store: unsupported symbol emission");
    }
    *tag = static_cast<uint32_t>(EmissionTag::kCategorical);
    scalars[0] = cat->pseudo_count();
    *num_scalars = 1;
    sections->push_back({SectionId::kEmission0, cat->b().data(),
                         cat->b().rows(), cat->b().cols()});
    return Status::OK();
  }

  static Result<std::unique_ptr<prob::EmissionModel<int>>> Make(
      uint32_t tag, const double* scalars, size_t num_scalars,
      const std::vector<SectionView>& blocks, size_t k) {
    if (tag != static_cast<uint32_t>(EmissionTag::kCategorical)) {
      return Status::IOError("store: unexpected symbol emission tag " +
                             std::to_string(tag));
    }
    if (num_scalars != 1 || !std::isfinite(scalars[0]) || scalars[0] < 0.0 ||
        blocks.size() != 1 || blocks[0].rows != k || blocks[0].cols == 0 ||
        !RowsStochastic(blocks[0].data, blocks[0].rows, blocks[0].cols)) {
      return Status::IOError("store: bad categorical emission payload");
    }
    return std::unique_ptr<prob::EmissionModel<int>>(
        std::make_unique<prob::CategoricalEmission>(CopyMatrix(blocks[0]),
                                                    scalars[0]));
  }
};

template <>
struct EmissionCodec<prob::BinaryObs> {
  static Status Append(const prob::EmissionModel<prob::BinaryObs>& emission,
                       uint32_t* tag, double* scalars, size_t* num_scalars,
                       std::vector<SectionSpec>* sections) {
    const auto* ber =
        dynamic_cast<const prob::BernoulliEmission*>(&emission);
    if (ber == nullptr) {
      return Status::InvalidArgument("store: unsupported binary emission");
    }
    *tag = static_cast<uint32_t>(EmissionTag::kBernoulli);
    scalars[0] = ber->p_floor();
    *num_scalars = 1;
    sections->push_back({SectionId::kEmission0, ber->p().data(),
                         ber->p().rows(), ber->p().cols()});
    return Status::OK();
  }

  static Result<std::unique_ptr<prob::EmissionModel<prob::BinaryObs>>> Make(
      uint32_t tag, const double* scalars, size_t num_scalars,
      const std::vector<SectionView>& blocks, size_t k) {
    if (tag != static_cast<uint32_t>(EmissionTag::kBernoulli)) {
      return Status::IOError("store: unexpected binary emission tag " +
                             std::to_string(tag));
    }
    if (num_scalars != 1 || !(scalars[0] > 0.0) || !(scalars[0] < 0.5) ||
        blocks.size() != 1 || blocks[0].rows != k || blocks[0].cols == 0) {
      return Status::IOError("store: bad bernoulli emission payload");
    }
    for (size_t i = 0; i < blocks[0].size(); ++i) {
      const double p = blocks[0].data[i];
      if (!(p >= 0.0) || !(p <= 1.0)) {
        return Status::IOError("store: bad bernoulli emission payload");
      }
    }
    return std::unique_ptr<prob::EmissionModel<prob::BinaryObs>>(
        std::make_unique<prob::BernoulliEmission>(CopyMatrix(blocks[0]),
                                                  scalars[0]));
  }
};

template <>
struct EmissionCodec<double> {
  static Status Append(const prob::EmissionModel<double>& emission,
                       uint32_t* tag, double* scalars, size_t* num_scalars,
                       std::vector<SectionSpec>* sections) {
    if (const auto* g =
            dynamic_cast<const prob::GaussianEmission*>(&emission)) {
      *tag = static_cast<uint32_t>(EmissionTag::kGaussian);
      scalars[0] = g->sigma_floor();
      *num_scalars = 1;
      sections->push_back(
          {SectionId::kEmission0, g->mu().data(), 1, g->mu().size()});
      sections->push_back(
          {SectionId::kEmission1, g->sigma().data(), 1, g->sigma().size()});
      return Status::OK();
    }
    if (const auto* g = dynamic_cast<const prob::GmmEmission*>(&emission)) {
      *tag = static_cast<uint32_t>(EmissionTag::kGmm);
      scalars[0] = g->sigma_floor();
      *num_scalars = 1;
      sections->push_back({SectionId::kEmission0, g->weights().data(),
                           g->weights().rows(), g->weights().cols()});
      sections->push_back({SectionId::kEmission1, g->mu().data(),
                           g->mu().rows(), g->mu().cols()});
      sections->push_back({SectionId::kEmission2, g->sigma().data(),
                           g->sigma().rows(), g->sigma().cols()});
      return Status::OK();
    }
    return Status::InvalidArgument("store: unsupported scalar emission");
  }

  static Result<std::unique_ptr<prob::EmissionModel<double>>> Make(
      uint32_t tag, const double* scalars, size_t num_scalars,
      const std::vector<SectionView>& blocks, size_t k) {
    if (tag == static_cast<uint32_t>(EmissionTag::kGaussian)) {
      if (num_scalars != 1 || !FinitePositive(scalars[0]) ||
          blocks.size() != 2 || blocks[0].size() != k ||
          blocks[1].size() != k || !AllFinite(blocks[0]) ||
          !AllFinitePositive(blocks[1])) {
        return Status::IOError("store: bad gaussian emission payload");
      }
      return std::unique_ptr<prob::EmissionModel<double>>(
          std::make_unique<prob::GaussianEmission>(CopyRowVector(blocks[0]),
                                                   CopyRowVector(blocks[1]),
                                                   scalars[0]));
    }
    if (tag == static_cast<uint32_t>(EmissionTag::kGmm)) {
      if (num_scalars != 1 || !FinitePositive(scalars[0]) ||
          blocks.size() != 3 || blocks[0].rows != k || blocks[0].cols == 0 ||
          blocks[1].rows != blocks[0].rows ||
          blocks[1].cols != blocks[0].cols ||
          blocks[2].rows != blocks[0].rows ||
          blocks[2].cols != blocks[0].cols ||
          !RowsStochastic(blocks[0].data, blocks[0].rows, blocks[0].cols) ||
          !AllFinite(blocks[1]) || !AllFinitePositive(blocks[2])) {
        return Status::IOError("store: bad gmm emission payload");
      }
      return std::unique_ptr<prob::EmissionModel<double>>(
          std::make_unique<prob::GmmEmission>(
              CopyMatrix(blocks[0]), CopyMatrix(blocks[1]),
              CopyMatrix(blocks[2]), scalars[0]));
    }
    return Status::IOError("store: unexpected scalar emission tag " +
                           std::to_string(tag));
  }
};

}  // namespace internal

/// \brief Writes `model` as one binary store file at `path`, atomically
/// (temp + fsync + rename + parent-directory fsync). `sequence_number` is
/// the caller's publish counter — the dual-slot layer supplies a monotonic
/// one; standalone files can pass anything.
template <typename Obs>
Status WriteModel(const hmm::HmmModel<Obs>& model, uint64_t sequence_number,
                  const std::string& path) {
  model.Validate();
  const size_t k = model.num_states();
  double scalars[4] = {0, 0, 0, 0};
  size_t num_scalars = 0;
  uint32_t tag = 0;
  std::vector<SectionSpec> sections;
  sections.reserve(6);
  sections.push_back({SectionId::kPi, model.pi.data(), 1, k});
  sections.push_back({SectionId::kTransition, model.a.data(), k, k});
  DHMM_RETURN_NOT_OK(internal::EmissionCodec<Obs>::Append(
      *model.emission, &tag, scalars, &num_scalars, &sections));
  if (num_scalars > 0) {
    sections.push_back({SectionId::kScalars, scalars, 1, num_scalars});
  }
  return ModelStoreWriter::Write(path, sequence_number, tag,
                                 static_cast<uint32_t>(k), sections);
}

/// \brief Materializes a model from an opened reader. Copies parameter
/// bytes into aligned linalg buffers (emission families also rebuild their
/// cached log tables); callers that only need validation stop at Open +
/// VerifyAllSections without paying this copy.
template <typename Obs>
Result<hmm::HmmModel<Obs>> ReadModel(const ModelStoreReader& reader) {
  const size_t k = reader.num_states();

  auto pi_view = reader.Section(SectionId::kPi);
  if (!pi_view.ok()) return pi_view.status();
  if (pi_view.value().size() != k ||
      !internal::RowsStochastic(pi_view.value().data, 1, k)) {
    return Status::IOError("store: bad pi section");
  }

  auto a_view = reader.Section(SectionId::kTransition);
  if (!a_view.ok()) return a_view.status();
  if (a_view.value().rows != k || a_view.value().cols != k ||
      !internal::RowsStochastic(a_view.value().data, k, k)) {
    return Status::IOError("store: bad transition section");
  }

  double scalars[4] = {0, 0, 0, 0};
  size_t num_scalars = 0;
  if (reader.HasSection(SectionId::kScalars)) {
    auto view = reader.Section(SectionId::kScalars);
    if (!view.ok()) return view.status();
    num_scalars = view.value().size();
    if (num_scalars > 4) return Status::IOError("store: bad scalar section");
    std::memcpy(scalars, view.value().data, num_scalars * sizeof(double));
  }

  std::vector<SectionView> blocks;
  for (SectionId id :
       {SectionId::kEmission0, SectionId::kEmission1, SectionId::kEmission2}) {
    if (!reader.HasSection(id)) break;
    auto view = reader.Section(id);
    if (!view.ok()) return view.status();
    blocks.push_back(view.value());
  }

  auto emission = internal::EmissionCodec<Obs>::Make(
      reader.emission_type(), scalars, num_scalars, blocks, k);
  if (!emission.ok()) return emission.status();
  if (emission.value()->num_states() != k) {
    return Status::IOError("store: emission state count mismatch");
  }

  linalg::Vector pi = internal::CopyRowVector(pi_view.value());
  linalg::Matrix a = internal::CopyMatrix(a_view.value());
  return hmm::HmmModel<Obs>(std::move(pi), std::move(a),
                            std::move(emission).value());
}

/// \brief Open + full integrity verification + materialization, in one
/// call — the reload path's workhorse. Any corruption anywhere in the
/// file is a typed IOError before a single parameter is copied out.
template <typename Obs>
Result<hmm::HmmModel<Obs>> ReadModelFromFile(const std::string& path) {
  auto reader = ModelStoreReader::Open(path);
  if (!reader.ok()) return reader.status();
  DHMM_RETURN_NOT_OK(reader.value().VerifyAllSections());
  return ReadModel<Obs>(reader.value());
}

}  // namespace dhmm::store

#endif  // DHMM_STORE_MODEL_CODEC_H_
