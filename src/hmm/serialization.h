// Text serialization of HMM / dHMM models.
//
// Format (whitespace separated):
//   dhmm-model 1
//   <k>
//   <pi: k doubles>
//   <A: k*k doubles, row major>
//   <emission type tag>
//   <emission payload (type-specific)>
#ifndef DHMM_HMM_SERIALIZATION_H_
#define DHMM_HMM_SERIALIZATION_H_

#include <cmath>
#include <cstddef>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>

#include "hmm/model.h"
#include "prob/bernoulli_emission.h"
#include "prob/categorical_emission.h"
#include "prob/gaussian_emission.h"
#include "prob/gmm_emission.h"
#include "util/fsio.h"
#include "util/status.h"

namespace dhmm::hmm {

namespace internal {

/// Per-observation-type emission factory used by LoadHmm.
template <typename Obs>
struct EmissionLoader;

template <>
struct EmissionLoader<double> {
  static Result<std::unique_ptr<prob::EmissionModel<double>>> Load(
      const std::string& type, std::istream& is) {
    if (type == "gaussian") {
      auto r = prob::GaussianEmission::Load(is);
      if (!r.ok()) return r.status();
      return std::unique_ptr<prob::EmissionModel<double>>(
          std::make_unique<prob::GaussianEmission>(std::move(r.value())));
    }
    if (type == "gmm") {
      auto r = prob::GmmEmission::Load(is);
      if (!r.ok()) return r.status();
      return std::unique_ptr<prob::EmissionModel<double>>(
          std::make_unique<prob::GmmEmission>(std::move(r.value())));
    }
    return Status::InvalidArgument("unknown scalar emission type: " + type);
  }
};

template <>
struct EmissionLoader<int> {
  static Result<std::unique_ptr<prob::EmissionModel<int>>> Load(
      const std::string& type, std::istream& is) {
    if (type == "categorical") {
      auto r = prob::CategoricalEmission::Load(is);
      if (!r.ok()) return r.status();
      return std::unique_ptr<prob::EmissionModel<int>>(
          std::make_unique<prob::CategoricalEmission>(std::move(r.value())));
    }
    return Status::InvalidArgument("unknown symbol emission type: " + type);
  }
};

template <>
struct EmissionLoader<prob::BinaryObs> {
  static Result<std::unique_ptr<prob::EmissionModel<prob::BinaryObs>>> Load(
      const std::string& type, std::istream& is) {
    if (type == "bernoulli") {
      auto r = prob::BernoulliEmission::Load(is);
      if (!r.ok()) return r.status();
      return std::unique_ptr<prob::EmissionModel<prob::BinaryObs>>(
          std::make_unique<prob::BernoulliEmission>(std::move(r.value())));
    }
    return Status::InvalidArgument("unknown binary emission type: " + type);
  }
};

}  // namespace internal

/// \brief Writes a model as text.
template <typename Obs>
Status SaveHmm(const HmmModel<Obs>& model, std::ostream& os) {
  model.Validate();
  const size_t k = model.num_states();
  os << "dhmm-model 1\n" << k << "\n";
  os.precision(17);
  for (size_t i = 0; i < k; ++i) os << model.pi[i] << (i + 1 == k ? "\n" : " ");
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      os << model.a(i, j) << (j + 1 == k ? "\n" : " ");
    }
  }
  os << model.emission->TypeName() << "\n";
  DHMM_RETURN_NOT_OK(model.emission->Save(os));
  if (!os) return Status::IOError("stream failure while saving model");
  return Status::OK();
}

/// Largest state count LoadHmm will accept. Real models in this system are
/// tens of states; the bound exists so a corrupt header cannot request an
/// absurd k and drive an unbounded allocation before any payload is read.
inline constexpr size_t kMaxSerializedStates = 4096;

/// Row-normalization slack accepted on load; matches HmmModel::Validate so
/// everything SaveHmm writes round-trips.
inline constexpr double kSerializationStochasticTol = 1e-6;

/// \brief Reads a model written by SaveHmm.
///
/// Malformed streams fail with a Status instead of deferring the damage:
/// an absurd state count is an IOError before anything is allocated, and
/// non-stochastic pi / transition rows are an InvalidArgument here rather
/// than a mid-training abort later (HmmModel's constructor CHECK-fails on
/// them).
template <typename Obs>
Result<HmmModel<Obs>> LoadHmm(std::istream& is) {
  std::string magic;
  int version = 0;
  if (!(is >> magic >> version) || magic != "dhmm-model" || version != 1) {
    return Status::IOError("not a dhmm-model v1 stream");
  }
  size_t k = 0;
  if (!(is >> k) || k == 0) return Status::IOError("bad state count");
  if (k > kMaxSerializedStates) {
    return Status::IOError("unreasonable state count: " + std::to_string(k));
  }
  linalg::Vector pi(k);
  double pi_sum = 0.0;
  for (size_t i = 0; i < k; ++i) {
    if (!(is >> pi[i])) return Status::IOError("bad pi");
    if (!(pi[i] >= -1e-12)) {  // negated >= also rejects NaN
      return Status::InvalidArgument("pi has a negative entry");
    }
    pi_sum += pi[i];
  }
  if (!(std::fabs(pi_sum - 1.0) < kSerializationStochasticTol)) {
    return Status::InvalidArgument("pi does not sum to 1");
  }
  linalg::Matrix a(k, k);
  for (size_t i = 0; i < k; ++i) {
    double row_sum = 0.0;
    for (size_t j = 0; j < k; ++j) {
      if (!(is >> a(i, j))) return Status::IOError("bad transition matrix");
      if (!(a(i, j) >= -1e-12)) {
        return Status::InvalidArgument("transition matrix has a negative "
                                       "entry in row " + std::to_string(i));
      }
      row_sum += a(i, j);
    }
    if (!(std::fabs(row_sum - 1.0) < kSerializationStochasticTol)) {
      return Status::InvalidArgument("transition row " + std::to_string(i) +
                                     " does not sum to 1");
    }
  }
  std::string type;
  if (!(is >> type)) return Status::IOError("missing emission type");
  auto emission = internal::EmissionLoader<Obs>::Load(type, is);
  if (!emission.ok()) return emission.status();
  if (emission.value()->num_states() != k) {
    return Status::IOError("emission state count mismatch");
  }
  return HmmModel<Obs>(std::move(pi), std::move(a),
                       std::move(emission).value());
}

/// \brief Crash-consistent file save: serializes with SaveHmm, then
/// replaces `path` through util::AtomicWriteFile (write `path + ".tmp"`,
/// flush + fsync, rename over `path`, fsync the parent directory).
///
/// A process crash, power loss, full disk, or write error therefore never
/// leaves a truncated checkpoint at `path` — a concurrent reader (e.g. the
/// serve layer's hot-reload) sees either the previous complete model or
/// the new one, never a torn file. The temp path is deterministic, so
/// concurrent writers to the *same* path must be externally serialized
/// (last rename wins).
template <typename Obs>
Status SaveHmmToFile(const HmmModel<Obs>& model, const std::string& path) {
  std::ostringstream os;
  DHMM_RETURN_NOT_OK(SaveHmm(model, os));
  const std::string bytes = os.str();
  return util::AtomicWriteFile(path, bytes.data(), bytes.size());
}

template <typename Obs>
Result<HmmModel<Obs>> LoadHmmFromFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::IOError("cannot open for read: " + path);
  return LoadHmm<Obs>(is);
}

}  // namespace dhmm::hmm

#endif  // DHMM_HMM_SERIALIZATION_H_
