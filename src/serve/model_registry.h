// Multi-model serving: id-keyed registry of RCU-swappable model snapshots.
//
// A fleet-scale labeling service holds many resident HMMs (per-tenant,
// per-language, per-alphabet). ModelRegistry maps a ModelId to a
// DecodeService — the PR-5 batched decode engine, which already holds its
// model as an RCU shared_ptr snapshot — and adds the fleet concerns on
// top: per-id registration and hot-swap (UpdateModel / ReloadModel(path)),
// per-model version counters, and an LRU residency cap so cold models give
// up their worker threads and workspaces while hot (pinned) models never
// get evicted.
//
// Every registered model decodes bitwise-identically to an offline
// single-threaded decode — that is DecodeService's contract, and the
// registry never touches the numeric path (tests/frontend_test.cc pins it
// over the wire for multiple registered models).
//
// Hot-reload error contract: a failed load during ReloadModel leaves the
// previous snapshot serving and surfaces the Status to the caller.
// Checkpoint paths route through store::LoadAnyModel — a `.dhmms` store
// file or a dual-slot directory, CRC-verified and mmap-read. Combined with
// atomic tmp+fsync+rename saves and per-section checksums, a torn,
// half-written, or bit-flipped checkpoint can never replace a live model.
//
// Acquire() is the request path: a mutex-guarded map lookup, an LRU tick
// bump, and a shared_ptr copy — no allocation. Holders keep the service
// alive even if the entry is evicted concurrently (RCU-style: eviction
// only drops the registry's reference).
#ifndef DHMM_SERVE_MODEL_REGISTRY_H_
#define DHMM_SERVE_MODEL_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "hmm/model.h"
#include "obs/metrics.h"
#include "serve/decode_service.h"
#include "serve/request.h"
#include "store/dual_slot.h"
#include "util/check.h"
#include "util/status.h"

namespace dhmm::serve {

/// Options for the registry. Designated-initializer-friendly POD with a
/// Validate() checked at construction — the shared shape of every serve
/// options struct (see the README options table).
struct ModelRegistryOptions {
  /// Most models resident (worker threads + workspaces alive) at once.
  /// Registering or cold-loading past the cap evicts the least recently
  /// acquired unpinned model; pinned models never count as eviction
  /// candidates, so an all-pinned registry may exceed the cap.
  size_t max_resident = 8;
  /// Options for each per-model DecodeService.
  DecodeServiceOptions service;

  Status Validate() const {
    if (max_resident == 0) {
      return Status::InvalidArgument(
          "ModelRegistryOptions::max_resident must be >= 1");
    }
    return service.Validate();
  }
};

/// \brief Thread-safe model-id -> DecodeService registry with LRU
/// residency and per-model versions.
template <typename Obs>
class ModelRegistry {
 public:
  explicit ModelRegistry(const ModelRegistryOptions& options = {})
      : options_(options) {
    const Status opt_st = options.Validate();
    DHMM_CHECK_MSG(opt_st.ok(), opt_st.message().c_str());
    obs::Registry& reg = obs::Registry::Global();
    m_cold_loads_ = reg.GetCounter("registry.cold_loads");
    m_failed_reloads_ = reg.GetCounter("registry.failed_reloads");
    m_evictions_ = reg.GetCounter("registry.evictions");
    g_resident_ = reg.GetGauge("registry.resident");
  }

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// \brief Registers a new model under `id` (version 1). Fails with
  /// FailedPrecondition if the id is taken — hot-swapping an existing id
  /// is UpdateModel/ReloadModel, never an implicit re-Register.
  Status Register(ModelId id, std::shared_ptr<const hmm::HmmModel<Obs>> model,
                  bool pinned = false) {
    if (model == nullptr) {
      return Status::InvalidArgument("Register requires a model");
    }
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = entries_.try_emplace(id);
    if (!inserted) {
      return Status::FailedPrecondition(
          "model id already registered: " + std::to_string(id));
    }
    Entry& e = it->second;
    e.version = 1;
    e.service = std::make_shared<DecodeService<Obs>>(
        std::move(model), options_.service, e.version);
    e.pinned = pinned;
    e.tick = ++tick_;
    EnforceCapLocked();
    return Status::OK();
  }

  /// \brief Registers a model from a checkpoint — a `.dhmms` store file or
  /// a dual-slot directory (store::LoadAnyModel routing). The
  /// path is remembered: ReloadModel(id) re-reads it, and an LRU-evicted
  /// model is transparently cold-loaded from it on the next Acquire.
  Status RegisterFromFile(ModelId id, const std::string& path,
                          bool pinned = false) {
    Result<hmm::HmmModel<Obs>> loaded = store::LoadAnyModel<Obs>(path);
    if (!loaded.ok()) return loaded.status();
    DHMM_RETURN_NOT_OK(Register(
        id,
        std::make_shared<const hmm::HmmModel<Obs>>(std::move(loaded).value()),
        pinned));
    std::lock_guard<std::mutex> lock(mu_);
    entries_.at(id).path = path;
    return Status::OK();
  }

  /// \brief RCU-swaps a new snapshot under an existing id and bumps its
  /// version. In-flight batches finish on their snapshot (DecodeService's
  /// hot-swap contract); an evicted model becomes resident again.
  Status UpdateModel(ModelId id,
                     std::shared_ptr<const hmm::HmmModel<Obs>> model) {
    if (model == nullptr) {
      return Status::InvalidArgument("UpdateModel requires a model");
    }
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return UnknownModel(id);
    Entry& e = it->second;
    ++e.version;
    if (e.service != nullptr) {
      e.service->UpdateModel(std::move(model));
    } else {
      e.service = std::make_shared<DecodeService<Obs>>(
          std::move(model), options_.service, e.version);
    }
    e.tick = ++tick_;
    EnforceCapLocked();
    return Status::OK();
  }

  /// \brief Hot-reloads `id` from a checkpoint and remembers the path.
  /// A failed load (missing, torn, or corrupt file) leaves the previous
  /// snapshot serving and returns the load error — the registry half of
  /// the atomic-save guarantee.
  Status ReloadModel(ModelId id, const std::string& path) {
    {
      // Fail on unknown ids before touching the filesystem.
      std::lock_guard<std::mutex> lock(mu_);
      if (entries_.find(id) == entries_.end()) return UnknownModel(id);
    }
    Result<hmm::HmmModel<Obs>> loaded = store::LoadAnyModel<Obs>(path);
    if (!loaded.ok()) {
      m_failed_reloads_->Add();
      return loaded.status();
    }
    DHMM_RETURN_NOT_OK(UpdateModel(
        id, std::make_shared<const hmm::HmmModel<Obs>>(
                std::move(loaded).value())));
    std::lock_guard<std::mutex> lock(mu_);
    entries_.at(id).path = path;
    return Status::OK();
  }

  /// \brief Reload from the path remembered by RegisterFromFile /
  /// ReloadModel(id, path). FailedPrecondition when none was recorded.
  Status ReloadModel(ModelId id) {
    std::string path;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(id);
      if (it == entries_.end()) return UnknownModel(id);
      if (it->second.path.empty()) {
        return Status::FailedPrecondition(
            "model has no checkpoint path: " + std::to_string(id));
      }
      path = it->second.path;
    }
    return ReloadModel(id, path);
  }

  /// \brief The request path: returns the model's DecodeService and marks
  /// it most-recently-used. NotFound for unknown ids; an evicted model
  /// with a remembered checkpoint path is cold-loaded transparently as a
  /// new snapshot under the next version, one without is Unavailable. No
  /// allocation on the resident path.
  Result<std::shared_ptr<DecodeService<Obs>>> Acquire(ModelId id) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return UnknownModel(id);
    Entry& e = it->second;
    if (e.service == nullptr) {
      if (e.path.empty()) {
        return Status::Unavailable(
            "model evicted with no checkpoint path: " + std::to_string(id));
      }
      Result<hmm::HmmModel<Obs>> loaded = store::LoadAnyModel<Obs>(e.path);
      if (!loaded.ok()) {
        m_failed_reloads_->Add();
        return loaded.status();
      }
      e.service = std::make_shared<DecodeService<Obs>>(
          std::make_shared<const hmm::HmmModel<Obs>>(
              std::move(loaded).value()),
          options_.service, ++e.version);
      m_cold_loads_->Add();
      // The cold load made a new resident: someone else may have to go.
      e.tick = ++tick_;
      EnforceCapLocked();
    } else {
      e.tick = ++tick_;
    }
    return e.service;
  }

  /// \brief Marks `id` hot (never LRU-evicted) or unpins it.
  Status Pin(ModelId id, bool pinned) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return UnknownModel(id);
    it->second.pinned = pinned;
    if (!pinned) EnforceCapLocked();
    return Status::OK();
  }

  /// \brief Explicitly drops `id`'s resident service (the entry and its
  /// checkpoint path remain; the next Acquire cold-loads). Pinned models
  /// refuse with FailedPrecondition.
  Status Evict(ModelId id) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return UnknownModel(id);
    if (it->second.pinned) {
      return Status::FailedPrecondition(
          "cannot evict a pinned model: " + std::to_string(id));
    }
    it->second.service.reset();
    m_evictions_->Add();
    RefreshResidentLocked();
    return Status::OK();
  }

  /// The "registry." slice of the process-wide metrics snapshot, rendered
  /// as text (obs/metrics.h). Allocates; for diagnostics, not the hot path.
  std::string StatsString() const {
    return obs::RenderText(
        obs::Registry::Global().TakeSnapshot("registry."));
  }

  /// Per-model version: 1 at Register, bumped by every UpdateModel /
  /// ReloadModel and every cold load. Survives eviction. Every response
  /// the model's service answers carries it as `model_version`.
  Result<uint64_t> ModelVersion(ModelId id) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return UnknownModel(id);
    return it->second.version;
  }

  /// Models currently resident (service alive).
  size_t resident_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    for (const auto& [id, e] : entries_) n += e.service != nullptr;
    return n;
  }

  /// All registered ids (resident or evicted), ascending.
  std::vector<ModelId> Ids() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<ModelId> ids;
    ids.reserve(entries_.size());
    for (const auto& [id, e] : entries_) ids.push_back(id);
    return ids;
  }

 private:
  struct Entry {
    std::shared_ptr<DecodeService<Obs>> service;  // null when evicted
    std::string path;   // checkpoint source; empty = in-memory only
    bool pinned = false;
    uint64_t version = 0;
    uint64_t tick = 0;  // last-acquired stamp for LRU
  };

  static Status UnknownModel(ModelId id) {
    return Status::NotFound("unknown model id: " + std::to_string(id));
  }

  // Evicts least-recently-acquired unpinned residents until the cap
  // holds. Caller holds mu_. Stops early when only pinned models remain —
  // pinned-hot capacity overrides the cap by design. Every path that
  // changes residency funnels through here (or Evict), so the resident
  // gauge is refreshed on the way out.
  void EnforceCapLocked() {
    for (;;) {
      size_t resident = 0;
      Entry* victim = nullptr;
      for (auto& [id, e] : entries_) {
        if (e.service == nullptr) continue;
        ++resident;
        if (e.pinned) continue;
        if (victim == nullptr || e.tick < victim->tick) victim = &e;
      }
      if (resident <= options_.max_resident || victim == nullptr) {
        g_resident_->Set(static_cast<double>(resident));
        return;
      }
      victim->service.reset();  // drains in-flight work in the destructor
      m_evictions_->Add();
    }
  }

  // Recounts residents into the gauge. Caller holds mu_.
  void RefreshResidentLocked() {
    size_t resident = 0;
    for (const auto& [id, e] : entries_) resident += e.service != nullptr;
    g_resident_->Set(static_cast<double>(resident));
  }

  const ModelRegistryOptions options_;
  mutable std::mutex mu_;
  std::map<ModelId, Entry> entries_;
  uint64_t tick_ = 0;

  // Process-wide metrics (obs/metrics.h): registered once at construction.
  obs::Counter* m_cold_loads_ = nullptr;
  obs::Counter* m_failed_reloads_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Gauge* g_resident_ = nullptr;
};

}  // namespace dhmm::serve

#endif  // DHMM_SERVE_MODEL_REGISTRY_H_
