// Dual-slot (A/B) model publication with failsafe open.
//
// The serve layer's reload contract is "a bad checkpoint never takes down
// serving". The store's CRCs give *detection*; this layer gives *fallback*:
// a publish always writes the slot that is NOT currently active, so the
// previous model survives on disk untouched no matter where the writer is
// killed. Directory layout:
//
//   <dir>/slot_a.dhmms   binary store file (store/model_store.h)
//   <dir>/slot_b.dhmms   binary store file
//   <dir>/MANIFEST       28-byte pointer: magic "DHMMSLTM", u32 version,
//                        u32 active slot (0=A, 1=B), u64 sequence,
//                        u32 CRC-32C over the first 24 bytes
//
// The manifest is a hint, not a single point of failure: Open() probes BOTH
// slots with full integrity verification and serves the highest valid
// sequence number. A torn manifest, a manifest pointing at a corrupt slot,
// or a stale manifest left by a crashed publisher all degrade to "use the
// best slot that actually checks out".
#ifndef DHMM_STORE_DUAL_SLOT_H_
#define DHMM_STORE_DUAL_SLOT_H_

#include <cstdint>
#include <string>

#include "hmm/model.h"
#include "obs/metrics.h"
#include "store/model_codec.h"
#include "store/model_store.h"
#include "util/status.h"

namespace dhmm::store {

inline constexpr char kSlotManifestMagic[8] = {'D', 'H', 'M', 'M',
                                               'S', 'L', 'T', 'M'};
inline constexpr uint32_t kSlotManifestVersion = 1;
inline constexpr size_t kSlotManifestBytes = 28;

/// \brief One A/B store directory. Open() is read-only and never fails on
/// corruption — a directory with zero valid slots opens with
/// has_model() == false so the caller can decide whether that is fatal
/// (cold load) or ignorable (reload keeps the in-memory snapshot).
class DualSlotStore {
 public:
  static Result<DualSlotStore> Open(const std::string& dir);

  /// True when at least one slot passed full integrity verification.
  bool has_model() const { return active_ >= 0; }

  /// Sequence number of the best valid slot (0 when has_model() is false).
  uint64_t sequence_number() const {
    return active_ >= 0 ? slot_seq_[active_] : 0;
  }

  /// Path of the best valid slot's store file ("" when none).
  const std::string& active_path() const {
    static const std::string kEmpty;
    return active_ >= 0 ? slot_path_[active_] : kEmpty;
  }

  /// Index (0=A, 1=B) the next Publish() will overwrite.
  int publish_slot() const { return active_ == 0 ? 1 : 0; }

  /// \brief Materializes the model from the best valid slot.
  template <typename Obs>
  Result<hmm::HmmModel<Obs>> Load() const {
    if (active_ < 0) {
      return Status::NotFound("dual-slot store has no valid slot: " + dir_);
    }
    return ReadModelFromFile<Obs>(slot_path_[active_]);
  }

  /// \brief Publishes `model` as the next version: writes the inactive
  /// slot (atomic store write), then flips the manifest (atomic 28-byte
  /// write). A crash between the two leaves the manifest stale — the new
  /// slot still wins on the next Open() because it carries the higher
  /// sequence number and probing out-ranks the hint.
  template <typename Obs>
  Status Publish(const hmm::HmmModel<Obs>& model) {
    const int target = publish_slot();
    const uint64_t seq = sequence_number() + 1;
    DHMM_RETURN_NOT_OK(WriteModel(model, seq, slot_path_[target]));
    DHMM_RETURN_NOT_OK(CommitManifest(target, seq));
    slot_valid_[target] = true;
    slot_seq_[target] = seq;
    active_ = target;
    obs::Registry::Global().GetCounter("store.publishes")->Add();
    return Status::OK();
  }

 private:
  Status CommitManifest(int slot, uint64_t sequence);

  std::string dir_;
  std::string slot_path_[2];
  bool slot_valid_[2] = {false, false};
  uint64_t slot_seq_[2] = {0, 0};
  int active_ = -1;  // -1: no valid slot
};

/// True when `path` names an existing directory.
bool IsDirectory(const std::string& path);

/// \brief The serve layer's one-string loader: a directory opens as a
/// dual-slot store, any other path reads as one store file with full
/// integrity verification (ReadModelFromFile).
template <typename Obs>
Result<hmm::HmmModel<Obs>> LoadAnyModel(const std::string& path) {
  if (IsDirectory(path)) {
    auto slots = DualSlotStore::Open(path);
    if (!slots.ok()) return slots.status();
    return slots.value().template Load<Obs>();
  }
  return ReadModelFromFile<Obs>(path);
}

}  // namespace dhmm::store

#endif  // DHMM_STORE_DUAL_SLOT_H_
