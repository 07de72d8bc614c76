#include "store/dual_slot.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cstring>
#include <fstream>
#include <vector>

#include "obs/metrics.h"
#include "store/crc32c.h"
#include "util/fsio.h"
#include "util/little_endian.h"

namespace dhmm::store {

namespace {

constexpr const char* kSlotFileName[2] = {"slot_a.dhmms", "slot_b.dhmms"};
constexpr const char* kManifestFileName = "MANIFEST";

/// Best-effort manifest read. Any defect — missing file, short read, bad
/// magic/version/CRC, out-of-range slot — returns false: the manifest is
/// only a tie-breaking hint and Open() re-derives truth from the slots.
bool ReadManifestHint(const std::string& path, int* active, uint64_t* seq) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  unsigned char buf[kSlotManifestBytes];
  is.read(reinterpret_cast<char*>(buf), sizeof(buf));
  if (static_cast<size_t>(is.gcount()) != sizeof(buf)) return false;
  if (std::memcmp(buf, kSlotManifestMagic, sizeof(kSlotManifestMagic)) != 0) {
    return false;
  }
  if (util::GetU32(buf + 8) != kSlotManifestVersion) return false;
  if (util::GetU32(buf + 24) != Crc32c(buf, 24)) return false;
  const uint32_t slot = util::GetU32(buf + 12);
  if (slot > 1) return false;
  *active = static_cast<int>(slot);
  *seq = util::GetU64(buf + 16);
  return true;
}

}  // namespace

bool IsDirectory(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

Result<DualSlotStore> DualSlotStore::Open(const std::string& dir) {
  if (!IsDirectory(dir)) {
    if (::mkdir(dir.c_str(), 0755) != 0 && !IsDirectory(dir)) {
      return Status::IOError("cannot open or create slot directory: " + dir);
    }
  }

  DualSlotStore store;
  store.dir_ = dir;
  uint64_t corrupt_slots = 0;
  for (int s = 0; s < 2; ++s) {
    store.slot_path_[s] = dir + "/" + kSlotFileName[s];
    // A slot file that exists but fails the probe below is a detected
    // corruption (torn write, bit flip) — distinct from a slot that was
    // simply never written.
    const bool exists = std::ifstream(store.slot_path_[s]).good();
    // Full probe: header + manifest + every section CRC. Opening a slot
    // directory is a reload-frequency operation, not a decode-frequency
    // one, so paying the checksum pass here is what buys "a corrupt slot
    // is never selected".
    auto reader = ModelStoreReader::Open(store.slot_path_[s]);
    if (!reader.ok() || !reader.value().VerifyAllSections().ok()) {
      if (exists) ++corrupt_slots;
      continue;
    }
    store.slot_valid_[s] = true;
    store.slot_seq_[s] = reader.value().sequence_number();
  }

  int hint_active = -1;
  uint64_t hint_seq = 0;
  ReadManifestHint(dir + "/" + kManifestFileName, &hint_active, &hint_seq);

  if (store.slot_valid_[0] && store.slot_valid_[1]) {
    if (store.slot_seq_[0] != store.slot_seq_[1]) {
      store.active_ = store.slot_seq_[0] > store.slot_seq_[1] ? 0 : 1;
    } else {
      // Equal sequences should not happen under the publish protocol;
      // honor the hint if it points at a valid slot, else prefer A.
      store.active_ = hint_active >= 0 ? hint_active : 0;
    }
  } else if (store.slot_valid_[0] || store.slot_valid_[1]) {
    store.active_ = store.slot_valid_[0] ? 0 : 1;
  }

  // Observability (obs/metrics.h): failures the failsafe absorbed. A
  // corrupt slot counts as "survived" only when a model is still served;
  // a fallback open is one where the probe overruled the manifest — the
  // manifest exists but is torn/unreadable, or it points away from the
  // slot that actually wins.
  if (store.has_model()) {
    obs::Registry& reg = obs::Registry::Global();
    if (corrupt_slots != 0) {
      reg.GetCounter("store.crc_failures_survived")->Add(corrupt_slots);
    }
    const bool manifest_exists =
        std::ifstream(dir + "/" + kManifestFileName).good();
    if ((manifest_exists && hint_active < 0) ||
        (hint_active >= 0 && store.active_ != hint_active)) {
      reg.GetCounter("store.fallback_opens")->Add();
    }
  }
  return store;
}

Status DualSlotStore::CommitManifest(int slot, uint64_t sequence) {
  unsigned char buf[kSlotManifestBytes];
  std::memcpy(buf, kSlotManifestMagic, sizeof(kSlotManifestMagic));
  util::PutU32(kSlotManifestVersion, buf + 8);
  util::PutU32(static_cast<uint32_t>(slot), buf + 12);
  util::PutU64(sequence, buf + 16);
  util::PutU32(Crc32c(buf, 24), buf + 24);
  return util::AtomicWriteFile(dir_ + "/" + kManifestFileName, buf,
                               sizeof(buf));
}

}  // namespace dhmm::store
