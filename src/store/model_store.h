// The versioned binary model store: an mmap-able, checksummed container
// for HMM parameters, and the one format a model is saved and loaded in.
//
// Two properties matter on the serving thread's reload path. (1) Cost:
// opening is O(header) validation plus an mmap; parameter bytes are copied
// (never parsed) only when the model object is materialized. (2)
// Integrity: a torn or bit-flipped checkpoint must be *detected*, not
// served. Every section carries a CRC-32C, the manifest and header carry
// their own, and the dual-slot layer (store/dual_slot.h) turns detection
// into fallback.
//
// Layout (all integers little-endian; version 1):
//
//   offset size
//   0      8   magic "DHMMSTR1"
//   8      4   format version (1)
//   12     4   flags (bit 0: payload is little-endian IEEE-754)
//   16     8   sequence number (monotonic publish counter)
//   24     4   emission type tag (codec-defined)
//   28     4   num_states k
//   32     4   section count n
//   36     4   manifest CRC-32C (over the n*40 manifest bytes)
//   40     8   total file size in bytes
//   48     12  reserved (zero)
//   60     4   header CRC-32C (over bytes 0..59)
//   64     n * 40   manifest: per section
//                     u32 id, u32 payload crc, u64 offset, u64 bytes,
//                     u64 rows, u64 cols
//   ...    sections: raw double payloads, each offset 64-byte aligned
//                    (matching linalg's buffer alignment, so an mmap'd
//                    section is kernel-ready without repacking)
//
// The store is a dumb typed container: it knows section ids and shapes,
// not what pi or a GMM is. The model <-> section mapping lives in
// store/model_codec.h.
#ifndef DHMM_STORE_MODEL_STORE_H_
#define DHMM_STORE_MODEL_STORE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace dhmm::store {

inline constexpr char kStoreMagic[8] = {'D', 'H', 'M', 'M',
                                        'S', 'T', 'R', '1'};
inline constexpr uint32_t kStoreFormatVersion = 1;
inline constexpr uint32_t kStoreFlagLittleEndian = 1u << 0;
inline constexpr size_t kStoreHeaderBytes = 64;
inline constexpr size_t kStoreManifestEntryBytes = 40;
inline constexpr size_t kStoreSectionAlignment = 64;
/// Real models here are tens of states; the bound keeps a hostile header
/// from requesting an absurd allocation.
inline constexpr uint32_t kStoreMaxStates = 4096;
inline constexpr uint32_t kStoreMaxSections = 64;

/// Section ids (format contract — append, never renumber).
enum class SectionId : uint32_t {
  kPi = 1,          ///< 1 x k initial distribution
  kTransition = 2,  ///< k x k row-stochastic transition matrix
  kScalars = 3,     ///< 1 x n emission scalars (floors / pseudo-counts)
  kEmission0 = 4,   ///< first emission parameter block
  kEmission1 = 5,   ///< second emission parameter block
  kEmission2 = 6,   ///< third emission parameter block
};

/// \brief One section to write: a borrowed row-major double block.
struct SectionSpec {
  SectionId id;
  const double* data;
  size_t rows;
  size_t cols;
};

/// \brief One section as read: a borrowed view into the mapped file
/// (valid while the owning ModelStoreReader lives).
struct SectionView {
  const double* data = nullptr;
  size_t rows = 0;
  size_t cols = 0;
  size_t size() const { return rows * cols; }
};

/// \brief Read-only byte view of a file: POSIX mmap where available
/// (zero-copy, pages fault in on first touch), a heap read elsewhere.
/// Move-only; unmaps/frees on destruction.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  static Result<MappedFile> Open(const std::string& path);

  const unsigned char* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  unsigned char* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;  // true: munmap; false: delete[]
};

/// \brief Writes one store file atomically (util::AtomicWriteFile: tmp +
/// fsync + rename + parent-directory fsync), so a reader of `path` sees
/// the previous complete file or the new one, never a torn one. The full
/// image is assembled in memory first; models here are at most a few
/// hundred MB and the assembly is one pass of memcpy + CRC. A section list
/// that names one id twice is InvalidArgument.
class ModelStoreWriter {
 public:
  static Status Write(const std::string& path, uint64_t sequence_number,
                      uint32_t emission_type, uint32_t num_states,
                      const std::vector<SectionSpec>& sections);

  /// Assembles the file image without touching the filesystem (the
  /// dual-slot tests corrupt images in memory; benches reuse buffers).
  static Status BuildImage(uint64_t sequence_number, uint32_t emission_type,
                           uint32_t num_states,
                           const std::vector<SectionSpec>& sections,
                           std::vector<unsigned char>* image);
};

/// \brief Zero-copy reader over one store file.
///
/// Open() is O(header): it maps the file and validates magic, version,
/// endianness, bounds, the header + manifest CRCs, and that no section id
/// repeats — it does NOT touch section payloads, so opening a multi-GB
/// store faults in one page.
/// Section() returns a view after verifying that section's CRC exactly
/// once (memoized per reader; a reader is single-threaded like every
/// workspace in this codebase). Every corruption path is a typed IOError
/// naming what failed; nothing in this class aborts.
class ModelStoreReader {
 public:
  ModelStoreReader() = default;
  ModelStoreReader(ModelStoreReader&&) noexcept = default;
  ModelStoreReader& operator=(ModelStoreReader&&) noexcept = default;

  static Result<ModelStoreReader> Open(const std::string& path);

  uint64_t sequence_number() const { return sequence_number_; }
  uint32_t emission_type() const { return emission_type_; }
  uint32_t num_states() const { return num_states_; }
  size_t section_count() const { return entries_.size(); }

  /// True when the section exists in the manifest.
  bool HasSection(SectionId id) const;

  /// View of one section; verifies its payload CRC on first access. A
  /// section the manifest does not list is an IOError too.
  Result<SectionView> Section(SectionId id) const;

  /// Verifies every section's payload CRC (reload paths call this once so
  /// a corrupt slot is rejected before any parameter is copied out).
  Status VerifyAllSections() const;

 private:
  struct Entry {
    uint32_t id;
    uint32_t crc;
    uint64_t offset;
    uint64_t bytes;
    uint64_t rows;
    uint64_t cols;
  };

  MappedFile file_;
  std::vector<Entry> entries_;
  mutable std::vector<bool> verified_;
  uint64_t sequence_number_ = 0;
  uint32_t emission_type_ = 0;
  uint32_t num_states_ = 0;
};

}  // namespace dhmm::store

#endif  // DHMM_STORE_MODEL_STORE_H_
