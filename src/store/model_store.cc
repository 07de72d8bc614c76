#include "store/model_store.h"

#include <cstring>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#include <cstdio>
#endif

#include "store/crc32c.h"
#include "util/fsio.h"
#include "util/little_endian.h"

namespace dhmm::store {

namespace {

// Header and manifest integers go through util/little_endian.h, so a
// big-endian host reads and writes the identical file. Payload doubles are
// a separate story: the header flag records their endianness and the codec
// layer rejects a mismatch rather than byte-swapping numerics.
bool HostIsLittleEndian() {
  const uint32_t probe = 1;
  unsigned char byte0;
  std::memcpy(&byte0, &probe, 1);
  return byte0 == 1;
}

size_t AlignUp(size_t n, size_t a) { return (n + a - 1) / a * a; }

}  // namespace

// ---------------------------------------------------------------------------
// MappedFile

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_), size_(other.size_), mapped_(other.mapped_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    this->~MappedFile();
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

MappedFile::~MappedFile() {
#if defined(__unix__) || defined(__APPLE__)
  if (mapped_ && data_ != nullptr) {
    ::munmap(data_, size_);
    return;
  }
#endif
  delete[] data_;
}

Result<MappedFile> MappedFile::Open(const std::string& path) {
  MappedFile out;
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IOError("cannot stat: " + path);
  }
  out.size_ = static_cast<size_t>(st.st_size);
  if (out.size_ == 0) {
    ::close(fd);
    return Status::IOError("empty file: " + path);
  }
  void* base = ::mmap(nullptr, out.size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) return Status::IOError("mmap failed: " + path);
  out.data_ = static_cast<unsigned char*>(base);
  out.mapped_ = true;
#else
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open: " + path);
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  if (end <= 0) {
    std::fclose(f);
    return Status::IOError("empty file: " + path);
  }
  std::fseek(f, 0, SEEK_SET);
  out.size_ = static_cast<size_t>(end);
  out.data_ = new unsigned char[out.size_];
  const size_t got = std::fread(out.data_, 1, out.size_, f);
  std::fclose(f);
  if (got != out.size_) return Status::IOError("short read: " + path);
#endif
  return out;
}

// ---------------------------------------------------------------------------
// ModelStoreWriter

Status ModelStoreWriter::BuildImage(uint64_t sequence_number,
                                    uint32_t emission_type,
                                    uint32_t num_states,
                                    const std::vector<SectionSpec>& sections,
                                    std::vector<unsigned char>* image) {
  if (image == nullptr) {
    return Status::InvalidArgument("store: null image buffer");
  }
  if (!HostIsLittleEndian()) {
    // Payload doubles are memcpy'd; the format pins them little-endian.
    // No big-endian target exists for this system today, so refusing is
    // honest where silent byte-swapped numerics would not be.
    return Status::FailedPrecondition(
        "store: writing requires a little-endian host");
  }
  if (num_states == 0 || num_states > kStoreMaxStates) {
    return Status::InvalidArgument("store: bad state count");
  }
  if (sections.empty() || sections.size() > kStoreMaxSections) {
    return Status::InvalidArgument("store: bad section count");
  }
  for (size_t i = 0; i < sections.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (sections[j].id == sections[i].id) {
        return Status::InvalidArgument("store: repeated section id");
      }
    }
  }

  const size_t n = sections.size();
  const size_t manifest_bytes = n * kStoreManifestEntryBytes;
  size_t offset = AlignUp(kStoreHeaderBytes + manifest_bytes,
                          kStoreSectionAlignment);
  std::vector<size_t> offsets(n);
  size_t end = offset;
  for (size_t i = 0; i < n; ++i) {
    const SectionSpec& s = sections[i];
    if (s.data == nullptr || s.rows == 0 || s.cols == 0) {
      return Status::InvalidArgument("store: empty section");
    }
    offsets[i] = offset;
    end = offset + s.rows * s.cols * sizeof(double);
    offset = AlignUp(end, kStoreSectionAlignment);
  }
  // The file ends exactly where the last payload does — no tail padding,
  // so every byte past the manifest is covered by some section CRC except
  // inter-section alignment gaps.
  const size_t file_size = end;

  image->assign(file_size, 0);
  unsigned char* base = image->data();

  // Sections first (their CRCs feed the manifest).
  unsigned char* manifest = base + kStoreHeaderBytes;
  for (size_t i = 0; i < n; ++i) {
    const SectionSpec& s = sections[i];
    const size_t bytes = s.rows * s.cols * sizeof(double);
    std::memcpy(base + offsets[i], s.data, bytes);
    unsigned char* e = manifest + i * kStoreManifestEntryBytes;
    util::PutU32(static_cast<uint32_t>(s.id), e);
    util::PutU32(Crc32c(base + offsets[i], bytes), e + 4);
    util::PutU64(offsets[i], e + 8);
    util::PutU64(bytes, e + 16);
    util::PutU64(s.rows, e + 24);
    util::PutU64(s.cols, e + 32);
  }

  std::memcpy(base, kStoreMagic, sizeof(kStoreMagic));
  util::PutU32(kStoreFormatVersion, base + 8);
  util::PutU32(kStoreFlagLittleEndian, base + 12);
  util::PutU64(sequence_number, base + 16);
  util::PutU32(emission_type, base + 24);
  util::PutU32(num_states, base + 28);
  util::PutU32(static_cast<uint32_t>(n), base + 32);
  util::PutU32(Crc32c(manifest, manifest_bytes), base + 36);
  util::PutU64(file_size, base + 40);
  // Bytes 48..59 reserved, already zero.
  util::PutU32(Crc32c(base, 60), base + 60);
  return Status::OK();
}

Status ModelStoreWriter::Write(const std::string& path,
                               uint64_t sequence_number,
                               uint32_t emission_type, uint32_t num_states,
                               const std::vector<SectionSpec>& sections) {
  std::vector<unsigned char> image;
  DHMM_RETURN_NOT_OK(BuildImage(sequence_number, emission_type, num_states,
                                sections, &image));
  return util::AtomicWriteFile(path, image.data(), image.size());
}

// ---------------------------------------------------------------------------
// ModelStoreReader

Result<ModelStoreReader> ModelStoreReader::Open(const std::string& path) {
  auto mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  ModelStoreReader reader;
  reader.file_ = std::move(mapped).value();
  const unsigned char* base = reader.file_.data();
  const size_t size = reader.file_.size();

  if (size < kStoreHeaderBytes) {
    return Status::IOError("store: file shorter than header: " + path);
  }
  if (std::memcmp(base, kStoreMagic, sizeof(kStoreMagic)) != 0) {
    return Status::IOError("store: bad magic: " + path);
  }
  if (util::GetU32(base + 60) != Crc32c(base, 60)) {
    return Status::IOError("store: header checksum mismatch: " + path);
  }
  // Past the header CRC every field is trustworthy-as-written; the checks
  // below catch version/host mismatches and truncation after the header.
  if (util::GetU32(base + 8) != kStoreFormatVersion) {
    return Status::IOError("store: unsupported format version: " + path);
  }
  if ((util::GetU32(base + 12) & kStoreFlagLittleEndian) == 0 ||
      !HostIsLittleEndian()) {
    return Status::IOError("store: payload endianness mismatch: " + path);
  }
  reader.sequence_number_ = util::GetU64(base + 16);
  reader.emission_type_ = util::GetU32(base + 24);
  reader.num_states_ = util::GetU32(base + 28);
  if (reader.num_states_ == 0 || reader.num_states_ > kStoreMaxStates) {
    return Status::IOError("store: bad state count: " + path);
  }
  const uint32_t n = util::GetU32(base + 32);
  if (n == 0 || n > kStoreMaxSections) {
    return Status::IOError("store: bad section count: " + path);
  }
  if (util::GetU64(base + 40) != size) {
    return Status::IOError("store: truncated file: " + path);
  }
  const size_t manifest_bytes = n * kStoreManifestEntryBytes;
  if (kStoreHeaderBytes + manifest_bytes > size) {
    return Status::IOError("store: truncated manifest: " + path);
  }
  const unsigned char* manifest = base + kStoreHeaderBytes;
  if (util::GetU32(base + 36) != Crc32c(manifest, manifest_bytes)) {
    return Status::IOError("store: manifest checksum mismatch: " + path);
  }
  reader.entries_.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    const unsigned char* e = manifest + i * kStoreManifestEntryBytes;
    Entry& entry = reader.entries_[i];
    entry.id = util::GetU32(e);
    entry.crc = util::GetU32(e + 4);
    entry.offset = util::GetU64(e + 8);
    entry.bytes = util::GetU64(e + 16);
    entry.rows = util::GetU64(e + 24);
    entry.cols = util::GetU64(e + 32);
    // Division-form shape check so hostile rows/cols cannot overflow the
    // u64 product into a "consistent" value.
    const uint64_t elems = entry.bytes / sizeof(double);
    if (entry.offset % kStoreSectionAlignment != 0 ||
        entry.offset > size || entry.bytes > size - entry.offset ||
        entry.bytes == 0 || entry.bytes % sizeof(double) != 0 ||
        entry.rows == 0 ||
        elems % entry.rows != 0 || elems / entry.rows != entry.cols) {
      return Status::IOError("store: section " + std::to_string(entry.id) +
                             " out of bounds: " + path);
    }
    // Section(id) answers the first entry with an id, so a repeat would
    // hide the later entry's payload from every CRC check.
    for (uint32_t j = 0; j < i; ++j) {
      if (reader.entries_[j].id == entry.id) {
        return Status::IOError("store: repeated section id " +
                               std::to_string(entry.id) + ": " + path);
      }
    }
  }
  reader.verified_.assign(n, false);
  return reader;
}

bool ModelStoreReader::HasSection(SectionId id) const {
  for (const Entry& e : entries_) {
    if (e.id == static_cast<uint32_t>(id)) return true;
  }
  return false;
}

Result<SectionView> ModelStoreReader::Section(SectionId id) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (e.id != static_cast<uint32_t>(id)) continue;
    if (!verified_[i]) {
      if (Crc32c(file_.data() + e.offset, e.bytes) != e.crc) {
        return Status::IOError("store: section " + std::to_string(e.id) +
                               " checksum mismatch");
      }
      verified_[i] = true;
    }
    SectionView view;
    view.data = reinterpret_cast<const double*>(file_.data() + e.offset);
    view.rows = e.rows;
    view.cols = e.cols;
    return view;
  }
  return Status::IOError("store: no section with id " +
                         std::to_string(static_cast<uint32_t>(id)));
}

Status ModelStoreReader::VerifyAllSections() const {
  for (const Entry& e : entries_) {
    auto view = Section(static_cast<SectionId>(e.id));
    if (!view.ok()) return view.status();
  }
  return Status::OK();
}

}  // namespace dhmm::store
