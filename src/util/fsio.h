// Crash-consistent file IO helpers shared by every checkpoint writer.
//
// The model store (store/model_store.h) and its dual-slot manifest
// (store/dual_slot.h) make one durability promise: after a save returns
// OK, a machine crash — not just a process crash — leaves either the
// previous complete file or the new one at the destination, never a torn
// or missing file. That takes three fsyncs (temp file contents, the
// atomic rename via the parent directory, and nothing else), and getting
// the directory fsync wrong is the classic silent bug, so the sequence
// lives here exactly once.
#ifndef DHMM_UTIL_FSIO_H_
#define DHMM_UTIL_FSIO_H_

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "util/status.h"

namespace dhmm::util {

/// \brief fsyncs a path (file or directory). Directory fsync makes a
/// completed rename durable.
inline Status SyncPathToDisk(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open for fsync: " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IOError("fsync failed: " + path);
  return Status::OK();
}

/// \brief Best-effort fsync of the directory containing `path`, making a
/// rename into that directory durable. Best effort because some
/// filesystems (FUSE/network mounts) reject directory fsync, and by the
/// time this runs the file itself is already complete at `path` — failing
/// the save would report a written checkpoint as missing.
inline void SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  SyncPathToDisk(slash == std::string::npos ? std::string(".")
                                            : path.substr(0, slash + 1));
}

/// \brief Atomically replaces `path` with `size` bytes from `data`:
/// write to `path + ".tmp"`, flush + fsync, rename over `path`, fsync the
/// parent directory. The temp path is deterministic, so concurrent
/// writers to the same path must be externally serialized (last rename
/// wins).
inline Status AtomicWriteFile(const std::string& path, const void* data,
                              size_t size) {
  const std::string tmp = path + ".tmp";
  Status st;
  {
    std::ofstream os(tmp, std::ios::out | std::ios::trunc |
                              std::ios::binary);
    if (!os) return Status::IOError("cannot open for write: " + tmp);
    os.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(size));
    if (os) os.flush();
    if (!os) st = Status::IOError("write failed: " + tmp);
    os.close();
    if (st.ok() && os.fail()) st = Status::IOError("close failed: " + tmp);
  }
  if (st.ok()) st = SyncPathToDisk(tmp);
  if (!st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " over " + path);
  }
  SyncParentDir(path);
  return Status::OK();
}

}  // namespace dhmm::util

#endif  // DHMM_UTIL_FSIO_H_
