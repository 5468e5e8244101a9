// Crash-safe file writing.
//
// Two primitives cover every side-effecting write in the library:
//
//  * atomic_write_file — whole-file replacement via write-temp + fsync +
//    rename(2). Readers either see the old contents or the complete new
//    contents; a crash at any instant never leaves a torn file at the
//    final path. Used for replay dumps and other "publish a result"
//    writes.
//
//  * DurableAppendFile — an append-only handle whose append() is flushed
//    to disk before returning, for incremental logs (the sweep checkpoint
//    journal). A crash can tear at most the record being appended; the
//    journal layer detects and truncates that tail on resume via
//    truncate_to(). The handle holds an exclusive flock(2) on the file for
//    its whole life, so a log has at most one writer at a time.
//
// All failures surface as ppg::Error (kIoError; kJournalLocked for a held
// lock) with the path attached.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ppg {

/// Atomically replaces `path` with `contents`: writes `path` + ".tmp",
/// fsyncs it, then rename(2)s over the destination. Throws PpgException
/// (kIoError) on any failure; the destination is never left torn.
void atomic_write_file(const std::string& path, std::string_view contents);

/// Append-only file handle with durable appends and an exclusive lock.
/// Move-only; the destructor closes the descriptor, which drops the lock.
/// Not internally synchronized — callers that append from several threads
/// must serialize (SweepJournal holds a mutex around it).
class DurableAppendFile {
 public:
  DurableAppendFile() = default;
  ~DurableAppendFile();
  DurableAppendFile(DurableAppendFile&& other) noexcept;
  DurableAppendFile& operator=(DurableAppendFile&& other) noexcept;
  DurableAppendFile(const DurableAppendFile&) = delete;
  DurableAppendFile& operator=(const DurableAppendFile&) = delete;

  /// Opens `path` for reading and appending, creating it if needed, and
  /// takes flock(LOCK_EX | LOCK_NB) on the new open file description
  /// before anything reads or changes the file. While this handle is open,
  /// every other open() of the path — from another process or from this
  /// one — throws PpgException (kJournalLocked). The kernel drops the lock
  /// when the descriptor closes, including when the holder is killed.
  /// `truncate` then starts the file over from zero bytes (under the
  /// lock). Throws PpgException (kIoError, kJournalLocked).
  static DurableAppendFile open(const std::string& path, bool truncate);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Writes `bytes` at the end of the file and flushes them to disk
  /// before returning. Throws PpgException (kIoError).
  void append(std::string_view bytes);

  /// The file's whole contents, read through the locked descriptor.
  /// Throws PpgException (kIoError).
  std::string read_all() const;

  /// Shrinks the file to `size` bytes (drops a torn tail found during
  /// journal recovery). Throws PpgException (kIoError).
  void truncate_to(std::uint64_t size);

  void close();

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace ppg
