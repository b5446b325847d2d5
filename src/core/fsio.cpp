#include "core/fsio.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace rmp::core {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void crash_now(const char* site) {
  std::fprintf(stderr, "rmp fault injection: crash at %s\n", site);
  std::fflush(stderr);
  std::_Exit(kFaultCrashExitCode);
}

std::string errno_text() { return std::strerror(errno); }

// Write the whole buffer, retrying short writes and EINTR.
void write_all(int fd, const char* data, std::size_t size,
               const fs::path& path) {
  std::size_t done = 0;
  while (done < size) {
    ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string why = errno_text();
      ::close(fd);
      throw IoError("cannot write \"" + path.string() + "\": " + why);
    }
    done += static_cast<std::size_t>(n);
  }
}

void fsync_fd(int fd, const fs::path& path) {
  if (::fsync(fd) != 0) {
    const std::string why = errno_text();
    ::close(fd);
    throw IoError("cannot fsync \"" + path.string() + "\": " + why);
  }
}

// fsync the directory containing `path` so a rename or create within it
// is durable.  Directories that refuse fsync (some filesystems) are not
// an error worth failing the job over.
void fsync_parent_dir(const fs::path& path) {
  fs::path dir = path.parent_path();
  if (dir.empty()) dir = ".";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

// Create/truncate `path` and write `content` through fd-level I/O with
// an fsync before close.
void write_file_synced(const fs::path& path, const char* data,
                       std::size_t size) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    throw IoError("cannot open \"" + path.string() +
                  "\" for writing: " + errno_text());
  }
  write_all(fd, data, size, path);
  fsync_fd(fd, path);
  ::close(fd);
}

}  // namespace

void atomic_write_file(const fs::path& path, const std::string& content,
                       const char* site) {
  std::optional<FaultHit> hit;
  if (site != nullptr) hit = fault_fire(site);

  if (hit && hit->kind == FaultKind::kFail) {
    throw IoError(std::string("fault injection: write failed at ") + site +
                  " (\"" + path.string() + "\")");
  }
  if (hit && hit->kind == FaultKind::kTorn) {
    // Model the state a power loss leaves behind: a prefix of the new
    // content at the *final* path.  Temp+rename alone cannot produce
    // this state, which is exactly why recovery must handle it.
    std::size_t cut = hit->at_byte >= 0
                          ? static_cast<std::size_t>(hit->at_byte)
                          : content.size() / 2;
    if (cut > content.size()) cut = content.size();
    write_file_synced(path, content.data(), cut);
    crash_now(site);
  }

  // Dot-prefixed temp name in the same directory: same filesystem (so
  // rename is atomic) and invisible to the JobServer's spool scans.
  // The name is built by appends: GCC 12 reports a spurious -Wrestrict on
  // the equivalent "." + name + ".tmp" chain.
  std::string tmp_name = ".";
  tmp_name += path.filename().string();
  tmp_name += ".tmp";
  fs::path tmp = path.parent_path() / tmp_name;
  write_file_synced(tmp, content.data(), content.size());
  fsync_parent_dir(path);

  if (hit && hit->kind == FaultKind::kCrash) crash_now(site);

  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why = errno_text();
    ::unlink(tmp.c_str());
    throw IoError("cannot rename \"" + tmp.string() + "\" to \"" +
                  path.string() + "\": " + why);
  }
  fsync_parent_dir(path);
}

bool rename_claim(const fs::path& from, const fs::path& to,
                  const char* site) {
  std::optional<FaultHit> hit;
  if (site != nullptr) hit = fault_fire(site);

  if (hit && (hit->kind == FaultKind::kFail || hit->kind == FaultKind::kTorn)) {
    throw IoError(std::string("fault injection: rename failed at ") + site +
                  " (\"" + from.string() + "\")");
  }

  if (::rename(from.c_str(), to.c_str()) != 0) {
    if (errno == ENOENT) return false;  // lost the race
    throw IoError("cannot rename \"" + from.string() + "\" to \"" +
                  to.string() + "\": " + errno_text());
  }
  fsync_parent_dir(to);
  if (from.parent_path() != to.parent_path()) fsync_parent_dir(from);

  // Crash *after* the rename: the claim exists, its owner is dead.
  if (hit && hit->kind == FaultKind::kCrash) crash_now(site);
  return true;
}

void append_line(const fs::path& path, const std::string& line,
                 const char* site) {
  std::optional<FaultHit> hit;
  if (site != nullptr) hit = fault_fire(site);

  if (hit && hit->kind == FaultKind::kFail) {
    throw IoError(std::string("fault injection: append failed at ") + site +
                  " (\"" + path.string() + "\")");
  }

  std::string payload = line;
  payload.push_back('\n');
  std::size_t size = payload.size();
  if (hit && hit->kind == FaultKind::kTorn) {
    size = hit->at_byte >= 0 ? static_cast<std::size_t>(hit->at_byte)
                             : payload.size() / 2;
    if (size > payload.size()) size = payload.size();
  }

  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    throw IoError("cannot open \"" + path.string() +
                  "\" for append: " + errno_text());
  }
  write_all(fd, payload.data(), size, path);
  if (hit) {
    fsync_fd(fd, path);
    ::close(fd);
    crash_now(site);  // kTorn after the partial write, kCrash after full
  }
  ::close(fd);
}

bool repair_jsonl_tail(const fs::path& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return false;
  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end <= 0) {
    ::close(fd);
    return false;
  }
  char last = '\0';
  if (::pread(fd, &last, 1, end - 1) != 1 || last == '\n') {
    ::close(fd);
    return false;
  }
  const char nl = '\n';
  write_all(fd, &nl, 1, path);
  fsync_fd(fd, path);
  ::close(fd);
  return true;
}

}  // namespace rmp::core
