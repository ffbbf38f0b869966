#include "src/util/fs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "src/util/fault.h"
#include "src/util/log.h"

namespace snowboard {

namespace {

std::string ErrnoText() { return std::strerror(errno); }

// Writes the whole buffer, retrying short writes and EINTR.
bool WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

void FsyncDirectoryOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

bool EnsureDirectory(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    SB_LOG(kWarn) << "fs: mkdir " << path << ": " << ec.message();
  }
  return std::filesystem::is_directory(path, ec);
}

bool AtomicWriteFile(const std::string& path, const std::string& contents,
                     FaultInjector* fault) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    SB_LOG(kWarn) << "fs: open " << tmp << ": " << ErrnoText();
    return false;
  }
  if (!WriteAll(fd, contents.data(), contents.size())) {
    SB_LOG(kWarn) << "fs: write " << tmp << ": " << ErrnoText();
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::fsync(fd) != 0) {
    SB_LOG(kWarn) << "fs: fsync " << tmp << ": " << ErrnoText();
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  ::close(fd);
  if (fault != nullptr && fault->At("fs.commit")) {
    return false;  // Died before the rename: target untouched, .tmp left behind.
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    SB_LOG(kWarn) << "fs: rename " << tmp << " -> " << path << ": " << ErrnoText();
    ::unlink(tmp.c_str());
    return false;
  }
  FsyncDirectoryOf(path);
  if (fault != nullptr && fault->At("fs.committed")) {
    return false;  // Died after the rename: the new contents are durable.
  }
  return true;
}

bool AppendLinesDurable(const std::string& path, const std::vector<std::string>& lines,
                        FaultInjector* fault) {
  if (lines.empty()) {
    return true;
  }
  std::string buffer;
  size_t total = 0;
  for (const std::string& line : lines) {
    if (line.find('\n') != std::string::npos) {
      SB_LOG(kWarn) << "fs: refusing to append multi-line record to " << path;
      return false;
    }
    total += line.size() + 1;
  }
  buffer.reserve(total);
  for (const std::string& line : lines) {
    buffer += line;
    buffer += '\n';
  }
  if (fault != nullptr && fault->At("journal.append")) {
    return false;  // Died before the batch reached the file: every line in it is lost.
  }
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    SB_LOG(kWarn) << "fs: open " << path << ": " << ErrnoText();
    return false;
  }
  bool ok = WriteAll(fd, buffer.data(), buffer.size());
  if (!ok) {
    SB_LOG(kWarn) << "fs: append " << path << ": " << ErrnoText();
  } else if (::fsync(fd) != 0) {
    SB_LOG(kWarn) << "fs: fsync " << path << ": " << ErrnoText();
    ok = false;
  }
  ::close(fd);
  if (ok && fault != nullptr && fault->At("journal.appended")) {
    return false;  // Died after the whole batch became durable.
  }
  return ok;
}

std::optional<std::string> ReadFileContents(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno != ENOENT) {
      SB_LOG(kWarn) << "fs: open " << path << ": " << ErrnoText();
    }
    return std::nullopt;
  }
  std::string contents;
  char buffer[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      SB_LOG(kWarn) << "fs: read " << path << ": " << ErrnoText();
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) {
      break;
    }
    contents.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return contents;
}

bool PathExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

bool RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) == 0 || errno == ENOENT) {
    return true;
  }
  SB_LOG(kWarn) << "fs: unlink " << path << ": " << ErrnoText();
  return false;
}

}  // namespace snowboard
