#include "io/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>

namespace mmd::io {

bool write_file_atomic(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const char* p = data.data();
  std::size_t left = data.size();
  bool ok = true;
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n <= 0) {
      ok = false;
      break;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (ok && ::fsync(fd) != 0) ok = false;
  ::close(fd);
  if (ok && std::rename(tmp.c_str(), path.c_str()) != 0) ok = false;
  if (!ok) {
    ::unlink(tmp.c_str());
    return false;
  }
  // Make the rename itself durable.
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? std::string(".") : parent.string();
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

}  // namespace mmd::io
