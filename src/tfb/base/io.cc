#include "tfb/base/io.h"

#include <cerrno>

#include <unistd.h>

namespace tfb::base {

bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = write(fd, data.data(), data.size());
    if (n > 0) {
      data.remove_prefix(static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace tfb::base
