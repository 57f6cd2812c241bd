#ifndef TFB_BASE_IO_H_
#define TFB_BASE_IO_H_

#include <string_view>

namespace tfb::base {

/// Writes all of `data` to the blocking descriptor `fd`, restarting on
/// EINTR and short writes. False on any other write failure; the bytes
/// before the failure may already be out.
bool WriteAll(int fd, std::string_view data);

}  // namespace tfb::base

#endif  // TFB_BASE_IO_H_
