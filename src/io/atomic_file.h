#pragma once

#include <string>
#include <string_view>

namespace mmd::io {

/// Replace `path` with `data` atomically and durably: write <path>.tmp,
/// fsync it, rename it over `path`, then fsync the parent directory so the
/// rename itself survives a crash. Afterwards the file holds either its old
/// content or all of `data`, never a prefix. Returns false (and removes the
/// tmp file) when any step before the rename fails.
bool write_file_atomic(const std::string& path, std::string_view data);

}  // namespace mmd::io
