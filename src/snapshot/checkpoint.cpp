#include "snapshot/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "snapshot/snapshot.hpp"

namespace congestbc {

namespace fs = std::filesystem;

namespace {

constexpr char kPrefix[] = "ckpt-";
constexpr char kSuffix[] = ".cbcsnap";

bool is_checkpoint_name(const std::string& name) {
  if (name.size() <= sizeof(kPrefix) - 1 + sizeof(kSuffix) - 1) {
    return false;
  }
  if (name.rfind(kPrefix, 0) != 0 ||
      name.compare(name.size() - (sizeof(kSuffix) - 1), sizeof(kSuffix) - 1,
                   kSuffix) != 0) {
    return false;
  }
  const std::string digits =
      name.substr(sizeof(kPrefix) - 1,
                  name.size() - (sizeof(kPrefix) - 1) - (sizeof(kSuffix) - 1));
  return !digits.empty() &&
         std::all_of(digits.begin(), digits.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

}  // namespace

std::string checkpoint_file_name(std::uint64_t round) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%012llu%s", kPrefix,
                static_cast<unsigned long long>(round), kSuffix);
  return buf;
}

std::uint64_t checkpoint_round_of(const std::string& path) {
  const std::string name = fs::path(path).filename().string();
  if (!is_checkpoint_name(name)) {
    return 0;
  }
  return std::strtoull(name.c_str() + sizeof(kPrefix) - 1, nullptr, 10);
}

void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& write) {
  const fs::path target(path);
  std::error_code ec;
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);
    if (ec) {
      throw SnapshotError("cannot create directory " +
                          target.parent_path().string() + ": " +
                          ec.message());
    }
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (out.good()) {
      write(out);
      out.flush();
    }
    if (!out.good()) {
      throw SnapshotError("cannot write " + tmp);
    }
  }
  fs::rename(tmp, target, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw SnapshotError("cannot rename " + tmp + " to " + path);
  }
}

std::string write_checkpoint_file(const std::string& directory,
                                  std::uint64_t round,
                                  const BitWriter& payload,
                                  unsigned keep_last) {
  const std::string final_path =
      (fs::path(directory) / checkpoint_file_name(round)).string();
  write_file_atomic(final_path, [&payload](std::ostream& out) {
    write_snapshot_container(out, payload);
  });

  if (keep_last != 0) {
    std::error_code ec;
    auto files = list_checkpoints(directory);
    while (files.size() > keep_last) {
      fs::remove(files.front(), ec);  // oldest first; best effort
      files.erase(files.begin());
    }
  }
  return final_path;
}

std::vector<std::string> list_checkpoints(const std::string& directory) {
  std::vector<std::string> files;
  std::error_code ec;
  fs::directory_iterator it(directory, ec);
  if (ec) {
    return files;
  }
  for (const auto& entry : it) {
    if (entry.is_regular_file(ec) &&
        is_checkpoint_name(entry.path().filename().string())) {
      files.push_back(entry.path().string());
    }
  }
  // Zero-padded round numbers: lexicographic == chronological.
  std::sort(files.begin(), files.end());
  return files;
}

std::optional<std::string> latest_checkpoint(const std::string& directory) {
  auto files = list_checkpoints(directory);
  if (files.empty()) {
    return std::nullopt;
  }
  return files.back();
}

}  // namespace congestbc
