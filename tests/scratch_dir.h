// Per-process scratch directories for tests that write files.
#ifndef M3DFL_TESTS_SCRATCH_DIR_H_
#define M3DFL_TESTS_SCRATCH_DIR_H_

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace m3dfl::testing {

// A path `name` under a per-process root in ::testing::TempDir(), with
// anything left there by an earlier test removed.  The process id in the
// root keeps concurrent runs of one suite (say, from two build trees) apart;
// the root is removed when the test program exits.
inline std::filesystem::path scratch_dir(const std::string& name) {
  struct Root {
    std::filesystem::path path =
        std::filesystem::path(::testing::TempDir()) /
        ("m3dfl_" + std::to_string(::getpid()));
    Root() { std::filesystem::create_directories(path); }
    ~Root() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Root root;
  const std::filesystem::path dir = root.path / name;
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace m3dfl::testing

#endif  // M3DFL_TESTS_SCRATCH_DIR_H_
