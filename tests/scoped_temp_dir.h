// Scoped temporary path for tests that write to disk. The path is cleared
// when the object is made and removed, with everything under it, when the
// object goes out of scope — also when a failed assertion ends the test
// early — so a test run leaves nothing behind in its working directory.
#ifndef FPVA_TESTS_SCOPED_TEMP_DIR_H
#define FPVA_TESTS_SCOPED_TEMP_DIR_H

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace fpva::test_support {

class ScopedTempDir {
 public:
  /// The path is `name` plus the process id, relative to the working
  /// directory. Nothing is created here: the code under test makes the
  /// directory (or a file in its place) itself.
  explicit ScopedTempDir(const std::string& name)
      : path_(name + "_" + std::to_string(::getpid())) {
    remove();
  }
  ~ScopedTempDir() { remove(); }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  void remove() const {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  std::string path_;
};

}  // namespace fpva::test_support

#endif  // FPVA_TESTS_SCOPED_TEMP_DIR_H
