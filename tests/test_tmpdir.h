// Per-test scratch directories for tests that write files.
//
// gtest_discover_tests registers every test as its own process and
// `ctest -j` runs those processes concurrently, so a fixed path such as
// ::testing::TempDir() + "/veritas_obs.csv" is shared by tests that run at
// the same time: one test's fixture removes or overwrites another's file.
// TestTmpDir() is unique to the running test (suite, name and pid) and is
// removed, with everything in it, when the test ends.
#ifndef VERITAS_TESTS_TEST_TMPDIR_H_
#define VERITAS_TESTS_TEST_TMPDIR_H_

#include <unistd.h>

#include <filesystem>
#include <mutex>
#include <string>

#include <gtest/gtest.h>

namespace veritas {

namespace test_tmpdir_internal {

// Removes the directory a test created when that test ends. Installed once
// per process, on the first TestTmpDir() call.
class Cleaner : public ::testing::EmptyTestEventListener {
 public:
  void Track(const std::string& dir) {
    std::lock_guard<std::mutex> lock(mu_);
    dir_ = dir;
  }

  void OnTestEnd(const ::testing::TestInfo& /*info*/) override {
    std::string dir;
    {
      std::lock_guard<std::mutex> lock(mu_);
      dir.swap(dir_);
    }
    if (dir.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }

 private:
  std::mutex mu_;
  std::string dir_;  // Guarded by mu_.
};

inline Cleaner& InstalledCleaner() {
  // The listener list owns the cleaner once appended.
  static Cleaner* cleaner = [] {
    auto* c = new Cleaner;
    ::testing::UnitTest::GetInstance()->listeners().Append(c);
    return c;
  }();
  return *cleaner;
}

}  // namespace test_tmpdir_internal

/// The running test's scratch directory, created on first use:
/// <TempDir>/veritas_<Suite>.<Name>_<pid>, with '/' of parameterized names
/// replaced by '_'. Removed when the test ends.
inline std::string TestTmpDir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info != nullptr ? std::string(info->test_suite_name()) +
                                           "." + info->name()
                                     : std::string("no_test");
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("veritas_" + name + "_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  test_tmpdir_internal::InstalledCleaner().Track(dir.string());
  return dir.string();
}

/// Path of `name` inside TestTmpDir().
inline std::string TestTmpPath(const std::string& name) {
  return TestTmpDir() + "/" + name;
}

}  // namespace veritas

#endif  // VERITAS_TESTS_TEST_TMPDIR_H_
