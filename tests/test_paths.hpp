#pragma once

// Scratch-file paths for tests that write stores. CTest runs the seed-sweep
// instances of one binary (and different binaries) concurrently under
// `ctest -j`; a fixed file name would let one instance truncate or delete
// another's store mid-test. Every path is therefore unique per process.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <string>

namespace naas::test {

/// TempDir() + "naas_<pid>_<sweep>_<name>", where <sweep> is the
/// NAAS_TEST_SEED value ("0" when unset). The pid separates concurrent
/// processes; the sweep index keeps a failing instance's leftover file
/// recognisable.
inline std::string unique_temp_path(const std::string& name) {
  const char* sweep = std::getenv("NAAS_TEST_SEED");
  return ::testing::TempDir() + "naas_" + std::to_string(::getpid()) + "_" +
         (sweep != nullptr && *sweep != '\0' ? sweep : "0") + "_" + name;
}

}  // namespace naas::test
