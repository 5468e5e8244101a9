// Tier-1 must give one verdict under `ctest -j`, where every TEST runs in
// its own process next to the others. These tests pin the scratch-path
// helper that keeps concurrent tests off each other's files, and reject
// any direct use of testing::TempDir() outside that helper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "test_helpers.hpp"

namespace ppg {
namespace {

TEST(TempPaths, UniqueTempPathIsKeyedOnTestAndPid) {
  const std::string path = test::unique_temp_path("x.bin");
  EXPECT_EQ(path, test::unique_temp_path("x.bin"));
  EXPECT_NE(path, test::unique_temp_path("y.bin"));
  EXPECT_EQ(path.rfind(testing::TempDir(), 0), 0u);
  EXPECT_NE(path.find("TempPaths.UniqueTempPathIsKeyedOnTestAndPid"),
            std::string::npos);
  EXPECT_NE(path.find(std::to_string(::getpid())), std::string::npos);
}

TEST(TempPaths, NoFixedTempDirPathsInTests) {
  // The needles are assembled so this file does not match itself.
  const std::string fixed_path = std::string("TempDir()") + "+" + '"';
  const std::string any_use = std::string("TempDir") + "(";
  // The helper that derives per-test paths, and this file's own check of
  // it, are the only places that may name the shared directory.
  const std::vector<std::string> allowed = {"test_helpers.hpp",
                                            "test_temp_paths.cpp"};
  std::vector<std::string> offenders;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(PPG_TESTS_DIR)) {
    const std::string ext = entry.path().extension().string();
    if (!entry.is_regular_file() || (ext != ".cpp" && ext != ".hpp"))
      continue;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    // Whitespace-free, so a literal on the next line is caught too.
    std::string code = text.str();
    code.erase(std::remove_if(code.begin(), code.end(),
                              [](unsigned char ch) { return std::isspace(ch); }),
               code.end());
    const std::string name = entry.path().filename().string();
    const bool is_allowed =
        std::find(allowed.begin(), allowed.end(), name) != allowed.end();
    if (code.find(fixed_path) != std::string::npos ||
        (!is_allowed && code.find(any_use) != std::string::npos))
      offenders.push_back(name);
  }
  EXPECT_TRUE(offenders.empty())
      << "testing::TempDir() is shared by every test process and collides "
         "under ctest -j; use test::unique_temp_path(\"name\") in: "
      << testing::PrintToString(offenders);
}

}  // namespace
}  // namespace ppg
