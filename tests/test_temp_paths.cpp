// Tier-1 must give one verdict under `ctest -j`, where every TEST runs in
// its own process next to the others. These tests pin the scratch-path
// helper that keeps concurrent tests off each other's files, and reject a
// new fixed path under testing::TempDir() anywhere in tests/.
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
  // The needle is assembled so this file does not match itself.
  const std::string needle = std::string("TempDir()") + "+" + '"';
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
    if (code.find(needle) != std::string::npos)
      offenders.push_back(entry.path().filename().string());
  }
  EXPECT_TRUE(offenders.empty())
      << "testing::TempDir() + \"literal\" collides under ctest -j; use "
         "test::unique_temp_path(\"literal\") in: "
      << testing::PrintToString(offenders);
}

}  // namespace
}  // namespace ppg
