// End-to-end tests for the qdlint driver: tree walking, per-file plus
// project findings, and the error paths. Builds a tiny throwaway repo under
// the system temp directory.

#include "driver.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

class DriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("qdlint_driver_test_" + std::to_string(::getpid()));
    fs::remove_all(root_);

    // A minimal two-layer repo: util below core, one deliberate per-file
    // violation (rand) and one deliberate layer violation (util -> core).
    write("tools/qdlint/layers.txt", "layer util src/util\nlayer core src/core\n");
    write("src/util/low.h", "#pragma once\ninline int low() { return 0; }\n");
    write("src/util/up.h", "#pragma once\n#include \"core/api.h\"\n");
    write("src/core/api.h", "#pragma once\n");
    write("src/core/bad.cpp", "#include \"util/low.h\"\nint seed = rand();\n");
  }
  void TearDown() override { fs::remove_all(root_); }

  void write(const std::string& rel, const std::string& content) {
    const fs::path full = root_ / rel;
    fs::create_directories(full.parent_path());
    std::ofstream out(full, std::ios::binary | std::ios::trunc);
    out << content;
  }

  qdlint::DriverOptions opts() const {
    qdlint::DriverOptions o;
    o.root = root_.string();
    return o;
  }

  static std::vector<std::string> keys(const qdlint::DriverResult& r) {
    std::vector<std::string> out;
    for (const auto& f : r.findings) {
      out.push_back(f.path + "|" + f.rule + "|" + std::to_string(f.line));
    }
    return out;
  }

  fs::path root_;
};

TEST_F(DriverTest, ColdRunFindsPerFileAndProjectFindings) {
  const qdlint::DriverResult r = qdlint::run_driver(opts());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.files_scanned, 4);  // layers.txt is not a lintable source file
  const std::vector<std::string> want = {
      "src/core/bad.cpp|det-rand|2",
      "src/util/up.h|arch-layer-violation|2",
  };
  EXPECT_EQ(keys(r), want);
  ASSERT_EQ(r.line_texts.size(), 2u);
  EXPECT_EQ(r.line_texts[0], "int seed = rand();");
}

TEST_F(DriverTest, ExplicitPathsRestrictTheWalk) {
  qdlint::DriverOptions o = opts();
  o.paths = {"src/core"};
  const qdlint::DriverResult r = qdlint::run_driver(o);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.files_scanned, 2);
  // The layer violation lives in src/util, which was not scanned.
  const std::vector<std::string> want = {"src/core/bad.cpp|det-rand|2"};
  EXPECT_EQ(keys(r), want);
}

TEST_F(DriverTest, MissingLayerMapIsAHardError) {
  fs::remove(root_ / "tools/qdlint/layers.txt");
  const qdlint::DriverResult r = qdlint::run_driver(opts());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("layer map"), std::string::npos) << r.error;
}

TEST_F(DriverTest, UnknownPathIsAHardError) {
  qdlint::DriverOptions o = opts();
  o.paths = {"no/such/dir"};
  const qdlint::DriverResult r = qdlint::run_driver(o);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no such file"), std::string::npos) << r.error;
}

}  // namespace
