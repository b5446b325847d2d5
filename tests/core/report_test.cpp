#include "core/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "api/run.hpp"

namespace rmp::core {
namespace {

TEST(ReportTest, TextTableAlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
}

TEST(ReportTest, NumberFormatting) {
  EXPECT_EQ(TextTable::num(1.5), "1.5");
  EXPECT_EQ(TextTable::fixed(3.14159, 2), "3.14");
}

TEST(ReportTest, SummaryPrints) {
  api::RunSpec spec;
  spec.problem = "zdt1?n=6";
  spec.optimizer = "pmo2?islands=2&migration_interval=10";
  spec.generations = 5;
  spec.seed = 5;
  spec.threads = 1;
  const api::RunResult result = api::run(spec);
  std::ostringstream os;
  api::print_summary(result, os);
  EXPECT_NE(os.str().find("front:"), std::string::npos);
  EXPECT_NE(os.str().find("closest-to-ideal"), std::string::npos);
}

}  // namespace
}  // namespace rmp::core
