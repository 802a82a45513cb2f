// The paper_report command line: a registered name runs its emitter, an
// unknown one is refused with the list of valid names. Only the analytic
// policy_model entry runs here, so no engine replay is started.
#include <string>

#include <gtest/gtest.h>

#include "run_binary.h"

namespace {

using rootstress::bench_test::Outcome;

Outcome run_paper_report(const std::string& args) {
  return rootstress::bench_test::run_binary(PAPER_REPORT_PATH, args);
}

TEST(PaperReport, Registry) {
  const Outcome model = run_paper_report("policy_model");
  EXPECT_EQ(model.exit_code, 0) << model.output;
  EXPECT_NE(model.output.find("== S2.2 policy model: happiness per strategy"),
            std::string::npos)
      << model.output;
  EXPECT_NE(model.output.find("paper's cases: 1 (absorbed, H=4)"),
            std::string::npos)
      << model.output;

  const Outcome unknown = run_paper_report("no_such_figure");
  EXPECT_EQ(unknown.exit_code, 2) << unknown.output;
  EXPECT_NE(unknown.output.find("no_such_figure"), std::string::npos);
  for (const char* name : {"table1", "table3", "fig3", "fig15",
                           "policy_model", "proximity"}) {
    EXPECT_NE(unknown.output.find(name), std::string::npos)
        << name << " missing from: " << unknown.output;
  }
}

}  // namespace
