// The bench_gates command line: an unknown leg is refused with exit 2 and
// the list of every leg, scale-full included. Only refused command lines
// run here, so no engine replay is started.
#include <string>

#include <gtest/gtest.h>

#include "run_binary.h"

namespace {

using rootstress::bench_test::Outcome;

Outcome run_bench_gates(const std::string& args) {
  return rootstress::bench_test::run_binary(BENCH_GATES_PATH, args);
}

TEST(BenchGates, Registry) {
  // The unknown name comes after a valid one: the command line is
  // checked whole before any leg runs.
  const Outcome unknown = run_bench_gates("obs no_such_leg");
  EXPECT_EQ(unknown.exit_code, 2) << unknown.output;
  EXPECT_NE(unknown.output.find("no_such_leg"), std::string::npos);
  EXPECT_EQ(unknown.output.find("== obs"), std::string::npos)
      << "a leg ran before the command line was refused: " << unknown.output;
  for (const char* name : {"obs", "playbook", "fault", "enduser", "parallel",
                           "scale", "distributed", "netio", "sweep",
                           "scale-full"}) {
    EXPECT_NE(unknown.output.find(std::string(" ") + name),
              std::string::npos)
        << name << " missing from: " << unknown.output;
  }

  const Outcome no_path = run_bench_gates("--json");
  EXPECT_EQ(no_path.exit_code, 2) << no_path.output;
}

}  // namespace
