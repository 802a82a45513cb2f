// Runs a bench binary with a command line and captures what it prints,
// for the tests that drive the bench/ programs' registries.
#pragma once

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace rootstress::bench_test {

struct Outcome {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr together
};

inline Outcome run_binary(const std::string& path, const std::string& args) {
  Outcome outcome;
  const std::string command = path + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return outcome;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    outcome.output.append(buf, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) outcome.exit_code = WEXITSTATUS(status);
  return outcome;
}

}  // namespace rootstress::bench_test
