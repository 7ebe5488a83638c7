// perfbench — runs one benchmark workload against the monge public API.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--commit SHA] [--source-digest HEX]
//   perfbench --self-test       harness arithmetic on synthetic samples
//   perfbench --list-metrics    declared metric names and units
//
// Workloads: lis-random, lis-nearsorted, service-mixed, mpc-lis (see
// perfbench/README.md). A traced run (--trace 1) writes its Chrome trace to
// --trace-out. The last stdout line is the result JSON; the exit
// code is non-zero when any answer was wrong or the run could not finish.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--commit SHA] "
               "[--source-digest HEX]\n       perfbench --self-test | "
               "--list-metrics\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return run_selftest() == 0 ? 0 : 1;
    if (flag == "--list-metrics") {
      for (const std::string& m : end_to_end_names()) {
        std::printf("end_to_end %s\n", m.c_str());
      }
      for (const Metric& m : zeroed_per_layer()) {
        std::printf("per_layer %s %s\n", m.name.c_str(), m.unit.c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--commit") {
      opt.commit = value;
    } else if (flag == "--source-digest") {
      opt.source_digest = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(opt.seconds > 0)) usage("--seconds must be > 0");
  if (opt.trace && opt.trace_out.empty()) usage("--trace 1 needs --trace-out");

  WorkloadResult res;
  try {
    if (opt.workload == "lis-random") {
      res = run_lis(opt, false);
    } else if (opt.workload == "lis-nearsorted") {
      res = run_lis(opt, true);
    } else if (opt.workload == "service-mixed") {
      res = run_service(opt);
    } else if (opt.workload == "mpc-lis") {
      res = run_mpc(opt);
    } else {
      usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload %s aborted: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  if (res.threads.total() > 4) {
    res.problems.push_back("thread budget exceeded: " +
                           std::to_string(res.threads.total()) + " > 4");
  }
  print_report(opt, res, opt.trace ? per_layer_names() : end_to_end_names());
  return res.wrong == 0 && res.problems.empty() ? 0 : 1;
}
