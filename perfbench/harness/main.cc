// perfbench_load: the served-system benchmark's load generator.
//
//   perfbench_load --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --cli <bursthist_cli> --workdir <dir>
//
// Generates the workload's inputs from --seed, drives real
// `bursthist_cli serve` processes through whole rounds (workload.h),
// checks every answer against the independent oracle (oracle.h) and
// prints one JSON line as the last line of stdout:
//   --trace 0  the end-to-end metrics;
//   --trace 1  the per-layer ledger (ledger.h) plus the counters the
//              served process exposes.
// Exit status is 0 only when a result line was printed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "common.h"
#include "ledger.h"
#include "workload.h"

namespace {

using perfbench::Die;

struct Unit {
  const char* metric;
  const char* unit;
};

constexpr Unit kUnits[] = {
    {"setup_s", "s"},
    {"ingest_rps", "records/s"},
    {"ack_p50_ms", "ms"},
    {"ack_p90_ms", "ms"},
    {"recovery_s", "s"},
    {"query_qps", "queries/s"},
    {"query_p99_us", "us"},
    {"point_p50_us", "us"},
    {"fresh_query_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"disk_mb", "MB"},
    {"server.parse_ns_per_line", "ns"},
    {"server.handle_lines_s", "s"},
    {"server.snapshot_refreshes", "count"},
    {"server.ring_full_retries", "count"},
    {"shard.append_batch_s", "s"},
    {"shard.max_record_share", "share"},
    {"shard.cpu_per_wall", "share"},
    {"recovery.wal_share", "share"},
    {"recovery.replay_s", "s"},
    {"recovery.replayed_records", "count"},
    {"recovery.checkpoint_s", "s"},
    {"recovery.wal_bytes_per_record", "B"},
    {"core.append_batch_s", "s"},
    {"core.append_batch_lossless_s", "s"},
    {"core.snapshot_acquire_ms", "ms"},
    {"core.point_us", "us"},
    {"core.btime_us", "us"},
    {"core.bevent_us", "us"},
    {"core.topk_us", "us"},
    {"core.bevent_point_queries", "count"},
    {"core.resident_mb", "MB"},
    {"pla.dp_ms_per_call", "ms"},
    {"pla.dp_share", "share"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead_share", "share"},
};

const char* UnitOf(const std::string& metric) {
  for (const Unit& u : kUnits) {
    if (metric == u.metric) return u.unit;
  }
  Die("no unit for metric " + metric);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::map<std::string, double>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           UnitOf(name) + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      Die("bad argument " + std::string(argv[i]));
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "cli", "workdir"}) {
    if (args.count(required) == 0) {
      Die(std::string("missing --") + required);
    }
  }
  const perfbench::WorkloadSpec* spec =
      perfbench::FindWorkload(args["workload"]);
  if (spec == nullptr) Die("unknown workload " + args["workload"]);
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const bool trace = args["trace"] == "1";

  perfbench::E2EOptions opt;
  opt.cli = args["cli"];
  opt.workdir = args["workdir"];
  opt.seconds = std::strtod(args["seconds"].c_str(), nullptr);
  opt.trace = trace;
  if (opt.seconds <= 0) Die("--seconds must be positive");
  std::filesystem::create_directories(opt.workdir);

  const perfbench::Inputs inputs = perfbench::MakeInputs(*spec, seed);
  perfbench::E2EResult e2e = perfbench::RunEndToEnd(*spec, inputs, opt);
  if (!trace) {
    PrintResult(e2e.correct, e2e.attempted, e2e.failed, e2e.metrics);
    perfbench::RemoveTree(opt.workdir);
    return 0;
  }
  const std::map<std::string, double> layers =
      perfbench::RunLedger(inputs, e2e, opt.workdir);
  PrintResult(e2e.correct, e2e.attempted, e2e.failed, layers);
  perfbench::RemoveTree(opt.workdir);
  return 0;
}
