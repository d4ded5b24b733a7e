// The workloads and the end-to-end runner.
//
// Every workload runs whole ROUNDS of the same operations against
// fresh `bursthist_cli serve` processes on empty data directories, so
// each round repeats the same work and a run's figures do not drift
// with how far a fast or slow build got into the history. A round is:
//
//   fresh  for each of kFreshHistories short histories, a new server
//          and one connection that alternates an ADD batch with one
//          query at the newest timestamp (POINT, BEVENT, TOPK in turn),
//          so every query forces a new snapshot. The cost of a fresh
//          read varies widely between streams, so one history alone
//          would make the figure follow the seed;
//   bulk   a new server; the main stream pipelined as ADD batches on
//          one connection (closed loop: a batch goes out once every
//          reply to the previous one has arrived);
//   query  kQueryPasses passes, each on three new connections, each
//          connection a closed loop over its share of a fixed
//          POINT/FREQ/BEVENT/TOPK mix at historical times; every pass is
//          one sample of the query metrics;
//   crash  counters cross-checked, a fixed query set recorded, then
//          kRestarts cycles of SIGKILL and restart on the same
//          directory; the same set replayed after the last.
//
// The workloads differ only in the server's shard count (see the
// README). Rounds repeat while the next one should end within
// --seconds, and a run makes at least three.

#ifndef PERFBENCH_HARNESS_WORKLOAD_H_
#define PERFBENCH_HARNESS_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "oracle.h"
#include "stream/event_stream.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  size_t shards;  ///< serve --shards (1 = plain serve)
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

// A round's make-up, the same in every workload.
constexpr size_t kFreshHistories = 8;
constexpr size_t kFreshIters = 50;   ///< per history: ADD batch + query
constexpr size_t kFreshBatch = 10;   ///< records per fresh ADD batch
constexpr size_t kBulkBatches = 160; ///< bulk phase: pipelined ADD batches
constexpr size_t kBulkBatch = 256;   ///< records per bulk ADD batch
constexpr size_t kQueryConns = 3;    ///< the whole load stays within three
constexpr size_t kQueriesPerConn = 2000;
constexpr size_t kQueryPasses = 6;   ///< times each connection plays its share
constexpr size_t kRestarts = 2;      ///< crash phase: kill/restart cycles

/// One round's inputs, the same for every round of a run.
struct Inputs {
  uint32_t universe = 0;
  std::vector<bursthist::EventRecord> records;  ///< the main stream
  /// The fresh phase's short histories, each from its own stream.
  std::vector<std::vector<bursthist::EventRecord>> fresh;
  std::vector<Query> queries;  ///< query phase, kQueryConns * per-conn
  std::vector<Query> replay;   ///< crash phase's fixed set
  /// The full mix plus BTIME, timed in-process by the ledger.
  std::vector<Query> ledger_queries;
};

/// Generates the stream from the preset and the query lists from
/// `seed`; the same seed always gives the same inputs.
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// What the end-to-end runner measured.
struct E2EResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t rounds = 0;
  std::map<std::string, double> metrics;  ///< the end-to-end set
  double mean_point_abs_error = 0.0;      ///< vs the oracle (README only)
  // Traced runs only: counters the server exposes, sampled /proc, and
  // trace.overhead_share.
  std::map<std::string, double> counters;
};

struct E2EOptions {
  std::string cli;      ///< bursthist_cli path
  std::string workdir;  ///< scratch space inside the checkout
  double seconds = 10;
  bool trace = false;
};

E2EResult RunEndToEnd(const WorkloadSpec& spec, const Inputs& inputs,
                      const E2EOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOAD_H_
