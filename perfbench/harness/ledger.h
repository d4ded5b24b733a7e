// The per-layer ledger of a traced run.
//
// Each layer's public entry points are called in-process on the same
// inputs the end-to-end rounds sent over the wire, and timed here, in
// the benchmark's own code, around each call (the program itself
// carries no extra tracing):
//
//   server    ParseRequest over every request line; BurstService::
//             HandleLines on the rounds' ADD batches, no sockets
//   shard     ClusterEngine::AppendBatch on 4 shards; record skew
//   recovery  DurableBurstEngine::AppendBatch against the bare engine
//             (the WAL's share); Open on the directory the appends
//             left without a checkpoint (a kill's state); Checkpoint
//   core      BurstEngine::AppendBatch with the served cells, and with
//             budget = buffer so Algorithm 1's DP never runs;
//             AcquireSnapshot after one append; ReadSnapshot queries
//   pla       OptimalStaircase on 1500-point buffers cut from the
//             stream's own per-event curves
//
// plus the counters the served processes exposed during the traced
// end-to-end rounds (/metrics, SHARDSTATS, /proc).

#ifndef PERFBENCH_HARNESS_LEDGER_H_
#define PERFBENCH_HARNESS_LEDGER_H_

#include <map>
#include <string>

#include "workload.h"

namespace perfbench {

/// Every per-layer metric by name. `workdir` is scratch space.
std::map<std::string, double> RunLedger(const Inputs& inputs,
                                        const E2EResult& e2e,
                                        const std::string& workdir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LEDGER_H_
