#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <thread>

#include "common.h"
#include "gen/scenarios.h"

namespace perfbench {

namespace {

// A sharded server is asked only the queries the cluster routes to
// one shard (POINT, FREQ): its BEVENT and TOPK scatter-gather answers
// fail the oracle (see the README).
constexpr WorkloadSpec kWorkloads[] = {
    {"rio_ingest", 1},
    {"rio_ingest_4shards", 4},
};

bool RoutedOnly(const WorkloadSpec& spec) { return spec.shards > 1; }

// Burstiness windows of the historical query mix, and of fresh reads.
constexpr int64_t kTaus[] = {3600, 6 * 3600, 86400};
constexpr int64_t kFreshTau = 3600;
// One round of the historical mix, repeated: 7 POINT, 5 FREQ,
// 5 BEVENT, 3 TOPK. BTIME is not served here: its answers reach past
// the watermark (see the README), so the ledger times it in-process.
constexpr Query::Kind kMix[] = {
    Query::kPoint,  Query::kFreq,  Query::kBevent, Query::kPoint,
    Query::kTopk,   Query::kFreq,  Query::kPoint,  Query::kBevent,
    Query::kPoint,  Query::kFreq,  Query::kTopk,   Query::kBevent,
    Query::kPoint,  Query::kFreq,  Query::kBevent, Query::kPoint,
    Query::kTopk,   Query::kFreq,  Query::kBevent, Query::kPoint};
constexpr Query::Kind kFreshCycle[] = {Query::kPoint, Query::kBevent,
                                       Query::kTopk};
constexpr size_t kReplayQueries = 24;
// Rounds every run makes at least, so the mean over the middle half of
// the rounds has something to leave out.
constexpr size_t kMinRounds = 3;
constexpr size_t kLedgerBtimeQueries = 60;
// Lemma 5's failure probability for the served grid depth d = 2.
const double kDelta = std::exp(-2.0);

// A BEVENT threshold that admits about `rank` ids at (t, tau): the
// rank-th largest positive exact burstiness, at least 1.
double ThetaForRank(const Oracle& oracle, uint32_t universe, int64_t t,
                    int64_t tau, size_t rank) {
  std::vector<double> positive;
  for (uint32_t e = 0; e < universe; ++e) {
    const double b = oracle.Burstiness(e, t, tau);
    if (b > 0) positive.push_back(b);
  }
  if (positive.empty()) return 1.0;
  const size_t idx = std::min(rank, positive.size()) - 1;
  std::nth_element(positive.begin(), positive.begin() + idx, positive.end(),
                   std::greater<double>());
  return std::max(1.0, std::floor(positive[idx]));
}

Query HistoricalQuery(Query::Kind kind, const Inputs& in, const Oracle& oracle,
                      std::mt19937_64* rng) {
  const bursthist::EventRecord& r = in.records[(*rng)() % in.records.size()];
  Query q;
  q.kind = kind;
  q.e = r.id;
  q.tau = kTaus[(*rng)() % std::size(kTaus)];
  q.t = r.time;
  switch (kind) {
    case Query::kPoint:
      q.t = std::min<int64_t>(
          oracle.last_time(),
          r.time + static_cast<int64_t>((*rng)() %
                                        static_cast<uint64_t>(q.tau)));
      break;
    case Query::kFreq:
      q.t2 = r.time;
      q.t = std::max<int64_t>(
          0, r.time - static_cast<int64_t>((*rng)() %
                                           static_cast<uint64_t>(2 * q.tau)));
      break;
    case Query::kBtime:
      q.theta = std::max(1.0, std::floor(0.9 * oracle.Burstiness(
                                                  r.id, r.time, q.tau)));
      break;
    case Query::kBevent:
      q.theta = ThetaForRank(oracle, in.universe, r.time, q.tau, 5);
      break;
    case Query::kTopk:
    case Query::kKinds:
      q.k = 10;
      break;
  }
  return q;
}

// The first kBulkBatches * kBulkBatch records of the olympicrio preset
// drawn with `seed`; returns the preset's universe size.
uint32_t OlympicRio(uint64_t seed, std::vector<bursthist::EventRecord>* out) {
  const size_t n = kBulkBatches * kBulkBatch;
  bursthist::ScenarioConfig cfg;
  cfg.seed = seed;
  // The preset's volume at scale 1 (gen/scenarios.h); 5% slack, then take
  // the first n records.
  cfg.scale = 1.05 * static_cast<double>(n) / 5'032'975.0;
  bursthist::Dataset ds;
  for (;;) {
    ds = bursthist::MakeOlympicRio(cfg);
    if (ds.stream.size() >= n) break;
    cfg.scale *= 1.25;
  }
  const auto& all = ds.stream.records();
  out->assign(all.begin(), all.begin() + static_cast<ptrdiff_t>(n));
  return static_cast<uint32_t>(ds.universe_size);
}

std::string AddLines(const std::vector<bursthist::EventRecord>& records,
                     size_t begin, size_t end) {
  std::string out;
  out.reserve((end - begin) * 24);
  for (size_t i = begin; i < end; ++i) {
    out += "ADD ";
    out += std::to_string(records[i].id);
    out += ' ';
    out += std::to_string(records[i].time);
    out += '\n';
  }
  return out;
}

bool IsErr(const std::string& reply) { return reply.rfind("ERR", 0) == 0; }

// The machine's steal and total CPU ticks (/proc/stat), for the stderr
// note on how much of a run the hypervisor took away.
std::pair<double, double> StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0, steal = 0.0, v = 0.0;
  for (int field = 1; field <= 8 && (in >> v); ++field) {
    total += v;
    if (field == 8) steal = v;
  }
  return {steal, total};
}

// What a run accumulates over its rounds. Each end-to-end metric is
// computed per round (recovery_s per restart, setup_s per server
// start, the query metrics per query pass) and reported as the
// interquartile mean of those samples, so one round disturbed by a
// noisy neighbour does not move the result. On a shared host, rounds of
// the same inputs fall into a fast and a slow group, up to 1.5x apart;
// the median of such values jumps between the groups, the mean of the
// middle half does not.
struct Accumulator {
  std::map<std::string, Samples> per_round;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Tally tally;
  std::vector<std::string> round0_replies;  // query phase, for later rounds
  // Traced runs: odd rounds carry the tracing-only reads, even rounds
  // run without them, so the two sets give trace.overhead_share.
  Samples traced_rps;
  Samples untraced_rps;
  Samples cpu_per_wall;
};

class Round {
 public:
  Round(const WorkloadSpec& spec, const Inputs& in, const Oracle& full,
        const std::vector<std::string>& bulk_payloads, const E2EOptions& opt,
        size_t index, Accumulator* acc, E2EResult* res)
      : spec_(spec), in_(in), full_(full), bulk_payloads_(bulk_payloads),
        opt_(opt), index_(index), acc_(acc), res_(res),
        traced_(opt.trace && index % 2 == 1), dir_(opt.workdir + "/data") {}

  void Run() {
    const auto steal0 = StealTicks();
    const double t0 = Now();
    for (const auto& history : in_.fresh) FreshPhase(history);
    RemoveTree(dir_);
    ServerProcess server(opt_.cli, dir_, in_.universe, spec_.shards);
    Conn conn(server.port());
    SetUp(server);
    const double t1 = Now();
    BulkPhase(&server, &conn);
    const double t2 = Now();
    QueryPhase(server.port(), &conn);
    const double t3 = Now();
    CrashPhase(&server, &conn);
    RemoveTree(dir_);
    const double t4 = Now();

    auto& r = acc_->per_round;
    const double rps = static_cast<double>(bulk_ok_) / ingest_time_;
    r["ingest_rps"].Add(rps);
    if (opt_.trace) (traced_ ? acc_->traced_rps : acc_->untraced_rps).Add(rps);
    r["ack_p50_ms"].Add(ack_s_.Quantile(0.50) * 1e3);
    r["ack_p90_ms"].Add(ack_s_.Quantile(0.90) * 1e3);
    r["fresh_query_p50_ms"].Add(fresh_s_.Median() * 1e3);
    // The named percentiles need ten samples beyond them.
    if (ack_s_.size() < 100) {
      Die("a round has too few samples for its percentiles");
    }
    const auto steal1 = StealTicks();
    // Per-round figures on stderr, for judging steadiness.
    std::fprintf(
        stderr,
        "perfbench: round %zu: steal %.2f%%; fresh %.2f s, bulk %.2f s, "
        "query %.2f s, crash %.2f s; ack p50 %.3f p90 %.3f ms; passes' "
        "median query p99 %.1f us, point p50 %.1f us; fresh p50 %.3f ms\n",
        index_,
        100.0 * (steal1.first - steal0.first) /
            std::max(1.0, steal1.second - steal0.second),
        t1 - t0, t2 - t1, t3 - t2, t4 - t3, ack_s_.Quantile(0.5) * 1e3,
        ack_s_.Quantile(0.9) * 1e3, pass_p99_.Median(), pass_point_.Median(),
        fresh_s_.Median() * 1e3);
  }

 private:
  // Any refused record makes later answers uncheckable, so it also
  // fails correctness.
  void Acked(size_t sent, size_t oks, const std::string& other) {
    acc_->attempted += sent;
    acc_->failed += sent - oks;
    if (oks != sent) acc_->tally.Violation("ADD refused: " + other);
  }

  void Queried(const std::string& reply) {
    ++acc_->attempted;
    if (IsErr(reply)) {
      ++acc_->failed;
      acc_->tally.Violation("query refused: " + reply);
    }
  }

  // Every server a round starts on an empty directory is one set-up
  // sample: from its spawn until its first measured request can go out
  // on a connected socket.
  void SetUp(const ServerProcess& server) {
    acc_->per_round["setup_s"].Add(Now() - server.spawned_at());
  }

  void FreshPhase(const std::vector<bursthist::EventRecord>& records) {
    const std::string dir = opt_.workdir + "/fresh";
    RemoveTree(dir);
    ServerProcess server(opt_.cli, dir, in_.universe, spec_.shards);
    Conn conn(server.port());
    SetUp(server);
    Oracle live(in_.universe);
    const PointFn point = [&conn](const std::string& l) {
      return conn.Call(l);
    };
    for (size_t i = 0; i < kFreshIters; ++i) {
      const size_t begin = i * kFreshBatch;
      const size_t end = begin + kFreshBatch;
      std::string other;
      conn.Send(AddLines(records, begin, end));
      Acked(kFreshBatch, conn.ReadOks(kFreshBatch, &other), other);
      for (size_t j = begin; j < end; ++j) {
        live.Add(records[j].id, records[j].time);
      }

      Query q;
      q.kind = RoutedOnly(spec_) ? Query::kPoint
                                 : kFreshCycle[i % std::size(kFreshCycle)];
      q.e = records[end - 1].id;
      q.t = live.last_time();
      q.tau = kFreshTau;
      if (q.kind == Query::kBevent) {
        q.theta = ThetaForRank(live, in_.universe, q.t, q.tau, 3);
      }
      const double t0 = Now();
      const std::string reply = conn.Call(q.Line());
      fresh_s_.Add(Now() - t0);
      Queried(reply);
      if (!IsErr(reply)) {
        CheckReply(q, reply, live, live.last_time(), point, &acc_->tally);
      }
    }
    if (opt_.trace && index_ == 0) {
      res_->counters["server.snapshot_refreshes"] += PromValue(
          conn.Metrics(), "bursthist_engine_read_snapshots_total");
    }
    server.Kill();
    RemoveTree(dir);
  }

  // Traced rounds read the server's CPU time around the bulk phase;
  // those reads are the only tracing-only actions.
  void BulkPhase(ServerProcess* server, Conn* conn) {
    const double cpu0 = traced_ ? server->CpuSeconds() : 0.0;
    const double wall0 = Now();
    for (const std::string& payload : bulk_payloads_) {
      std::string other;
      const double t0 = Now();
      conn->Send(payload);
      const size_t oks = conn->ReadOks(kBulkBatch, &other);
      const double t1 = Now();
      ingest_time_ += t1 - t0;
      ack_s_.Add(t1 - t0);
      Acked(kBulkBatch, oks, other);
      bulk_ok_ += oks;
    }
    if (traced_) {
      const double wall = Now() - wall0;
      acc_->cpu_per_wall.Add((server->CpuSeconds() - cpu0) / wall);
    }
  }

  void QueryPhase(uint16_t port, Conn* conn) {
    const int64_t watermark = full_.last_time();
    const PointFn point = [conn](const std::string& l) {
      return conn->Call(l);
    };
    // The first query after the bulk load takes the cold snapshot; it
    // is checked but not sampled.
    const Query& first = in_.queries.front();
    const std::string cold = conn->Call(first.Line());
    Queried(cold);
    if (index_ == 0 && !IsErr(cold)) {
      CheckReply(first, cold, full_, watermark, point, &acc_->tally);
    }

    // kQueryPasses passes over the list, each on three new connections
    // (so on new server connection threads), each connection a closed
    // loop over its share. Where the scheduler places those threads moves
    // a pass's latencies by 10-20%, so every pass is one sample of the
    // query metrics.
    const size_t n = in_.queries.size();
    const size_t per = kQueriesPerConn;
    std::vector<std::string> replies(kQueryPasses * n);
    std::vector<double> latency(kQueryPasses * n);
    for (size_t pass = 0; pass < kQueryPasses; ++pass) {
      std::vector<std::unique_ptr<Conn>> conns;
      while (conns.size() < kQueryConns) {
        conns.push_back(std::make_unique<Conn>(port));
      }
      std::atomic<bool> go{false};
      std::vector<std::thread> threads;
      for (size_t c = 0; c < kQueryConns; ++c) {
        threads.emplace_back([&, c] {
          while (!go.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          Conn* mine = conns[c].get();
          for (size_t i = c * per; i < (c + 1) * per; ++i) {
            const std::string line = in_.queries[i].Line() + "\n";
            const double t0 = Now();
            mine->Send(line);
            replies[pass * n + i] = mine->ReadLine();
            latency[pass * n + i] = Now() - t0;
          }
        });
      }
      const double t0 = Now();
      go.store(true, std::memory_order_release);
      for (std::thread& t : threads) t.join();
      const double wall = Now() - t0;

      Samples all, points;
      for (size_t i = 0; i < n; ++i) {
        all.Add(latency[pass * n + i]);
        if (in_.queries[i].kind == Query::kPoint) {
          points.Add(latency[pass * n + i]);
        }
      }
      // The named percentiles need ten samples beyond them.
      if (all.size() < 1000) Die("a pass has too few samples for its p99");
      auto& r = acc_->per_round;
      r["query_qps"].Add(static_cast<double>(n) / wall);
      r["query_p99_us"].Add(all.Quantile(0.99) * 1e6);
      r["point_p50_us"].Add(points.Median() * 1e6);
      pass_p99_.Add(all.Quantile(0.99) * 1e6);
      pass_point_.Add(points.Median() * 1e6);
    }

    for (const std::string& reply : replies) Queried(reply);
    if (index_ == 0) {
      for (size_t i = 0; i < n; ++i) {
        if (!IsErr(replies[i])) {
          CheckReply(in_.queries[i], replies[i], full_, watermark, point,
                     &acc_->tally);
        }
      }
      acc_->round0_replies.assign(replies.begin(),
                                  replies.begin() + static_cast<ptrdiff_t>(n));
    }
    // Every pass and round replays the same history, so answers repeat.
    for (size_t j = 0; j < replies.size(); ++j) {
      if (replies[j] != acc_->round0_replies[j % n]) {
        acc_->tally.Violation("round " + std::to_string(index_) +
                              " answered differently: " +
                              in_.queries[j % n].Line());
        break;
      }
    }
  }

  // Counters that must all agree with the records acknowledged.
  void CheckCounters(Conn* conn) {
    const std::string want = std::to_string(bulk_ok_);
    const std::string stats = conn->Call("STATS");
    if (KeyValues(stats)["total"] != want) {
      acc_->tally.Violation("STATS total disagrees with " + want +
                            " acknowledged: " + stats);
    }
    const std::string metrics = conn->Metrics();
    if (PromValue(metrics, "bursthist_server_ingest_records_total") !=
        static_cast<double>(bulk_ok_)) {
      acc_->tally.Violation("ingest_records_total disagrees with " + want);
    }
    if (spec_.shards > 1) {
      const std::string ss = conn->Call("SHARDSTATS");
      uint64_t sum = 0;
      uint64_t largest = 0;
      for (const std::string& tok : Split(ss)) {
        if (tok.rfind("total=", 0) == 0) {
          const uint64_t v = std::strtoull(tok.c_str() + 6, nullptr, 10);
          sum += v;
          largest = std::max(largest, v);
        }
      }
      if (sum != bulk_ok_) {
        acc_->tally.Violation("SHARDSTATS totals disagree with " + want);
      }
      if (opt_.trace && index_ == 0 && sum > 0) {
        res_->counters["shard.max_record_share.served"] =
            static_cast<double>(largest) / static_cast<double>(sum);
      }
    }
    if (opt_.trace && index_ == 0) {
      res_->counters["server.ring_full_retries"] =
          PromValue(metrics, "bursthist_server_ring_full_retries_total");
    }
  }

  std::vector<std::string> Replay(Conn* conn) {
    std::vector<std::string> out;
    out.push_back(conn->Call("STATS"));
    for (const Query& q : in_.replay) out.push_back(conn->Call(q.Line()));
    // The generation and accepted counters restart with the process;
    // the data fields must not.
    for (const char* volatile_field : {" generation=", " accepted="}) {
      const size_t at = out[0].find(volatile_field);
      if (at != std::string::npos) {
        const size_t end = out[0].find(' ', at + 1);
        out[0].erase(at, end == std::string::npos ? std::string::npos
                                                  : end - at);
      }
    }
    return out;
  }

  // Every restart replays the whole WAL again (nothing checkpoints),
  // so each is one recovery_s sample.
  // The replies are compared after the last, which has come through
  // every cycle.
  void CrashPhase(ServerProcess* server, Conn* conn) {
    CheckCounters(conn);
    const std::vector<std::string> before = Replay(conn);
    acc_->per_round["peak_rss_mb"].Add(server->PeakRssMb());
    server->Kill();

    for (size_t cycle = 1; cycle <= kRestarts; ++cycle) {
      ServerProcess restarted(opt_.cli, dir_, in_.universe, spec_.shards);
      Conn again(restarted.port());
      const std::string pong = again.Call("PING");
      acc_->per_round["recovery_s"].Add(Now() - restarted.spawned_at());
      if (pong != "PONG") acc_->tally.Violation("restart answered " + pong);
      if (cycle == kRestarts) {
        const std::vector<std::string> after = Replay(&again);
        for (size_t i = 0; i < before.size(); ++i) {
          if (before[i] != after[i]) {
            acc_->tally.Violation("after SIGKILL + restart: '" + after[i] +
                                  "' was '" + before[i] + "'");
            break;
          }
        }
        acc_->per_round["disk_mb"].Add(static_cast<double>(DirBytes(dir_)) /
                                       1e6);
      }
      restarted.Kill();
    }
  }

  const WorkloadSpec& spec_;
  const Inputs& in_;
  const Oracle& full_;
  const std::vector<std::string>& bulk_payloads_;
  const E2EOptions& opt_;
  size_t index_;
  Accumulator* acc_;
  E2EResult* res_;
  bool traced_;  // this round carries the tracing-only reads
  std::string dir_;
  uint64_t bulk_ok_ = 0;       // records the main server acknowledged
  double ingest_time_ = 0.0;   // bulk phase, batch by batch
  Samples ack_s_;    // bulk ADD batch: first byte out to last OK in
  Samples fresh_s_;  // query right after an acknowledged ADD batch
  Samples pass_p99_;    // query phase: each pass's p99, us
  Samples pass_point_;  // ... and its median POINT latency, us
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  in.universe = OlympicRio(seed, &in.records);
  // Each fresh history is the start of a stream at the main stream's
  // scale, so it has the same density of records in time.
  for (uint64_t h = 1; h <= kFreshHistories; ++h) {
    std::vector<bursthist::EventRecord> stream;
    if (OlympicRio(seed + h * 0x9e3779b97f4a7c15ULL, &stream) != in.universe) {
      Die("olympicrio streams disagree on the universe");
    }
    stream.resize(kFreshIters * kFreshBatch);
    in.fresh.push_back(std::move(stream));
  }

  Oracle full(in.universe);
  for (const auto& r : in.records) full.Add(r.id, r.time);
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const size_t total = kQueryConns * kQueriesPerConn;
  for (size_t i = 0; i < total; ++i) {
    in.ledger_queries.push_back(
        HistoricalQuery(kMix[i % std::size(kMix)], in, full, &rng));
  }
  for (size_t i = 0; i < kLedgerBtimeQueries; ++i) {
    in.ledger_queries.push_back(
        HistoricalQuery(Query::kBtime, in, full, &rng));
  }
  for (const Query& q : in.ledger_queries) {
    if (in.queries.size() == total) break;
    if (q.kind == Query::kPoint || q.kind == Query::kFreq ||
        (!RoutedOnly(spec) && q.kind != Query::kBtime)) {
      in.queries.push_back(q);
    }
  }
  while (in.queries.size() < total) {
    in.queries.push_back(HistoricalQuery(
        in.queries.size() % 2 ? Query::kFreq : Query::kPoint, in, full, &rng));
  }
  const size_t replay = std::min(kReplayQueries, in.queries.size());
  in.replay.assign(in.queries.begin(),
                   in.queries.begin() + static_cast<ptrdiff_t>(replay));
  return in;
}

E2EResult RunEndToEnd(const WorkloadSpec& spec, const Inputs& in,
                      const E2EOptions& opt) {
  E2EResult res;
  Accumulator acc;
  Oracle full(in.universe);
  for (const auto& r : in.records) full.Add(r.id, r.time);
  std::vector<std::string> bulk_payloads;
  for (size_t b = 0; b < kBulkBatches; ++b) {
    const size_t begin = b * kBulkBatch;
    bulk_payloads.push_back(AddLines(in.records, begin, begin + kBulkBatch));
  }

  const auto steal0 = StealTicks();
  const double start = Now();
  // A round starts only if, at the mean round length so far, it should
  // end within --seconds, so a run lasts about --seconds, not up to one
  // round more.
  for (size_t i = 0;; ++i) {
    const double elapsed = Now() - start;
    if (i >= kMinRounds &&
        elapsed + elapsed / static_cast<double>(i) > opt.seconds) {
      break;
    }
    Round(spec, in, full, bulk_payloads, opt, i, &acc, &res).Run();
    res.rounds = i + 1;
  }

  res.correct = acc.tally.Ok(kDelta);
  for (const std::string& v : acc.tally.violations) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", v.c_str());
  }
  if (acc.tally.outside_bound > 0) {
    std::fprintf(stderr,
                 "perfbench: %llu of %llu POINT/FREQ answers outside bound= "
                 "(allowed share %.3f)\n",
                 static_cast<unsigned long long>(acc.tally.outside_bound),
                 static_cast<unsigned long long>(acc.tally.bounded), kDelta);
  }
  res.attempted = acc.attempted;
  res.failed = acc.failed;
  if (acc.tally.point_answers > 0) {
    res.mean_point_abs_error = acc.tally.point_abs_error /
                               static_cast<double>(acc.tally.point_answers);
  }

  for (const auto& [name, per_round] : acc.per_round) {
    res.metrics[name] = per_round.InterquartileMean();
  }
  if (opt.trace) {
    res.counters["shard.cpu_per_wall"] = acc.cpu_per_wall.Median();
    // How much longer a record takes to ingest in traced rounds than in
    // untraced ones; noise can make it negative.
    res.counters["trace.overhead_share"] =
        acc.untraced_rps.Median() / acc.traced_rps.Median() - 1.0;
  }
  const auto steal1 = StealTicks();
  std::fprintf(stderr,
               "perfbench: %zu round(s), mean |POINT error| %.3f, CPU steal "
               "%.2f%%\n",
               res.rounds, res.mean_point_abs_error,
               100.0 * (steal1.first - steal0.first) /
                   std::max(1.0, steal1.second - steal0.second));
  return res;
}

}  // namespace perfbench
