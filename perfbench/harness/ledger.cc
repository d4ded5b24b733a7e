#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <vector>

#include "common.h"
#include "core/burst_engine.h"
#include "core/parallel_ingest.h"
#include "core/read_snapshot.h"
#include "pla/optimal_staircase.h"
#include "recovery/durable_engine.h"
#include "server/ingest_server.h"
#include "server/wire.h"
#include "shard/cluster_engine.h"
#include "util/env.h"

namespace perfbench {

namespace {

using bursthist::BurstEngine;
using bursthist::BurstEngineOptions;
using bursthist::DurableBurstEngine;
using bursthist::Env;
using bursthist::Pbe1;
using bursthist::WeightedRecord;

// The cells `bursthist_cli serve` builds by default: PBE-1, d = 2,
// w = 55, grid seed 0, n = 1500, eta = 120.
BurstEngineOptions<Pbe1> ServedOptions(uint32_t universe) {
  BurstEngineOptions<Pbe1> o;
  o.universe_size = universe;
  o.grid.depth = 2;
  o.grid.width = 55;
  o.grid.seed = 0;
  o.cell.buffer_points = 1500;
  o.cell.budget_points = 120;
  return o;
}

template <typename T>
T OrDie(bursthist::Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().message());
  return std::move(r).value();
}

void OkOrDie(const bursthist::Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.message());
}

// Wall time of the layer calls, kept apart from the ledger's own
// bookkeeping so the residual can be reported.
class Clock {
 public:
  template <typename Fn>
  double Span(Fn&& fn) {
    const double t0 = Now();
    fn();
    const double dt = Now() - t0;
    attributed_ += dt;
    return dt;
  }
  double attributed() const { return attributed_; }

 private:
  double attributed_ = 0.0;
};

class Ledger {
 public:
  Ledger(const Inputs& in, const std::string& dir)
      : in_(in), dir_(dir), options_(ServedOptions(in.universe)) {
    // The bulk phase's batches of the main stream.
    for (size_t begin = 0; begin < in.records.size(); begin += kBulkBatch) {
      std::vector<WeightedRecord> batch;
      std::vector<std::string> lines;
      for (size_t i = begin; i < begin + kBulkBatch; ++i) {
        const auto& r = in.records[i];
        batch.push_back(WeightedRecord{r.id, r.time, 1});
        lines.push_back("ADD " + std::to_string(r.id) + " " +
                        std::to_string(r.time));
      }
      batches_.push_back(std::move(batch));
      lines_.push_back(std::move(lines));
    }
  }

  std::map<std::string, double> Run(const E2EResult& e2e) {
    const double t0 = Now();
    Server();
    Core();
    Recovery();
    Shard();
    Pla();
    const double wall = Now() - t0;
    m_["trace.unattributed_s"] = wall - clock_.attributed();
    for (const char* name :
         {"server.snapshot_refreshes", "server.ring_full_retries",
          "shard.cpu_per_wall", "trace.overhead_share"}) {
      const auto it = e2e.counters.find(name);
      if (it == e2e.counters.end()) Die(std::string("no counter ") + name);
      m_[name] = it->second;
    }
    const auto served = e2e.counters.find("shard.max_record_share.served");
    if (served != e2e.counters.end() &&
        served->second != m_["shard.max_record_share"]) {
      std::fprintf(stderr,
                   "perfbench: warning: SHARDSTATS share %.6f differs from "
                   "the in-process routing's %.6f\n",
                   served->second, m_["shard.max_record_share"]);
    }
    return m_;
  }

 private:
  std::string Dir(const char* name) {
    const std::string d = dir_ + "/" + name;
    RemoveTree(d);
    return d;
  }

  void Server() {
    // Parsing, over every ADD line and query line; the best of five
    // passes, since one pass takes only milliseconds.
    std::vector<std::string> all;
    for (const auto& lines : lines_) {
      all.insert(all.end(), lines.begin(), lines.end());
    }
    for (const Query& q : in_.ledger_queries) all.push_back(q.Line());
    double best = 1e300;
    for (int pass = 0; pass < 5; ++pass) {
      best = std::min(best, clock_.Span([&] {
        for (const std::string& line : all) {
          if (!bursthist::server::ParseRequest(line).ok()) {
            Die("ParseRequest refused " + line);
          }
        }
      }));
    }
    m_["server.parse_ns_per_line"] =
        best * 1e9 / static_cast<double>(all.size());

    // Dispatch without sockets: the service applies each batch inline.
    auto durable = OrDie(DurableBurstEngine<Pbe1>::Open(
                             Env::Default(), Dir("service"), options_),
                         "open service engine");
    bursthist::server::BurstService<DurableBurstEngine<Pbe1>> service(
        durable.get(), bursthist::server::BurstServiceOptions());
    m_["server.handle_lines_s"] = clock_.Span([&] {
      for (const auto& lines : lines_) {
        bool close = false;
        const std::string replies = service.HandleLines(lines, &close);
        if (replies.size() != 3 * lines.size()) Die("HandleLines refused ADDs");
      }
    });
  }

  void Core() {
    // The bare engine, the same with budget = buffer (the DP never
    // runs), and the durable engine, fed batch by batch in alternating
    // order so that drift and cache warmth fall on all three alike.
    BurstEngine<Pbe1> engine(options_);
    BurstEngineOptions<Pbe1> lossless_options = options_;
    lossless_options.cell.budget_points = lossless_options.cell.buffer_points;
    BurstEngine<Pbe1> lossless(lossless_options);
    const std::string wal_dir = Dir("durable");
    auto durable = OrDie(
        DurableBurstEngine<Pbe1>::Open(Env::Default(), wal_dir, options_),
        "open durable engine");
    double core_s = 0.0;
    double lossless_s = 0.0;
    double durable_s = 0.0;
    for (size_t i = 0; i < batches_.size(); ++i) {
      const std::span<const WeightedRecord> batch(batches_[i]);
      auto bare = [&] {
        core_s += clock_.Span(
            [&] { OkOrDie(engine.AppendBatch(batch), "AppendBatch"); });
      };
      auto logged = [&] {
        durable_s += clock_.Span([&] {
          OkOrDie(durable->AppendBatch(batch), "durable AppendBatch");
        });
      };
      if (i % 2 == 0) {
        bare();
        logged();
      } else {
        logged();
        bare();
      }
      lossless_s += clock_.Span(
          [&] { OkOrDie(lossless.AppendBatch(batch), "lossless append"); });
    }
    // Closing without a checkpoint leaves what a kill leaves: the whole
    // history in the WAL only. Recovery() replays it.
    durable.reset();
    m_["core.append_batch_s"] = core_s;
    m_["core.append_batch_lossless_s"] = lossless_s;
    m_["pla.dp_share"] = (core_s - lossless_s) / core_s;
    m_["recovery.wal_share"] = (durable_s - core_s) / durable_s;
    m_["recovery.wal_bytes_per_record"] =
        static_cast<double>(DirBytes(wal_dir)) /
        static_cast<double>(in_.records.size());
    m_["core.resident_mb"] = static_cast<double>(engine.MemoryUsage()) / 1e6;

    // A cold snapshot after one more record at the newest time: what a
    // fresh read pays. Median of five.
    const auto& last = in_.records.back();
    Samples acquire;
    std::shared_ptr<const bursthist::ReadSnapshot<Pbe1>> snap;
    for (int i = 0; i < 5; ++i) {
      OkOrDie(engine.Append(last.id, last.time), "Append");
      acquire.Add(clock_.Span([&] { snap = engine.AcquireSnapshot(); }));
    }
    m_["core.snapshot_acquire_ms"] = acquire.Median() * 1e3;

    // The full historical mix, BTIME included, against the snapshot,
    // one thread.
    Samples kind_s[Query::kKinds];
    Samples pruned;
    for (const Query& q : in_.ledger_queries) {
      const double dt = clock_.Span([&] {
        switch (q.kind) {
          case Query::kPoint:
            snap->Point(q.e, q.t, q.tau);
            break;
          case Query::kFreq:
            snap->Frequency(q.e, q.t, q.t2);
            break;
          case Query::kBtime:
            snap->BurstyTime(q.e, q.theta, q.tau);
            break;
          case Query::kBevent:
            snap->BurstyEvent(q.t, q.theta, q.tau);
            break;
          case Query::kTopk:
          case Query::kKinds:
            snap->TopK(q.t, q.k, q.tau);
            break;
        }
      });
      kind_s[q.kind].Add(dt);
      if (q.kind == Query::kBevent) {
        pruned.Add(static_cast<double>(snap->engine().LastQueryPointQueries()));
      }
    }
    m_["core.point_us"] = kind_s[Query::kPoint].Median() * 1e6;
    m_["core.btime_us"] = kind_s[Query::kBtime].Median() * 1e6;
    m_["core.bevent_us"] = kind_s[Query::kBevent].Median() * 1e6;
    m_["core.topk_us"] = kind_s[Query::kTopk].Median() * 1e6;
    m_["core.bevent_point_queries"] = pruned.Mean();
  }

  // Reopens the WAL-only directory Core()'s durable engine left.
  void Recovery() {
    const std::string dir = dir_ + "/durable";
    std::unique_ptr<DurableBurstEngine<Pbe1>> reopened;
    m_["recovery.replay_s"] = clock_.Span([&] {
      reopened = OrDie(
          DurableBurstEngine<Pbe1>::Open(Env::Default(), dir, options_),
          "reopen durable engine");
    });
    m_["recovery.replayed_records"] =
        static_cast<double>(reopened->engine().TotalCount());
    if (reopened->engine().TotalCount() != in_.records.size()) {
      Die("replay recovered a different record count");
    }
    m_["recovery.checkpoint_s"] = clock_.Span(
        [&] { OkOrDie(reopened->Checkpoint(), "Checkpoint"); });
  }

  void Shard() {
    bursthist::shard::ClusterOptions cluster;
    cluster.shards = 4;
    auto engine = OrDie(bursthist::shard::ClusterEngine<Pbe1>::Open(
                            Env::Default(), Dir("cluster"), options_, cluster),
                        "open cluster");
    m_["shard.append_batch_s"] = clock_.Span([&] {
      for (const auto& batch : batches_) {
        OkOrDie(engine->AppendBatch(std::span<const WeightedRecord>(batch)),
                "cluster AppendBatch");
      }
    });
    uint64_t sum = 0;
    uint64_t largest = 0;
    for (const auto& s : engine->ShardStats()) {
      sum += s.total;
      largest = std::max<uint64_t>(largest, s.total);
    }
    m_["shard.max_record_share"] =
        static_cast<double>(largest) / static_cast<double>(sum);
  }

  void Pla() {
    // Per-event cumulative curves (one corner per distinct timestamp)
    // of the busiest events, cut into 1500-point buffers.
    std::vector<std::vector<bursthist::CurvePoint>> curves(in_.universe);
    for (const auto& r : in_.records) {
      auto& c = curves[r.id];
      if (!c.empty() && c.back().time == r.time) {
        ++c.back().count;
      } else {
        const bursthist::Count prev = c.empty() ? 0 : c.back().count;
        c.push_back(bursthist::CurvePoint{r.time, prev + 1});
      }
    }
    std::sort(curves.begin(), curves.end(),
              [](const auto& a, const auto& b) { return a.size() > b.size(); });
    constexpr size_t kBuffer = 1500;
    constexpr size_t kBudget = 120;
    constexpr size_t kCalls = 8;
    std::vector<std::vector<bursthist::CurvePoint>> buffers;
    for (const auto& c : curves) {
      for (size_t at = 0; at + kBuffer <= c.size() && buffers.size() < kCalls;
           at += kBuffer) {
        buffers.emplace_back(c.begin() + static_cast<ptrdiff_t>(at),
                             c.begin() + static_cast<ptrdiff_t>(at + kBuffer));
      }
    }
    if (buffers.empty()) buffers.push_back(curves.front());
    Samples dp;
    for (const auto& buffer : buffers) {
      dp.Add(clock_.Span(
          [&] { bursthist::OptimalStaircase(buffer, kBudget); }));
    }
    m_["pla.dp_ms_per_call"] = dp.Median() * 1e3;
  }

  const Inputs& in_;
  std::string dir_;
  BurstEngineOptions<Pbe1> options_;
  std::vector<std::vector<WeightedRecord>> batches_;
  std::vector<std::vector<std::string>> lines_;
  Clock clock_;
  std::map<std::string, double> m_;
};

}  // namespace

std::map<std::string, double> RunLedger(const Inputs& inputs,
                                        const E2EResult& e2e,
                                        const std::string& workdir) {
  const std::string dir = workdir + "/ledger";
  std::filesystem::create_directories(dir);
  std::map<std::string, double> m = Ledger(inputs, dir).Run(e2e);
  RemoveTree(dir);
  return m;
}

}  // namespace perfbench
