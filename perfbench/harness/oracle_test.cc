// The oracle's own test: correct replies pass, and deliberately wrong
// ones (a perturbed TOPK value, an unsorted TOPK, a BEVENT id below
// theta, overlapping BTIME intervals, a POINT beyond its bound, a stale
// watermark) are caught. Run with `python3 perfbench/run.py --selftest`.

#include <cstdio>
#include <map>
#include <string>

#include "oracle.h"

namespace {

int failures = 0;
int checks = 0;

void Expect(bool ok, const char* what) {
  ++checks;
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what);
  }
}

// Checks `reply` to `q` with POINT answers served from `points`.
perfbench::Tally Check(const perfbench::Query& q, const std::string& reply,
                       const perfbench::Oracle& oracle,
                       const std::map<std::string, std::string>& points) {
  perfbench::Tally tally;
  perfbench::CheckReply(
      q, reply, oracle, oracle.last_time(),
      [&](const std::string& line) {
        const auto it = points.find(line);
        return it == points.end() ? std::string("ERR NOT_FOUND") : it->second;
      },
      &tally);
  return tally;
}

}  // namespace

int main() {
  using perfbench::Query;
  // Event 0: 10 records at t=0..9 then 30 at t=20..29; event 1: 5 at
  // t=25..29.
  perfbench::Oracle oracle(4);
  for (int t = 0; t < 10; ++t) oracle.Add(0, t);
  for (int t = 20; t < 30; ++t) {
    for (int r = 0; r < 3; ++r) oracle.Add(0, t);
    if (t >= 25) oracle.Add(1, t);
  }
  Expect(oracle.Cumulative(0, 9) == 10 && oracle.Cumulative(0, 29) == 40,
         "prefix counts");
  // b_0(29, 10) = F(29) - 2F(19) + F(9) = 40 - 20 + 10 = 30.
  Expect(oracle.Burstiness(0, 29, 10) == 30, "exact burstiness");
  Expect(oracle.Frequency(0, 20, 29) == 30 && oracle.Frequency(0, 5, 4) == 0,
         "exact frequency");
  const std::string stamp = " watermark=29 bound=2";

  const Query point{Query::kPoint, 0, 29, 0, 10, 0.0, 0};
  Expect(Check(point, "VALUE 29" + stamp, oracle, {}).outside_bound == 0,
         "POINT within bound passes");
  perfbench::Tally off = Check(point, "VALUE 26" + stamp, oracle, {});
  Expect(off.outside_bound == 1 && !off.Ok(0.135),
         "POINT beyond its bound is caught");
  Expect(!Check(point, "VALUE 30 watermark=28 bound=2", oracle, {})
              .violations.empty(),
         "stale watermark is caught");

  const std::map<std::string, std::string> points = {
      {"POINT 0 29 10", "VALUE 30" + stamp},
      {"POINT 1 29 10", "VALUE 5" + stamp},
  };
  const Query topk{Query::kTopk, 0, 29, 0, 10, 0.0, 10};
  Expect(Check(topk, "TOPK 2 0:30 1:5" + stamp, oracle, points)
             .violations.empty(),
         "correct TOPK passes");
  Expect(!Check(topk, "TOPK 2 0:30 1:5.5" + stamp, oracle, points)
              .violations.empty(),
         "perturbed TOPK value is caught");
  Expect(!Check(topk, "TOPK 2 1:5 0:30" + stamp, oracle, points)
              .violations.empty(),
         "unsorted TOPK is caught");

  const Query bevent{Query::kBevent, 0, 29, 0, 10, 6.0, 0};
  Expect(Check(bevent, "EVENTS 1 0" + stamp, oracle, points)
             .violations.empty(),
         "correct BEVENT passes");
  Expect(!Check(bevent, "EVENTS 2 0 1" + stamp, oracle, points)
              .violations.empty(),
         "BEVENT id below theta is caught");

  const Query btime{Query::kBtime, 0, 0, 0, 10, 20.0, 0};
  Expect(Check(btime, "INTERVALS 2 3 5 20 29" + stamp, oracle, {})
             .violations.empty(),
         "disjoint BTIME passes");
  Expect(!Check(btime, "INTERVALS 2 3 21 20 29" + stamp, oracle, {})
              .violations.empty(),
         "overlapping BTIME is caught");
  Expect(!Check(btime, "INTERVALS 1 20 31" + stamp, oracle, {})
              .violations.empty(),
         "BTIME past the watermark is caught");
  Expect(!Check(point, "INTERVALS 0" + stamp, oracle, {}).violations.empty(),
         "reply of the wrong kind is caught");

  std::printf("oracle self-test: %d of %d checks passed\n", checks - failures,
              checks);
  return failures == 0 ? 0 : 1;
}
