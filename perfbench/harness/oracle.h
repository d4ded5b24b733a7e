// The benchmark's independent correctness oracle.
//
// Exact cumulative counts F_e(t) come from per-event sorted timestamp
// lists of the records the server acknowledged (prefix counts by
// binary search); no code from the program's sketch layers is used.
// From them: b_e(t) = F_e(t) - 2 F_e(t-tau) + F_e(t-2tau) and the
// closed-range frequency F_e(t2) - F_e(t1-1).
//
// CheckReply() holds each query reply to what the program promises:
//   POINT / FREQ  within the reply's bound= of the exact value (a miss
//                 is tallied; Lemma 5 allows a delta share of them);
//   BTIME         intervals sorted, disjoint, inside [0, watermark];
//   BEVENT        ids ascending, each with POINT >= theta;
//   TOPK          at most k ids, values non-increasing, each equal to
//                 POINT for that id;
//   every reply   watermark= equal to the newest acknowledged time.
// BEVENT and TOPK are cross-checked with POINT requests sent through
// the caller's `point` callback, against the same snapshot.

#ifndef PERFBENCH_HARNESS_ORACLE_H_
#define PERFBENCH_HARNESS_ORACLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct Query {
  enum Kind : uint8_t { kPoint, kFreq, kBtime, kBevent, kTopk, kKinds };
  Kind kind = kPoint;
  uint32_t e = 0;
  int64_t t = 0;
  int64_t t2 = 0;  ///< FREQ upper end.
  int64_t tau = 0;
  double theta = 1.0;
  size_t k = 10;

  /// The wire request line (no newline).
  std::string Line() const;
};

class Oracle {
 public:
  explicit Oracle(uint32_t universe) : times_(universe) {}

  /// Records must arrive in non-decreasing time order.
  void Add(uint32_t e, int64_t t);
  uint64_t total() const { return total_; }
  int64_t last_time() const { return last_time_; }

  /// Records of e with time <= t.
  double Cumulative(uint32_t e, int64_t t) const;
  double Burstiness(uint32_t e, int64_t t, int64_t tau) const;
  /// Records of e in [t1, t2]; 0 when t1 > t2.
  double Frequency(uint32_t e, int64_t t1, int64_t t2) const;

 private:
  std::vector<std::vector<int64_t>> times_;
  uint64_t total_ = 0;
  int64_t last_time_ = 0;
};

/// Outcome of checking replies.
struct Tally {
  uint64_t bounded = 0;         ///< POINT/FREQ answers held to bound=
  uint64_t outside_bound = 0;   ///< ... of which missed it
  uint64_t point_answers = 0;   ///< POINT answers compared with the oracle
  double point_abs_error = 0.0; ///< sum of |POINT - exact|
  std::vector<std::string> violations;

  void Violation(const std::string& what);
  /// No property violated and the bound missed on at most a `delta`
  /// share of bounded answers.
  bool Ok(double delta) const;
};

using PointFn = std::function<std::string(const std::string& line)>;

/// Checks one reply (see the header comment). `expected_watermark` is
/// the newest acknowledged ADD time.
void CheckReply(const Query& q, const std::string& reply, const Oracle& oracle,
                int64_t expected_watermark, const PointFn& point,
                Tally* tally);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_ORACLE_H_
