#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>

#include "common.h"

namespace perfbench {

namespace {

std::string FormatTheta(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Parses the trailing "watermark=<w> bound=<b>" stamp.
bool Stamp(const std::vector<std::string>& tok, int64_t* watermark,
           double* bound) {
  bool have_w = false;
  bool have_b = false;
  for (const std::string& t : tok) {
    if (t.rfind("watermark=", 0) == 0) {
      *watermark = std::strtoll(t.c_str() + 10, nullptr, 10);
      have_w = true;
    } else if (t.rfind("bound=", 0) == 0) {
      *bound = std::strtod(t.c_str() + 6, nullptr);
      have_b = true;
    }
  }
  return have_w && have_b;
}

bool Within(double value, double exact, double bound) {
  return std::fabs(value - exact) <= bound * (1.0 + 1e-12) + 1e-9;
}

// The VALUE of a POINT reply, or NaN when the reply is not one.
double PointValue(const std::string& reply, int64_t* watermark) {
  const std::vector<std::string> tok = Split(reply);
  double bound = 0.0;
  if (tok.size() < 2 || tok[0] != "VALUE" || !Stamp(tok, watermark, &bound)) {
    return std::nan("");
  }
  return std::strtod(tok[1].c_str(), nullptr);
}

}  // namespace

std::string Query::Line() const {
  switch (kind) {
    case kPoint:
      return "POINT " + std::to_string(e) + " " + std::to_string(t) + " " +
             std::to_string(tau);
    case kFreq:
      return "FREQ " + std::to_string(e) + " " + std::to_string(t) + " " +
             std::to_string(t2);
    case kBtime:
      return "BTIME " + std::to_string(e) + " " + FormatTheta(theta) + " " +
             std::to_string(tau);
    case kBevent:
      return "BEVENT " + std::to_string(t) + " " + FormatTheta(theta) + " " +
             std::to_string(tau);
    case kTopk:
    case kKinds:
      break;
  }
  return "TOPK " + std::to_string(t) + " " + std::to_string(k) + " " +
         std::to_string(tau);
}

void Oracle::Add(uint32_t e, int64_t t) {
  if (e >= times_.size()) Die("oracle: event id beyond the universe");
  if (total_ > 0 && t < last_time_) Die("oracle: records out of time order");
  times_[e].push_back(t);
  ++total_;
  last_time_ = t;
}

double Oracle::Cumulative(uint32_t e, int64_t t) const {
  const std::vector<int64_t>& v = times_[e];
  return static_cast<double>(std::upper_bound(v.begin(), v.end(), t) -
                             v.begin());
}

double Oracle::Burstiness(uint32_t e, int64_t t, int64_t tau) const {
  return Cumulative(e, t) - 2.0 * Cumulative(e, t - tau) +
         Cumulative(e, t - 2 * tau);
}

double Oracle::Frequency(uint32_t e, int64_t t1, int64_t t2) const {
  if (t1 > t2) return 0.0;
  return Cumulative(e, t2) - Cumulative(e, t1 - 1);
}

void Tally::Violation(const std::string& what) {
  // Keep the first few; the count is what fails the run.
  if (violations.size() < 20) violations.push_back(what);
  else if (violations.size() == 20) violations.push_back("...");
}

bool Tally::Ok(double delta) const {
  if (!violations.empty()) return false;
  return static_cast<double>(outside_bound) <=
         delta * static_cast<double>(bounded);
}

void CheckReply(const Query& q, const std::string& reply, const Oracle& oracle,
                int64_t expected_watermark, const PointFn& point,
                Tally* tally) {
  const std::string where = q.Line() + " -> " + reply.substr(0, 160);
  const std::vector<std::string> tok = Split(reply);
  int64_t watermark = -1;
  double bound = 0.0;
  if (tok.size() < 2 || !Stamp(tok, &watermark, &bound)) {
    tally->Violation("unparsable reply: " + where);
    return;
  }
  if (watermark != expected_watermark) {
    tally->Violation("watermark " + std::to_string(watermark) + " != " +
                     std::to_string(expected_watermark) + ": " + where);
  }
  const size_t n = std::strtoull(tok[1].c_str(), nullptr, 10);
  switch (q.kind) {
    case Query::kPoint:
    case Query::kFreq: {
      if (tok[0] != "VALUE") break;
      const double v = std::strtod(tok[1].c_str(), nullptr);
      const double exact = q.kind == Query::kPoint
                               ? oracle.Burstiness(q.e, q.t, q.tau)
                               : oracle.Frequency(q.e, q.t, q.t2);
      ++tally->bounded;
      if (!Within(v, exact, bound)) ++tally->outside_bound;
      if (q.kind == Query::kPoint) {
        ++tally->point_answers;
        tally->point_abs_error += std::fabs(v - exact);
      }
      return;
    }
    case Query::kBtime: {
      if (tok[0] != "INTERVALS" || tok.size() < 2 + 2 * n + 2) break;
      int64_t prev_end = -1;
      for (size_t i = 0; i < n; ++i) {
        const int64_t s = std::strtoll(tok[2 + 2 * i].c_str(), nullptr, 10);
        const int64_t e = std::strtoll(tok[3 + 2 * i].c_str(), nullptr, 10);
        if (s > e || (i > 0 && s <= prev_end)) {
          tally->Violation("BTIME intervals not sorted and disjoint at [" +
                           std::to_string(s) + ", " + std::to_string(e) +
                           "]: " + where);
          return;
        }
        if (s < 0 || e > watermark) {
          tally->Violation("BTIME interval [" + std::to_string(s) + ", " +
                           std::to_string(e) + "] outside [0, watermark]: " +
                           where);
          return;
        }
        prev_end = e;
      }
      return;
    }
    case Query::kBevent: {
      if (tok[0] != "EVENTS" || tok.size() < 2 + n + 2) break;
      int64_t prev = -1;
      for (size_t i = 0; i < n; ++i) {
        const int64_t id = std::strtoll(tok[2 + i].c_str(), nullptr, 10);
        if (id <= prev) {
          tally->Violation("BEVENT ids not ascending: " + where);
          return;
        }
        prev = id;
        int64_t w = -1;
        const Query pq{Query::kPoint, static_cast<uint32_t>(id), q.t, 0,
                       q.tau, 0.0, 0};
        const double v = PointValue(point(pq.Line()), &w);
        if (!(v >= q.theta) || w != watermark) {
          tally->Violation("BEVENT id " + std::to_string(id) +
                           " has POINT below theta: " + where);
          return;
        }
      }
      return;
    }
    case Query::kTopk: {
      if (tok[0] != "TOPK" || tok.size() < 2 + n + 2 || n > q.k) break;
      double prev_value = INFINITY;
      std::map<int64_t, bool> seen;
      for (size_t i = 0; i < n; ++i) {
        const std::string& item = tok[2 + i];
        const size_t colon = item.find(':');
        if (colon == std::string::npos) {
          tally->Violation("malformed TOPK item: " + where);
          return;
        }
        const int64_t id = std::strtoll(item.c_str(), nullptr, 10);
        const double value = std::strtod(item.c_str() + colon + 1, nullptr);
        if (value > prev_value || seen[id]) {
          tally->Violation("TOPK not sorted by value: " + where);
          return;
        }
        seen[id] = true;
        prev_value = value;
        int64_t w = -1;
        const Query pq{Query::kPoint, static_cast<uint32_t>(id), q.t, 0,
                       q.tau, 0.0, 0};
        const double v = PointValue(point(pq.Line()), &w);
        if (v != value || w != watermark) {
          tally->Violation("TOPK value of id " + std::to_string(id) +
                           " differs from its POINT: " + where);
          return;
        }
      }
      return;
    }
    case Query::kKinds:
      break;
  }
  tally->Violation("malformed reply: " + where);
}

}  // namespace perfbench
