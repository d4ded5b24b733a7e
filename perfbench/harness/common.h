// Plumbing shared by the served-system benchmark: a monotonic clock,
// latency samples, the `bursthist_cli serve` child process, a blocking
// line client for the wire protocol, and small reply parsers.
//
// Nothing here calls into the program except through its process
// boundary (spawn, signals, sockets, /proc), so the numbers these
// pieces produce are what a client of the served system sees.

#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock.
double Now();

/// Prints "perfbench: <msg>" to stderr and exits with status 3, so a
/// broken run never prints a result line.
[[noreturn]] void Die(const std::string& msg);

/// A bag of measurements with nearest-rank percentiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, q in (0, 1]. Dies when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;
  /// Mean of the middle half: the lowest and highest n/4 values (rounded
  /// down) are dropped. Robust to outliers like the median, but it moves
  /// smoothly when the values fall into two clusters, where the median
  /// jumps from one to the other. Dies when empty.
  double InterquartileMean() const;

 private:
  std::vector<double> values_;
};

/// One `bursthist_cli serve <dir> <K> --port 0 [--shards N]` child.
/// The constructor returns once the server printed its "listening on"
/// line; the destructor SIGKILLs and reaps it if it still runs.
class ServerProcess {
 public:
  ServerProcess(const std::string& cli, const std::string& dir,
                uint64_t universe, size_t shards);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// Now() just before the spawn.
  double spawned_at() const { return spawned_at_; }

  /// SIGKILL, then wait for the child to end.
  void Kill();
  /// Peak resident set (VmHWM) in MB.
  double PeakRssMb() const;
  /// User + system CPU seconds the server has used so far.
  double CpuSeconds() const;

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
  double spawned_at_ = 0.0;
};

/// Blocking TCP line client (TCP_NODELAY). Every failure is fatal.
class Conn {
 public:
  explicit Conn(uint16_t port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void Send(const std::string& bytes);
  /// Next reply line, without its "\n".
  std::string ReadLine();
  /// Reads `n` reply lines and returns how many were exactly "OK";
  /// the first other line, if any, lands in *first_other.
  size_t ReadOks(size_t n, std::string* first_other);
  /// One request line, one reply line.
  std::string Call(const std::string& line);
  /// The METRICS verb: the Prometheus exposition up to "END".
  std::string Metrics();

 private:
  void Fill();

  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

/// Splits on single spaces.
std::vector<std::string> Split(const std::string& s);

/// The `key=value` tokens of a reply line.
std::map<std::string, std::string> KeyValues(const std::string& line);

/// The value of an unlabelled sample `name value` in a Prometheus
/// exposition; dies when absent.
double PromValue(const std::string& text, const std::string& name);

/// Bytes of every regular file under `dir`, recursively.
uint64_t DirBytes(const std::string& dir);

/// rm -rf, limited to paths the benchmark made.
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
