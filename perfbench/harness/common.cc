#include "common.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

extern char** environ;

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

double Samples::Quantile(double q) const {
  if (values_.empty()) Die("percentile of an empty sample");
  std::vector<double> v = values_;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double Samples::Mean() const {
  if (values_.empty()) Die("mean of an empty sample");
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::InterquartileMean() const {
  if (values_.empty()) Die("mean of an empty sample");
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 4;
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

// ---------------------------------------------------------------- server

ServerProcess::ServerProcess(const std::string& cli, const std::string& dir,
                             uint64_t universe, size_t shards) {
  int fds[2];
  if (::pipe(fds) != 0) Die("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);

  std::vector<std::string> args = {cli, "serve", dir, std::to_string(universe),
                                   "--port", "0"};
  if (shards > 1) {
    args.push_back("--shards");
    args.push_back(std::to_string(shards));
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  spawned_at_ = Now();
  const int rc = posix_spawn(&pid_, cli.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  out_fd_ = fds[0];
  if (rc != 0) Die("cannot start " + cli + ": " + std::strerror(rc));

  // Wait for "listening on <host>:<port>"; recovery of a large WAL
  // happens before it, so allow for a slow start.
  std::string seen;
  const double deadline = spawned_at_ + 150.0;
  for (;;) {
    const size_t nl = seen.find('\n');
    if (nl != std::string::npos) {
      const std::string line = seen.substr(0, nl);
      seen.erase(0, nl + 1);
      if (line.rfind("listening on ", 0) == 0) {
        port_ = static_cast<uint16_t>(
            std::strtoul(line.c_str() + line.rfind(':') + 1, nullptr, 10));
        return;
      }
      continue;
    }
    const double left = deadline - Now();
    if (left <= 0) Die("server did not start listening in time");
    pollfd pfd{out_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (r < 0 && errno == EINTR) continue;
    char chunk[512];
    const ssize_t n = r > 0 ? ::read(out_fd_, chunk, sizeof chunk) : 0;
    if (n <= 0) Die("server exited before listening (dir " + dir + ")");
    seen.append(chunk, static_cast<size_t>(n));
  }
}

ServerProcess::~ServerProcess() { Kill(); }

void ServerProcess::Kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  Die("no VmHWM for the server");
}

double ServerProcess::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  const size_t paren = all.rfind(')');
  if (paren == std::string::npos) Die("unreadable /proc stat");
  std::istringstream fields(all.substr(paren + 2));
  std::string tok;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  double utime = 0, stime = 0;
  for (int field = 3; field <= 15 && (fields >> tok); ++field) {
    if (field == 14) utime = std::strtod(tok.c_str(), nullptr);
    if (field == 15) stime = std::strtod(tok.c_str(), nullptr);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// ---------------------------------------------------------------- client

Conn::Conn(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) Die("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    Die("connect failed: " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

void Conn::Send(const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      Die("send failed: " + std::string(std::strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
}

void Conn::Fill() {
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (1u << 16)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<size_t>(n));
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    Die("server closed the connection");
  }
}

std::string Conn::ReadLine() {
  for (;;) {
    const size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      std::string line = buf_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    Fill();
  }
}

size_t Conn::ReadOks(size_t n, std::string* first_other) {
  size_t oks = 0;
  for (size_t i = 0; i < n;) {
    const size_t nl = buf_.find('\n', pos_);
    if (nl == std::string::npos) {
      Fill();
      continue;
    }
    if (nl - pos_ == 2 && buf_[pos_] == 'O' && buf_[pos_ + 1] == 'K') {
      ++oks;
    } else if (first_other != nullptr && first_other->empty()) {
      *first_other = buf_.substr(pos_, nl - pos_);
    }
    pos_ = nl + 1;
    ++i;
  }
  return oks;
}

std::string Conn::Call(const std::string& line) {
  Send(line + "\n");
  return ReadLine();
}

std::string Conn::Metrics() {
  Send("METRICS\n");
  std::string out;
  for (;;) {
    std::string line = ReadLine();
    if (line == "END") return out;
    out += line;
    out += '\n';
  }
}

// ---------------------------------------------------------------- parsing

std::vector<std::string> Split(const std::string& s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    const size_t j = s.find(' ', i);
    if (j == std::string::npos) {
      out.push_back(s.substr(i));
      break;
    }
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j + 1;
  }
  return out;
}

std::map<std::string, std::string> KeyValues(const std::string& line) {
  std::map<std::string, std::string> kv;
  for (const std::string& tok : Split(line)) {
    const size_t eq = tok.find('=');
    if (eq != std::string::npos) kv[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  return kv;
}

double PromValue(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
    }
  }
  Die("metric " + name + " missing from the exposition");
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  if (ec) Die("cannot remove " + path + ": " + ec.message());
}

}  // namespace perfbench
