// perfbench_loadgen — the request generator of the perfbench serve workloads.
//
// Drives ddm_serve over its NDJSON protocol from outside the program and
// writes one record per request; all accounting (latency, lateness,
// percentiles, correctness) is done by perfbench/benchlib on those records.
//
//   perfbench_loadgen --port=P --requests=FILE --out=FILE --seed=S
//                     --mode=open --rate=R --seconds=T --lanes=L
//   perfbench_loadgen ... --mode=closed [--churn-rate=C] --seconds=T --lanes=L
//
// FILE holds one request body per line, the fields of a flat JSON object
// without braces (`"op":"threshold","n":8,"t":"8/3","beta":0.5`); each
// request draws a line uniformly from a seeded splitmix64 stream, and the
// generator adds a unique `"id"`.
//
//   * open   — `L` persistent connections share one fixed-interval schedule
//              at `R` req/s: request k is due at k/R and goes on connection
//              k mod L. Like any client of the protocol, a connection sends
//              a request once it is due and the previous reply has arrived,
//              so a slow server delays later requests of that connection;
//              latency is timed from the due time, which counts that wait.
//   * closed — `L` persistent connections, each sending its next request
//              as soon as the previous reply arrived. With `C` > 0 one
//              extra connection opens a fresh TCP connection before each of
//              its requests and closes it after the reply, paced at `C`
//              req/s, so the number of connections a run opens is fixed by
//              the schedule.
//
// Record lines (times in ns from the phase start):
//   lane idx due ready sent done connect status engine degraded value
// `ready` is when the connection could send (the due time or the previous
// reply, whichever is later), so sent − ready − connect is the generator's
// own lateness. `lane` is -1 for the churn connection, `connect` is the
// connect(2) time (0 on persistent connections), `status` is `ok`, the
// reply's `error` code, `hang` (no reply within 10 s) or `malformed`.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::int64_t kTimeoutNs = 10'000'000'000;  // a reply later than this is a hang

struct Options {
  std::uint16_t port = 0;
  std::string requests_path;
  std::string out_path;
  std::uint64_t seed = 1;
  bool open_loop = true;
  double seconds = 1.0;
  unsigned lanes = 1;
  double rate = 0.0;
  double churn_rate = 0.0;
};

struct Record {
  int lane = 0;
  std::uint32_t idx = 0;
  std::int64_t due = 0;
  std::int64_t ready = 0;
  std::int64_t sent = 0;
  std::int64_t done = -1;
  std::int64_t connect = 0;
  std::string status = "hang";
  std::string engine = "-";
  bool degraded = false;
  std::string value = "-";
};

struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
};

struct Phase {
  Clock::time_point start;
  [[nodiscard]] std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
  }
};

/// Text of a flat-object field: the string contents for `"key":"..."`, the
/// raw token for numbers and literals; empty when absent.
std::string field_text(std::string_view line, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return {};
  std::size_t begin = at + needle.size();
  if (begin < line.size() && line[begin] == '"') {
    const std::size_t end = line.find('"', begin + 1);
    if (end == std::string_view::npos) return {};
    return std::string(line.substr(begin + 1, end - begin - 1));
  }
  std::size_t end = begin;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return std::string(line.substr(begin, end - begin));
}

void parse_reply(std::string_view line, const std::string& id, Record& record) {
  if (line.size() < 2 || line.front() != '{' || line.back() != '}' ||
      field_text(line, "id") != id) {
    record.status = "malformed";
    return;
  }
  const std::string ok = field_text(line, "ok");
  if (ok == "true") {
    record.status = "ok";
    record.value = field_text(line, "value");
    record.engine = field_text(line, "engine");
    record.degraded = field_text(line, "degraded") == "true";
    if (record.value.empty() || record.engine.empty()) record.status = "malformed";
  } else if (ok == "false") {
    record.status = field_text(line, "error");
    if (record.status.empty()) record.status = "malformed";
  } else {
    record.status = "malformed";
  }
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void set_receive_timeout(int fd, std::int64_t timeout_ns) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ns % 1'000'000'000) / 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Blocking read of one '\n'-terminated line (terminator stripped).
bool read_line(int fd, std::string& buffer, std::string& line) {
  while (true) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      line.assign(buffer, 0, newline);
      buffer.erase(0, newline + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string request_line(const std::string& id, const std::string& body) {
  return "{\"id\":\"" + id + "\"," + body + "}\n";
}

class Generator {
 public:
  Generator(const Options& options, std::vector<std::string> bodies)
      : options_(options), bodies_(std::move(bodies)) {}

  /// One persistent connection. Open loop: request k of the lane is due at
  /// (lane + k * lanes) / rate and waits for its due time, and for the
  /// previous reply, as a client of the NDJSON protocol does. Closed loop:
  /// every request is due when the previous reply arrives.
  void lane(unsigned lane, const Phase& phase, std::vector<Record>& out) {
    SplitMix64 rng{options_.seed * 0x100000001B3ULL + lane};
    const int fd = connect_loopback(options_.port);
    if (fd < 0) throw std::runtime_error("connect failed");
    set_receive_timeout(fd, kTimeoutNs);
    const std::int64_t horizon = seconds_ns();
    const double interval = options_.open_loop ? 1e9 / options_.rate : 0.0;
    std::string inbuf;
    std::string line;
    std::int64_t previous_done = 0;
    for (std::uint64_t k = 0;; ++k) {
      Record record;
      record.lane = static_cast<int>(lane);
      record.idx = static_cast<std::uint32_t>(rng.next() % bodies_.size());
      record.due = options_.open_loop
                       ? static_cast<std::int64_t>(static_cast<double>(lane + k * options_.lanes) *
                                                   interval)
                       : std::max<std::int64_t>(previous_done, phase.now());
      if (record.due >= horizon) break;
      if (!send_and_wait(fd, phase, record, std::to_string(k), previous_done, inbuf, line)) {
        out.push_back(std::move(record));
        break;
      }
      previous_done = record.done;
      out.push_back(std::move(record));
    }
    ::close(fd);
  }

  /// The reconnecting connection: a fresh TCP connection per request,
  /// paced at the churn rate.
  void churn_lane(const Phase& phase, std::vector<Record>& out) {
    SplitMix64 rng{options_.seed * 0x100000001B3ULL + 0xC0FFEE};
    const std::int64_t horizon = seconds_ns();
    const double interval = 1e9 / options_.churn_rate;
    std::string inbuf;
    std::string line;
    std::int64_t previous_done = 0;
    for (std::uint64_t k = 0;; ++k) {
      Record record;
      record.lane = -1;
      record.idx = static_cast<std::uint32_t>(rng.next() % bodies_.size());
      record.due = static_cast<std::int64_t>(static_cast<double>(k) * interval);
      if (record.due >= horizon) break;
      wait_until(phase, std::max(record.due, previous_done));
      const std::int64_t before_connect = phase.now();
      const int fd = connect_loopback(options_.port);
      record.connect = phase.now() - before_connect;
      if (fd < 0) {
        record.status = "connect_failed";
        out.push_back(std::move(record));
        continue;
      }
      set_receive_timeout(fd, kTimeoutNs);
      inbuf.clear();
      (void)send_and_wait(fd, phase, record, "c" + std::to_string(k), previous_done, inbuf, line);
      ::close(fd);
      previous_done = std::max(previous_done, record.done);
      out.push_back(std::move(record));
    }
  }

  std::vector<Record> run() {
    const unsigned lanes = options_.lanes;
    const bool churn = options_.churn_rate > 0.0;
    std::vector<std::vector<Record>> per_lane(lanes + (churn ? 1 : 0));
    std::vector<std::string> errors(per_lane.size());
    const Phase phase{Clock::now()};
    auto body = [&](unsigned slot) {
      try {
        if (slot == lanes) {
          churn_lane(phase, per_lane[slot]);
        } else {
          lane(slot, phase, per_lane[slot]);
        }
      } catch (const std::exception& error) {
        errors[slot] = error.what();
      }
    };
    // The last lane runs on this thread, so the generator uses exactly one
    // thread per connection.
    std::vector<std::thread> threads;
    for (unsigned slot = 0; slot + 1 < per_lane.size(); ++slot) threads.emplace_back(body, slot);
    body(static_cast<unsigned>(per_lane.size() - 1));
    for (std::thread& thread : threads) thread.join();
    for (const std::string& error : errors) {
      if (!error.empty()) throw std::runtime_error(error);
    }
    std::vector<Record> all;
    for (auto& lane : per_lane) {
      std::move(lane.begin(), lane.end(), std::back_inserter(all));
    }
    return all;
  }

 private:
  static void wait_until(const Phase& phase, std::int64_t t) {
    const std::int64_t now = phase.now();
    if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
  }

  /// Waits until the request is due and the connection is free, sends it
  /// and reads its reply. `ready` is when the generator could send; `sent`
  /// minus `ready` is the generator's own lateness.
  bool send_and_wait(int fd, const Phase& phase, Record& record, const std::string& id,
                     std::int64_t previous_done, std::string& inbuf, std::string& line) {
    record.ready = std::max(record.due, previous_done);
    wait_until(phase, record.ready);
    record.sent = phase.now();
    if (!write_all(fd, request_line(id, bodies_[record.idx])) || !read_line(fd, inbuf, line)) {
      return false;  // status stays "hang"
    }
    record.done = phase.now();
    parse_reply(line, id, record);
    return true;
  }

  [[nodiscard]] std::int64_t seconds_ns() const {
    return static_cast<std::int64_t>(options_.seconds * 1e9);
  }

  const Options& options_;
  std::vector<std::string> bodies_;
};

double parse_number(const std::string& flag, const std::string& text, double lo, double hi) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !(value >= lo && value <= hi)) {
    throw std::invalid_argument("invalid " + flag + " '" + text + "'");
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--port") {
      options.port = static_cast<std::uint16_t>(parse_number(key, value, 1, 65535));
    } else if (key == "--requests") {
      options.requests_path = value;
    } else if (key == "--out") {
      options.out_path = value;
    } else if (key == "--seed") {
      options.seed = static_cast<std::uint64_t>(parse_number(key, value, 0, 1e15));
    } else if (key == "--mode") {
      if (value != "open" && value != "closed") throw std::invalid_argument("invalid --mode");
      options.open_loop = value == "open";
    } else if (key == "--seconds") {
      options.seconds = parse_number(key, value, 0.01, 600);
    } else if (key == "--lanes") {
      options.lanes = static_cast<unsigned>(parse_number(key, value, 1, 64));
    } else if (key == "--rate") {
      options.rate = parse_number(key, value, 0, 1e7);
    } else if (key == "--churn-rate") {
      options.churn_rate = parse_number(key, value, 0, 1e5);
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (options.port == 0 || options.requests_path.empty() || options.out_path.empty()) {
    throw std::invalid_argument("--port, --requests and --out are required");
  }
  if (options.open_loop && !(options.rate > 0.0)) {
    throw std::invalid_argument("--mode=open needs --rate > 0");
  }
  if (options.open_loop && options.churn_rate > 0.0) {
    throw std::invalid_argument("--churn-rate applies to --mode=closed only");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse_options(argc, argv);
    std::vector<std::string> bodies;
    std::ifstream in(options.requests_path);
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) bodies.push_back(line);
    }
    if (bodies.empty()) throw std::invalid_argument("no requests in " + options.requests_path);
    Generator generator(options, std::move(bodies));
    const std::vector<Record> records = generator.run();
    std::ofstream out(options.out_path);
    for (const Record& r : records) {
      out << r.lane << ' ' << r.idx << ' ' << r.due << ' ' << r.ready << ' ' << r.sent << ' '
          << r.done << ' '
          << r.connect << ' ' << r.status << ' ' << r.engine << ' ' << (r.degraded ? 1 : 0)
          << ' ' << r.value << '\n';
    }
    out.close();
    if (!out) throw std::runtime_error("cannot write " + options.out_path);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_loadgen: " << error.what() << "\n";
    return 1;
  }
}
