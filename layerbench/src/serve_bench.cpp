// serve-mixed: a csr_serve daemon on loopback, driven by one client process
// in a closed loop over kConnections keep-alive connections. About 80 % of
// requests repeat a primed hot body (response-memo hits served on the event
// thread); the rest are fresh VM queries that miss every cache, go through
// the coalescer's batch path and append to the journal.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "driver/cell_exec.hpp"
#include "driver/config.hpp"
#include "driver/export.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"
#include "support/journal.hpp"

namespace layerbench {

namespace {

// The client runs pinned to one CPU, spinning, and the daemon on all the
// others. On a virtual machine an idle CPU halts, and waking it goes through
// the hypervisor, whose latency varies with the host's load from minute to
// minute; the spinning client never sleeps. Each vCPU's speed also moves by
// up to a third within seconds, not in step with the others, so the daemon
// gets every CPU the client does not use rather than a single one.
constexpr int kConnections = 2;
constexpr double kRequestTimeoutS = 30;
// The load runs for --seconds and at least until kMinRequests have been
// sent, so p99 always has ten samples beyond it; kMaxLoadFactor x --seconds
// bounds a run on a host too slow to get there.
constexpr std::uint64_t kMinRequests = 1100;
constexpr double kMaxLoadFactor = 4;
// Set-up is timed over kSetupTrials fresh daemons after one discarded start
// that pages the binary in; the last daemon serves the load.
constexpr int kSetupTrials = 7;
// Rates and the median latency are medians over kWindows equal slices of
// the load, so one burst of interference on the host moves one slice only.
constexpr int kWindows = 5;
// The traced run replays this many stream requests in-process: once to
// warm up, then kReplayRounds times each with spans off and on, alternating.
constexpr std::size_t kReplayRequests = 300;
constexpr int kReplayRounds = 3;

/// Pins the calling process, and the threads it starts later, to `cpu`.
void pin_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

/// Pins the calling process to every online CPU but `cpu`.
void pin_all_but(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (long c = 0; c < sysconf(_SC_NPROCESSORS_ONLN); ++c) {
    if (c != cpu) CPU_SET(static_cast<int>(c), &set);
  }
  (void)sched_setaffinity(0, sizeof set, &set);
}

/// True when the host has a CPU each for the daemon and the client.
bool can_pin() { return sysconf(_SC_NPROCESSORS_ONLN) >= 2; }

std::string render_request(const std::string& method, const std::string& target,
                           const std::string& body) {
  return method + " " + target +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

struct Response {
  int status = 0;
  std::string body;
};

/// One keep-alive client connection.
class Conn {
 public:
  explicit Conn(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 || connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close_fd();
      return;
    }
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Conn() { close_fd(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  bool send_all(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads what is available (blocking when `block`); false on EOF/error.
  bool fill(bool block) {
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, block ? 0 : MSG_DONTWAIT);
    if (n > 0) {
      in_.append(buf, static_cast<std::size_t>(n));
      return true;
    }
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR);
  }

  /// Extracts one complete response from the buffer, if there is one.
  bool take(Response* out) {
    const std::size_t head_end = in_.find("\r\n\r\n");
    if (head_end == std::string::npos) return false;
    std::size_t length = 0;
    std::size_t pos = in_.find("\r\n") + 2;
    while (pos < head_end) {
      const std::size_t eol = in_.find("\r\n", pos);
      std::string line = in_.substr(pos, eol - pos);
      for (char& c : line) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      if (line.rfind("content-length:", 0) == 0) length = std::stoul(line.substr(15));
      pos = eol + 2;
    }
    if (in_.size() < head_end + 4 + length) return false;
    out->status = std::atoi(in_.c_str() + 9);  // "HTTP/1.1 200 ..."
    out->body = in_.substr(head_end + 4, length);
    in_.erase(0, head_end + 4 + length);
    return true;
  }

  std::optional<Response> roundtrip(const std::string& request) {
    if (!send_all(request)) return std::nullopt;
    Response r;
    while (!take(&r)) {
      if (!fill(true)) return std::nullopt;
    }
    return r;
  }

 private:
  void close_fd() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int fd_ = -1;
  std::string in_;
};

/// A csr_serve daemon with a fresh journal and compile cache in `dir`.
class Daemon {
 public:
  Daemon(const RunArgs& args, const std::string& dir) {
    std::filesystem::create_directories(dir + "/native-cache");
    const std::string port_file = dir + "/port";
    const std::string journal = dir + "/serve.journal";
    pid_ = fork();
    if (pid_ == 0) {
      setenv("CSR_NATIVE_CACHE_DIR", (dir + "/native-cache").c_str(), 1);
      setenv("TMPDIR", dir.c_str(), 1);
      if (can_pin()) pin_all_but(1);
      if (std::freopen((dir + "/daemon.log").c_str(), "w", stderr) == nullptr ||
          std::freopen("/dev/null", "w", stdout) == nullptr) {
        _exit(126);
      }
      execl(args.serve_path.c_str(), args.serve_path.c_str(), "--host", "127.0.0.1",
            "--port", "0", "--port-file", port_file.c_str(), "--journal", journal.c_str(),
            "--event-threads", "1", "--compute-threads", "1", "--sweep-threads", "1",
            "--batch-width", "8", static_cast<char*>(nullptr));
      _exit(127);
    }
    const auto start = Clock::now();
    while (pid_ > 0 && seconds_between(start, Clock::now()) < 30) {
      std::ifstream in(port_file);
      int port = 0;
      if (in >> port && port > 0) {
        port_ = port;
        return;
      }
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int port() const { return port_; }

  /// Peak resident set from /proc, in MB (0 when unreadable).
  [[nodiscard]] double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmHWM:") {
        double kb = 0;
        in >> kb;
        return kb / 1024.0;
      }
    }
    return 0;
  }

  /// SIGTERM (graceful drain), then SIGKILL if it has not exited in 10 s.
  void stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const auto start = Clock::now();
    while (waitpid(pid_, nullptr, WNOHANG) == 0) {
      if (seconds_between(start, Clock::now()) > 10) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// Starts a daemon and primes the hot set over one connection. Returns the
/// daemon (null on failure) and the set-up time in *setup_s.
std::unique_ptr<Daemon> start_primed(const RunArgs& args, const std::string& dir,
                                     std::vector<Response>* primed, double* setup_s) {
  const auto start = Clock::now();
  auto daemon = std::make_unique<Daemon>(args, dir);
  if (daemon->port() == 0) return nullptr;
  Conn conn(daemon->port());
  if (!conn.ok()) return nullptr;
  primed->clear();
  for (const std::string& body : hot_bodies()) {
    const auto r = conn.roundtrip(render_request("POST", "/v1/sweep", body));
    if (!r) return nullptr;
    primed->push_back(*r);
  }
  *setup_s = seconds_between(start, Clock::now());
  return daemon;
}

/// The offline reference body for a /v1/sweep request (csr_serve --oneshot).
/// Adds the seconds to_json took to *export_s when it is given.
std::string offline_body(const std::string& body, std::int64_t* code_size,
                         std::vector<double>* export_s = nullptr) {
  csr::serve::QueryResult rejection;
  const auto query = csr::serve::parse_query(body, &rejection);
  if (!query) return "rejected: " + rejection.error;
  csr::driver::SweepConfig config;
  config.grid() = query->config.grid();
  config.options().verify = query->config.options().verify;
  const csr::driver::SweepRun run = csr::driver::run_sweep(config);
  if (code_size != nullptr) {
    for (const auto& r : run.results) {
      if (r.feasible) *code_size += r.measured_size;
    }
  }
  const auto start = Clock::now();
  std::string json = csr::driver::to_json(run.results);
  if (export_s != nullptr) export_s->push_back(seconds_between(start, Clock::now()));
  return json;
}

struct LoadResult {
  std::vector<double> latencies;  ///< completed requests, seconds
  std::vector<double> done_at;    ///< completion time since load start
  std::vector<std::uint64_t> done_cells;  ///< cells in each 200 body
  std::uint64_t sent = 0;
  std::uint64_t non_200 = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t wrong = 0;  ///< 200 bodies carrying a wrong cell
  std::vector<std::string> wrong_cells;
  std::size_t misses = 0;
  double elapsed = 0;
  std::map<std::size_t, std::string> sampled;  ///< stream index -> body
};

/// The result rows of a JSON export body (one per line), and in *wrong the
/// rows that are wrong: a feasible cell that did not verify, or an
/// infeasible one whose error the model does not predict.
std::uint64_t scan_cells(const std::string& body, std::vector<std::string>* wrong) {
  std::uint64_t rows = 0;
  std::size_t pos = 0;
  while ((pos = body.find("{\"benchmark\"", pos)) != std::string::npos) {
    const std::size_t eol = std::min(body.find('\n', pos), body.size());
    const std::string row = body.substr(pos, eol - pos);
    pos = eol;
    ++rows;
    if (row.find("\"feasible\": true") != std::string::npos) {
      if (row.find("\"verified\": true") == std::string::npos) {
        wrong->push_back("feasible but not verified: " + row);
      }
      continue;
    }
    const std::string key = "\"error\": \"";
    const std::size_t from = row.find(key) + key.size();
    const std::string error = row.substr(from, row.find("\", \"skipped\"", from) - from);
    if (!infeasible_by_theory(error)) wrong->push_back("cell error: " + row);
  }
  return rows;
}

/// The closed loop: each connection sends its next request from the shared
/// seeded stream as soon as its previous response arrives, until the load
/// window closes; in-flight requests then complete (or time out).
LoadResult drive(int port, const std::vector<Request>& stream,
                 const std::set<std::size_t>& sample, double seconds) {
  LoadResult out;
  struct Slot {
    std::unique_ptr<Conn> conn;
    std::size_t index = 0;
    Clock::time_point sent;
    bool busy = false;
  };
  std::vector<Slot> slots(kConnections);
  std::size_t next = 0;
  const auto start = Clock::now();
  const auto issue = [&](Slot& s) {
    const double t = seconds_between(start, Clock::now());
    if (next >= stream.size() || t >= kMaxLoadFactor * seconds ||
        (t >= seconds && out.sent >= kMinRequests)) {
      return;
    }
    if (!s.conn || !s.conn->ok()) s.conn = std::make_unique<Conn>(port);
    s.index = next++;
    s.sent = Clock::now();
    s.busy = true;
    ++out.sent;
    if (!stream[s.index].hot) ++out.misses;
    if (!s.conn->send_all(render_request("POST", "/v1/sweep", stream[s.index].body))) {
      ++out.non_200;
      s.busy = false;
      s.conn.reset();
    }
  };
  for (Slot& s : slots) issue(s);
  for (;;) {
    std::vector<pollfd> fds;
    std::vector<Slot*> owners;
    for (Slot& s : slots) {
      if (!s.busy) continue;
      fds.push_back({s.conn->fd(), POLLIN, 0});
      owners.push_back(&s);
    }
    if (fds.empty()) break;
    poll(fds.data(), fds.size(), 0);
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Slot& s = *owners[i];
      Response r;
      bool done = false;
      if (fds[i].revents != 0) {
        if (!s.conn->fill(false)) {
          ++out.non_200;
          s.conn.reset();
          s.busy = false;
        } else if (s.conn->take(&r)) {
          done = true;
        }
      } else if (seconds_between(s.sent, Clock::now()) > kRequestTimeoutS) {
        ++out.timeouts;
        s.conn.reset();
        s.busy = false;
      }
      if (done) {
        const auto now = Clock::now();
        s.busy = false;
        out.latencies.push_back(seconds_between(s.sent, now));
        out.done_at.push_back(seconds_between(start, now));
        std::vector<std::string> wrong;
        out.done_cells.push_back(r.status == 200 ? scan_cells(r.body, &wrong) : 0);
        if (r.status != 200) ++out.non_200;
        if (!wrong.empty()) {
          ++out.wrong;
          out.wrong_cells.insert(out.wrong_cells.end(), wrong.begin(), wrong.end());
        }
        if (sample.count(s.index) != 0) out.sampled[s.index] = r.body;
      }
      if (!s.busy) issue(s);
    }
  }
  out.elapsed = seconds_between(start, Clock::now());
  return out;
}

struct Windows {
  std::vector<double> req_per_s;
  std::vector<double> cells_per_s;
  std::vector<double> p50_s;
};

/// Per-slice rates and median latencies over kWindows equal slices of the
/// load, by completion time.
Windows windows(const LoadResult& load) {
  const double width = load.elapsed / kWindows;
  std::vector<std::vector<double>> latencies(kWindows);
  std::vector<double> cells(kWindows, 0);
  for (std::size_t i = 0; i < load.done_at.size(); ++i) {
    const int w = std::min(kWindows - 1, static_cast<int>(load.done_at[i] / width));
    latencies[w].push_back(load.latencies[i]);
    cells[w] += static_cast<double>(load.done_cells[i]);
  }
  Windows out;
  for (int w = 0; w < kWindows; ++w) {
    out.req_per_s.push_back(static_cast<double>(latencies[w].size()) / width);
    out.cells_per_s.push_back(cells[w] / width);
    out.p50_s.push_back(median(latencies[w]));
  }
  return out;
}

/// Sum of the counter or gauge `name` in Prometheus text.
double scrape(const std::string& text, const std::string& name) {
  double total = 0;
  std::size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    const bool line_start = pos == 0 || text[pos - 1] == '\n';
    const std::size_t after = pos + name.size();
    if (line_start && after < text.size() && (text[after] == ' ' || text[after] == '{')) {
      total += std::atof(text.c_str() + text.find(' ', after));
    }
    pos = after;
  }
  return total;
}

/// Replays the first kReplayRequests stream requests in-process through
/// the calls the daemon makes for them: RequestParser and try_fast for every
/// request (the event thread's path), SweepService::execute for misses (the
/// compute pool's path: coalescer, batch or single-cell verification,
/// journal append). A fresh service, cache and journal under `dir`. parse_query runs once more
/// on its own, so the table shows the query parser apart from the memo
/// lookup. Returns the wall seconds the replay took.
double replay(const std::string& dir, const std::vector<Request>& stream, Report& report) {
  using csr::observe::Span;
  std::filesystem::create_directories(dir);
  csr::serve::ServiceOptions options;
  options.journal_path = dir + "/serve.journal";
  options.sweep_threads = 1;
  options.sweep_batch_width = 8;
  csr::serve::SweepService service(options);
  for (const std::string& body : hot_bodies()) (void)service.handle(body);

  const std::size_t count = std::min(kReplayRequests, stream.size());
  const auto start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const Request& req = stream[i];
    const std::string raw = render_request("POST", "/v1/sweep", req.body);
    csr::serve::HttpRequest http;
    {
      const Span span("layerbench", "serve.http_parse");
      csr::serve::RequestParser parser;
      parser.feed(raw);
      if (parser.next_request(&http) != csr::serve::ParseStatus::kRequest) {
        report.mismatch("request parser rejected a stream request");
      }
    }
    {
      const Span span("layerbench", "serve.parse_query");
      csr::serve::QueryResult rejection;
      (void)csr::serve::parse_query(http.body, &rejection);
    }
    csr::serve::Query query;
    csr::serve::QueryResult result;
    bool fast = false;
    {
      const Span span("layerbench", req.hot ? "serve.memo_hit" : "serve.try_fast_miss");
      fast = service.try_fast(http.body, &query, &result);
    }
    if (fast != req.hot) report.mismatch("replayed request took the wrong path");
    if (fast) continue;
    result = service.execute(query);
    std::vector<std::string> wrong;
    (void)scan_cells(result.body, &wrong);
    if (result.status != 200 || !wrong.empty()) {
      report.mismatch("replayed miss " + std::to_string(i) + " failed");
    }
  }
  return seconds_between(start, Clock::now());
}

}  // namespace

Report run_serve_workload(const RunArgs& args) {
  Report report;
  std::vector<double> setups;
  std::vector<Response> primed;
  std::unique_ptr<Daemon> daemon;
  for (int t = -1; t < kSetupTrials; ++t) {
    double setup_s = 0;
    daemon = start_primed(args, args.run_dir + "/daemon-" + std::to_string(t), &primed,
                          &setup_s);
    if (!daemon) {
      report.mismatch("csr_serve failed to start or prime");
      return report;
    }
    if (t >= 0) setups.push_back(setup_s);
    if (t + 1 < kSetupTrials) daemon->stop();
  }

  // The stream holds every fresh miss; a load that uses them all is
  // reported below. The sample pins a few early hot and miss requests for
  // the byte-identity check.
  const std::vector<Request> stream = request_stream(args.seed, 5 * miss_capacity());
  std::set<std::size_t> sample;
  std::size_t hot_picked = 0;
  std::size_t miss_picked = 0;
  for (std::size_t i = args.seed % 50; i < stream.size() && (hot_picked < 2 || miss_picked < 6);
       ++i) {
    std::size_t& picked = stream[i].hot ? hot_picked : miss_picked;
    if (picked < (stream[i].hot ? 2u : 6u)) {
      sample.insert(i);
      ++picked;
    }
  }

  if (can_pin()) pin_cpu(1);
  const LoadResult load = drive(daemon->port(), stream, sample, args.seconds);
  std::string metrics_text;
  {
    Conn conn(daemon->port());
    const auto r = conn.roundtrip(render_request("GET", "/metrics", ""));
    if (r) metrics_text = r->body;
  }
  const double rss_mb = daemon->peak_rss_mb();
  daemon->stop();

  // Correctness: primed hot bodies and sampled stream bodies are
  // byte-identical to the offline export of the same query.
  std::int64_t code_size = 0;
  std::vector<double> export_s;
  const std::vector<std::string> hot = hot_bodies();
  for (std::size_t i = 0; i < hot.size(); ++i) {
    if (primed[i].status != 200 || primed[i].body != offline_body(hot[i], &code_size)) {
      report.mismatch("primed hot body " + std::to_string(i) + " differs from offline");
    }
  }
  for (const auto& [index, body] : load.sampled) {
    if (body != offline_body(stream[index].body, nullptr,
                             stream[index].hot ? nullptr : &export_s)) {
      report.mismatch("served body of request " + std::to_string(index) +
                      " differs from offline");
    }
  }
  if (load.sampled.size() != sample.size()) report.mismatch("sampled requests incomplete");
  if (code_size != pinned_code_size(args.workload)) {
    report.mismatch("code_size_instrs " + std::to_string(code_size) + " != pinned " +
                    std::to_string(pinned_code_size(args.workload)));
  }
  if (load.misses >= miss_capacity()) report.mismatch("miss stream exhausted");
  const std::size_t completed = load.latencies.size();
  if (completed == 0) {
    report.mismatch("no request completed");
    return report;
  }
  for (const std::string& w : load.wrong_cells) report.mismatch("served " + w);
  report.attempted = load.sent;
  report.failed = load.non_200 + load.timeouts + load.wrong;

  const auto [tail_p, tail] = tail_mean(load.latencies);
  std::cout << "set-up samples (s):";
  for (const double s : setups) std::cout << " " << s;
  std::cout << "\n" << completed << " requests (" << load.misses << " misses) in " << load.elapsed
            << " s; latency tail is p" << tail_p << "\n";
  if (!args.trace) {
    report.add("setup_s", median(setups), "s");
    const Windows w = windows(load);
    report.add("cells_per_s", median(w.cells_per_s), "1/s");
    report.add("req_per_s", median(w.req_per_s), "1/s");
    report.add("latency_p50_ms", median(w.p50_s) * 1e3, "ms");
    report.add("latency_tail_ms", tail * 1e3, "ms");
    report.add("code_size_instrs", static_cast<double>(code_size), "instrs");
    report.add("peak_rss_mb", rss_mb, "MB");
    return report;
  }

  // Tracing overhead compares medians of alternating in-process replays of
  // the same requests; the table shows the last traced one.
  const auto dir = [&](const std::string& name) { return args.run_dir + "/" + name; };
  (void)replay(dir("replay-warmup"), stream, report);
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<TraceEvent> events;
  for (int round = 0; round < kReplayRounds; ++round) {
    const std::string tag = std::to_string(round);
    untraced_s.push_back(replay(dir("replay-untraced-" + tag), stream, report));
    events = traced(
        [&] { traced_s.push_back(replay(dir("replay-traced-" + tag), stream, report)); });
  }
  const SpanTable table(std::move(events));
  table.write(std::cout);
  // compute_coalesced prepares every missing cell on the compute thread,
  // then waits while the coalescer's runner thread verifies them
  // (serve/coalesce_batch); one request at a time, so the wait is the batch.
  const double verify_s = table.row("serve/coalesce_batch").total_s;
  const double prepare_s = table.row("serve/compute_coalesced").total_s - verify_s;
  const auto p50_us = [&](const char* layer) { return table.row(layer).p50_s * 1e6; };
  const auto ratio = [&](const char* num, const char* den) {
    const double d = scrape(metrics_text, den);
    return d > 0 ? scrape(metrics_text, num) / d : 0;
  };
  const double replayed = static_cast<double>(std::min(kReplayRequests, stream.size()));
  report.add("driver.prepare_ms", prepare_s * 1e3, "ms");
  report.add("driver.verify_ms", verify_s * 1e3, "ms");
  report.add("driver.export_ms", median(export_s) * 1e3, "ms");
  report.add("serve.http_parse_us", p50_us("layerbench/serve.http_parse"), "us");
  report.add("serve.parse_query_us", p50_us("layerbench/serve.parse_query"), "us");
  report.add("serve.memo_hit_us", p50_us("layerbench/serve.memo_hit"), "us");
  report.add("serve.miss_execute_ms", table.row("serve/query").p50_s * 1e3, "ms");
  report.add("serve.memo_hit_ratio",
             ratio("csr_serve_memo_hits_total", "csr_serve_requests_total"), "ratio");
  report.add("serve.cell_hit_ratio",
             ratio("csr_serve_cell_cache_hits_total", "csr_serve_cells_total"), "ratio");
  report.add("serve.batch_lanes_per_run",
             ratio("csr_serve_coalesce_lanes_total", "csr_serve_coalesce_batches_total"),
             "lanes");
  report.add("support.journal_append_ms", table.row("journal/append").total_s * 1e3, "ms");
  report.add("trace.untraced_rate_per_s", replayed / median(untraced_s), "1/s");
  report.add("trace.traced_rate_per_s", replayed / median(traced_s), "1/s");
  report.add("trace.overhead_pct", 100.0 * (median(traced_s) / median(untraced_s) - 1),
             "%");
  return report;
}

}  // namespace layerbench
