// serve-mixed: an open loop against a spawned nuchase_server. Requests
// go out on a fixed schedule over a few connections; most reuse a small
// pool of program texts (program-cache hits), a seeded share are unique
// (misses that parse and evict), most chases are tiny, a few medium, and
// a share ask for the payload. Every result is checked against a direct
// api::Session answer for the same text.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "api/session.h"
#include "common.h"
#include "core/symbol_table.h"
#include "server/protocol.h"
#include "tgd/printer.h"
#include "workload/university.h"

namespace perfbench {
namespace {

using namespace nuchase;

// ---------------------------------------------------------------------
// Inputs and the oracle.

struct Expected {
  std::string outcome;
  std::uint64_t atoms = 0, rounds = 0, triggers_fired = 0, arena_bytes = 0;
  std::uint32_t max_depth = 0;
  std::uint64_t payload_hash = 0;
};

struct ServeInputs {
  std::vector<std::string> texts;     // hot pool first, then unique texts
  std::vector<std::string> labels;
  std::size_t hot = 0;                // texts[0, hot) are reused
};

std::string University(std::uint32_t departments, std::uint32_t seed) {
  core::SymbolTable symbols;
  workload::UniversityOptions opt;
  opt.departments = departments;
  opt.seed = seed;
  workload::Workload w = MakeUniversityWorkload(&symbols, opt);
  return tgd::ProgramToString(w.tgds, w.database, symbols);
}

std::string TcChain(std::uint32_t len, const std::string& prefix) {
  std::string text = "E(x, y) -> T(x, y).\nT(x, y), E(y, z) -> T(x, z).\n";
  for (std::uint32_t i = 0; i < len; ++i) {
    text += "E(" + prefix + std::to_string(i) + ", " + prefix +
            std::to_string(i + 1) + ").\n";
  }
  return text;
}

struct Sizes {
  std::uint32_t small_scale;  // size of the tiny hot texts
  std::uint32_t medium_departments;
  double fixed_rps;
  double limit_ms;
};

Sizes ServeSizes(const Options& options) {
  if (options.tiny) return {1, 2, 50, 200};
  return {3, 16, 400, 50};
}

/// The request schedule of one phase: which text each request sends and
/// whether it asks for the payload, in send order.
struct Planned {
  std::size_t text = 0;
  bool payload = false;
};

// The hot pool: six tiny programs (~1 ms each, so the chase rather than
// thread wake-ups sets the median) and two medium ones (~10-20 ms each).
// Five of the tiny ones are university programs: with the transitive
// closure and the unique texts (faster) below them and the medium ones
// above, the median request falls well inside the university requests
// rather than on the edge between two kinds.
ServeInputs MakeInputs(const Options& options, Rng* rng,
                       std::size_t unique_count) {
  ServeInputs in;
  const Sizes sizes = ServeSizes(options);
  auto seed = [&] { return static_cast<std::uint32_t>(rng->Range(1, 1u << 30)); };
  for (int i = 0; i < 5; ++i) {
    in.texts.push_back(University(sizes.small_scale, seed()));
    in.labels.push_back("tiny-university");
  }
  in.texts.push_back(TcChain(
      8 * sizes.small_scale, "h" + std::to_string(rng->Range(0, 999999)) + "_"));
  in.labels.push_back("tiny-tc");
  for (int i = 0; i < 2; ++i) {
    in.texts.push_back(University(sizes.medium_departments, seed()));
    in.labels.push_back("medium-university");
  }
  in.hot = in.texts.size();
  // Unique texts: tiny chains whose constants carry a per-text prefix,
  // so each is a program-cache miss.
  for (std::size_t i = 0; i < unique_count; ++i) {
    in.texts.push_back(TcChain(10, "u" + std::to_string(seed()) + "_"));
    in.labels.push_back("unique-tc");
  }
  return in;
}

/// `count` requests: 3% medium, 10% unique (each text once), the rest
/// tiny hot texts; 20% ask for the payload. Exact shares, seeded order.
std::vector<Planned> PlanPhase(const ServeInputs& in, std::size_t count,
                               std::size_t* next_unique, Rng* rng) {
  std::vector<Planned> plan;
  const std::size_t medium = count * 3 / 100;
  const std::size_t unique =
      std::min(count / 10, in.texts.size() - *next_unique);
  for (std::size_t i = 0; i < medium; ++i) {
    plan.push_back({in.hot - 2 + i % 2, false});  // the two medium texts
  }
  for (std::size_t i = 0; i < unique; ++i) plan.push_back({(*next_unique)++, false});
  while (plan.size() < count) plan.push_back({plan.size() % (in.hot - 2), false});
  for (std::size_t i = 0; i < count / 5; ++i) plan[i * 5 % count].payload = true;
  rng->Shuffle(&plan);
  return plan;
}

std::vector<Expected> ComputeExpected(const ServeInputs& in, bool corrupt) {
  std::vector<Expected> out(in.texts.size());
  for (std::size_t i = 0; i < in.texts.size(); ++i) {
    auto program = api::Program::Parse(in.texts[i]);
    if (!program.ok()) continue;
    api::Session session(*program, api::SessionOptions().set_num_threads(1));
    auto run = session.Chase();
    if (!run.ok()) continue;
    Expected& e = out[i];
    e.outcome = chase::ChaseOutcomeName(run->outcome());
    e.atoms = run->instance().size();
    e.rounds = run->stats().rounds;
    e.triggers_fired = run->stats().triggers_fired;
    e.max_depth = run->stats().max_depth;
    e.arena_bytes = run->stats().arena_bytes;
    e.payload_hash = Fnv1a(run->ToSortedString());
    if (corrupt) ++e.atoms;
  }
  return out;
}

// ---------------------------------------------------------------------
// The server process.

struct ServerProcess {
  pid_t pid = -1;
  int port = -1;
};

bool Spawn(const Options& options, ServerProcess* out) {
  int fds[2];
  if (::pipe(fds) < 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, even one that is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    ::dup2(fds[1], 1);
    ::close(fds[0]);
    ::close(fds[1]);
    const std::string inflight =
        "--max-inflight=" + std::to_string(std::max(1u, options.nproc / 2));
    ::execl(options.server_bin.c_str(), options.server_bin.c_str(),
            "--port=0", inflight.c_str(), "--max-queue=100000",
            "--cache-size=16", "--threads=1", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(fds[1]);
  std::string line;
  char c;
  while (line.find('\n') == std::string::npos && ::read(fds[0], &c, 1) == 1) {
    line.push_back(c);
  }
  ::close(fds[0]);
  const std::string prefix = "listening on 127.0.0.1:";
  const std::size_t at = line.find(prefix);
  if (at == std::string::npos) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return false;
  }
  out->pid = pid;
  out->port = std::atoi(line.c_str() + at + prefix.size());
  return true;
}

double PeakRssMb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

void Stop(ServerProcess* server) {
  if (server->pid < 0) return;
  ::kill(server->pid, SIGTERM);
  ::waitpid(server->pid, nullptr, 0);
  server->pid = -1;
}

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Blocking send of a whole frame (the post-run stats request).
bool SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// ---------------------------------------------------------------------
// The open-loop client.

/// What the client saw of one request; times in ns on the steady clock.
struct Record {
  std::size_t text = 0;
  bool payload = false;
  std::int64_t due = 0, sent = 0, ack = 0, first_event = 0, done = 0;
  bool result = false;
  server::ResultFrame frame;  // payload cleared after hashing
  std::uint64_t payload_hash = 0;
  std::size_t result_bytes = 0;
  std::string error;
};

struct PhaseOutcome {
  std::vector<Record> records;
  std::uint64_t protocol_errors = 0;
  std::vector<std::string> result_lines;  // kept for the codec timing
};

/// True for a frame that ends its request (result or error). Frames are
/// serialized with "type" first; anything else is told apart after the
/// phase, when every frame is parsed.
bool IsTerminalFrame(const std::string& line) {
  static const std::string kResult = "{\"type\":\"result\"";
  static const std::string kError = "{\"type\":\"error\"";
  return line.compare(0, kResult.size(), kResult) == 0 ||
         line.compare(0, kError.size(), kError) == 0;
}

/// Sends `plan` at `rps`, request i on connection i % `connections`, from
/// one thread that polls every connection, and waits for every terminal
/// frame (or the hard deadline). While requests are due the loop only
/// sends and buffers frames with their arrival times; frames are parsed
/// and matched to requests after the phase, so a large result frame
/// never delays the next send.
PhaseOutcome RunPhase(int port, const std::vector<std::string>& lines,
                      const std::vector<Planned>& plan, double rps,
                      unsigned connections, bool keep_result_lines) {
  PhaseOutcome out;
  out.records.resize(plan.size());
  const std::int64_t start = Tracer::NowNs() + 20'000'000;  // 20 ms lead
  const double gap_ns = 1e9 / rps;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    out.records[i].text = plan[i].text;
    out.records[i].payload = plan[i].payload;
    out.records[i].due = start + static_cast<std::int64_t>(gap_ns * i);
  }
  const std::int64_t hard_deadline =
      out.records.empty() ? start : out.records.back().due + 30'000'000'000LL;

  struct Connection {
    int fd = -1;
    bool broken = false;
    std::string outgoing, incoming;
    std::size_t sent = 0, finished = 0;
    std::vector<std::pair<std::int64_t, std::string>> frames;  // arrival, line
  };
  std::vector<Connection> conns(connections);
  for (Connection& c : conns) {
    c.fd = Connect(port);
    if (c.fd < 0) {
      c.broken = true;
      ++out.protocol_errors;
      continue;
    }
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
  std::vector<pollfd> polled(connections);
  char chunk[65536];
  std::size_t next = 0;
  while (true) {
    std::int64_t now = Tracer::NowNs();
    if (now > hard_deadline) break;
    for (; next < plan.size() && now >= out.records[next].due; ++next) {
      Connection& c = conns[next % connections];
      out.records[next].sent = now;
      if (c.broken) continue;
      c.outgoing += lines[next];
      ++c.sent;
    }
    bool open = false;
    for (const Connection& c : conns) {
      open = open || (!c.broken && c.finished < c.sent);
    }
    if (next == plan.size() && !open) break;
    // Never block on a full socket: a server writing results to us must
    // be able to make progress while requests wait to go out.
    for (Connection& c : conns) {
      if (c.broken || c.outgoing.empty()) continue;
      const ssize_t n =
          ::send(c.fd, c.outgoing.data(), c.outgoing.size(), MSG_NOSIGNAL);
      if (n > 0) {
        c.outgoing.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        c.broken = true;
      }
    }
    std::int64_t wait_ns =
        next < plan.size() ? out.records[next].due - now : 100'000'000;
    if (wait_ns < 0) wait_ns = 0;
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    for (unsigned i = 0; i < connections; ++i) {
      const Connection& c = conns[i];
      polled[i] = {c.broken ? -1 : c.fd,
                   static_cast<short>(POLLIN | (c.outgoing.empty() ? 0 : POLLOUT)),
                   0};
    }
    if (::ppoll(polled.data(), connections, &ts, nullptr) <= 0) continue;
    const std::int64_t arrived = Tracer::NowNs();
    for (unsigned i = 0; i < connections; ++i) {
      Connection& c = conns[i];
      if (c.broken || !(polled[i].revents & (POLLIN | POLLHUP | POLLERR))) {
        continue;
      }
      const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
      if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN &&
                     errno != EWOULDBLOCK)) {
        c.broken = true;
        continue;
      }
      if (n < 0) continue;
      c.incoming.append(chunk, static_cast<std::size_t>(n));
      std::size_t begin = 0, end;
      while ((end = c.incoming.find('\n', begin)) != std::string::npos) {
        c.frames.emplace_back(arrived, c.incoming.substr(begin, end - begin));
        if (IsTerminalFrame(c.frames.back().second)) ++c.finished;
        begin = end + 1;
      }
      c.incoming.erase(0, begin);
    }
  }
  for (const Connection& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }

  // Match every frame to its request: ids are "r<index>", and request i
  // went out on connection i % connections.
  for (unsigned c = 0; c < connections; ++c) {
    for (auto& [arrived, line] : conns[c].frames) {
      auto frame = server::ParseResponse(line);
      if (!frame.ok()) {
        ++out.protocol_errors;
        continue;
      }
      std::string id;
      switch (frame->type) {
        case server::ResponseFrame::Type::kAck: id = frame->ack.id; break;
        case server::ResponseFrame::Type::kEvent: id = frame->event.id; break;
        case server::ResponseFrame::Type::kResult: id = frame->result.id; break;
        case server::ResponseFrame::Type::kError: id = frame->error.id; break;
        default: ++out.protocol_errors; continue;
      }
      char* rest = nullptr;
      const unsigned long long index =
          id.size() > 1 && id[0] == 'r' ? std::strtoull(id.c_str() + 1, &rest, 10)
                                        : plan.size();
      if (rest == nullptr || *rest != '\0' || index >= plan.size() ||
          index % connections != c || out.records[index].sent == 0 ||
          out.records[index].done != 0) {
        ++out.protocol_errors;
        continue;
      }
      Record& r = out.records[index];
      if (frame->type == server::ResponseFrame::Type::kAck) {
        r.ack = arrived;
      } else if (frame->type == server::ResponseFrame::Type::kEvent) {
        if (r.first_event == 0) r.first_event = arrived;
      } else {
        r.done = arrived;
        if (frame->type == server::ResponseFrame::Type::kResult) {
          r.result = true;
          r.frame = std::move(frame->result);
          r.payload_hash = Fnv1a(r.frame.payload);
          r.result_bytes = line.size() + 1;
          r.frame.payload.clear();
          if (keep_result_lines && out.result_lines.size() < 2000 * connections) {
            out.result_lines.push_back(std::move(line));
          }
        } else {
          r.error = server::ErrorCodeName(frame->error.code);
        }
      }
    }
  }
  return out;
}

std::vector<std::string> RequestLines(const ServeInputs& in,
                                      const std::vector<Planned>& plan,
                                      bool events) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    server::ChaseRequest request;
    request.id = "r" + std::to_string(i);
    request.rules = in.texts[plan[i].text];
    request.payload = plan[i].payload;
    request.events = events;
    lines.push_back(server::SerializeRequest(request) + "\n");
  }
  return lines;
}

/// Checks every record against the oracle; returns latencies (ms, from
/// the due time) of the requests that completed correctly.
std::vector<double> Check(const PhaseOutcome& phase,
                          const std::vector<Expected>& expected,
                          const ServeInputs& in, RunResult* result) {
  std::vector<double> latency_ms;
  for (const Record& r : phase.records) {
    ++result->attempted;
    const Expected& e = expected[r.text];
    if (!r.result) {
      result->Fail(in.labels[r.text] + ": " +
                   (r.error.empty() ? "no terminal frame" : r.error));
      continue;
    }
    const server::ResultFrame& f = r.frame;
    if (f.outcome != e.outcome || f.atoms != e.atoms ||
        f.rounds != e.rounds || f.triggers_fired != e.triggers_fired ||
        f.max_depth != e.max_depth || f.arena_bytes != e.arena_bytes ||
        f.has_payload != r.payload ||
        (r.payload && r.payload_hash != e.payload_hash)) {
      result->Fail(in.labels[r.text] + ": result differs from a direct "
                   "api::Session run");
      continue;
    }
    latency_ms.push_back((r.done - r.due) * 1e-6);
  }
  if (phase.protocol_errors > 0) {
    result->Fail(std::to_string(phase.protocol_errors) + " protocol errors");
  }
  return latency_ms;
}

}  // namespace

RunResult RunServeMixed(const Options& options) {
  RunResult result;
  Rng rng(options.seed);
  Tracer tracer(options.trace);
  const Sizes sizes = ServeSizes(options);
  const unsigned connections = std::max(1u, options.nproc / 2);

  // The fixed-rate phase runs for about a third of the run; the rate
  // ladder for max_rate gets the rest (untraced runs only).
  const double fixed_seconds = std::max(1.0, options.seconds * 0.35);
  const std::size_t fixed_count =
      static_cast<std::size_t>(sizes.fixed_rps * fixed_seconds);
  std::vector<double> ladder;
  // Fine steps from the fixed rate: the crossing is interpolated between
  // two neighbouring rungs, so finer steps mean a steadier value.
  for (double r = sizes.fixed_rps; ladder.size() < 12; r *= 1.2) {
    ladder.push_back(r);
  }
  const double rung_seconds = std::max(0.2, options.seconds * 0.025);
  std::size_t unique_needed = fixed_count / 10 + 1;
  if (options.trace) unique_needed *= 2;  // untraced + traced halves
  for (double r : ladder) {
    unique_needed += 3 * (static_cast<std::size_t>(r * rung_seconds) / 10 + 1);
  }

  ServeInputs in = MakeInputs(options, &rng, unique_needed);
  if (!options.dump_inputs.empty()) {
    result.attempted = 1;
    if (!DumpInputs(options, in.texts)) result.Fail("cannot write inputs");
    return result;
  }
  const std::vector<Expected> expected =
      ComputeExpected(in, options.corrupt_expected);

  // Set-up: spawn to the "listening" handshake. The first server serves
  // the run; throwaway spawns between phases sample set-up through the
  // run.
  SetupSampler setup(options.seconds / 80);
  auto spawn = [&](ServerProcess* out) {
    const auto start = Clock::now();
    if (!Spawn(options, out)) {
      result.Fail("cannot spawn " + options.server_bin);
      return false;
    }
    setup.Add(SecondsSince(start));
    return true;
  };
  auto sample_setup = [&] {
    if (!setup.Due()) return;
    ServerProcess extra;
    if (spawn(&extra)) Stop(&extra);
  };
  ServerProcess server;
  if (!spawn(&server)) return result;

  std::size_t next_unique = in.hot;
  std::map<std::string, double> v;
  // How late the generator sent each request: at the fixed rate (where
  // the open loop must keep its schedule) and on the ladder (which
  // overloads the box on purpose; its latencies count from the due time,
  // so lateness there shows in them).
  std::vector<double> lag_ms, ladder_lag_ms;
  auto record_lag = [](const PhaseOutcome& phase, std::vector<double>* out) {
    for (const Record& r : phase.records) {
      if (r.sent != 0) out->push_back((r.sent - r.due) * 1e-6);
    }
  };

  // The fixed offered rate.
  std::vector<Planned> plan = PlanPhase(in, fixed_count, &next_unique, &rng);
  PhaseOutcome fixed =
      RunPhase(server.port, RequestLines(in, plan, false), plan,
               sizes.fixed_rps, connections, false);
  record_lag(fixed, &lag_ms);
  const LatencySummary latency = Summarize(Check(fixed, expected, in, &result));
  // The server's peak over start-up and the fixed-rate phase; the ladder
  // below deliberately overloads it.
  const double peak_rss = PeakRssMb(server.pid);
  sample_setup();

  double max_rate = 0;
  if (options.trace) {
    // The same schedule again with events on: client-side spans per
    // request from the frames' arrival times.
    std::vector<Planned> traced_plan =
        PlanPhase(in, fixed_count, &next_unique, &rng);
    const std::vector<std::string> lines = RequestLines(in, traced_plan, true);
    PhaseOutcome traced = RunPhase(server.port, lines, traced_plan,
                                   sizes.fixed_rps, connections, true);
    record_lag(traced, &lag_ms);
    const LatencySummary traced_latency =
        Summarize(Check(traced, expected, in, &result));
    sample_setup();
    v["trace.overhead_share"] =
        latency.p50 > 0 ? traced_latency.p50 / latency.p50 - 1 : 0;
    std::vector<double> ack, queue, run;
    std::uint64_t request = 0;
    for (const Record& r : traced.records) {
      ++request;
      if (!r.result || r.ack == 0) continue;
      tracer.Add("server.ack", r.sent, r.ack, request);
      ack.push_back((r.ack - r.sent) * 1e-6);
      if (r.first_event == 0) continue;
      tracer.Add("server.queue", r.ack, r.first_event, request);
      tracer.Add("server.run", r.first_event, r.done, request);
      queue.push_back((r.first_event - r.ack) * 1e-6);
      run.push_back((r.done - r.first_event) * 1e-6);
    }
    v["server.ack_ms_p50"] = Percentile(ack, 50);
    v["server.ack_ms_p99"] = Percentile(ack, 99);
    v["server.queue_ms_p50"] = Percentile(queue, 50);
    v["server.queue_ms_p99"] = Percentile(queue, 99);
    v["server.run_ms_p50"] = Percentile(run, 50);
    v["server.run_ms_p99"] = Percentile(run, 99);

    // The frame codec in-process, on this workload's own frames.
    const int reps = 5;
    std::vector<std::string> request_lines;
    for (const std::string& line : lines) {
      request_lines.push_back(line.substr(0, line.size() - 1));
    }
    std::int64_t t0 = Tracer::NowNs();
    for (int rep = 0; rep < reps; ++rep) {
      for (const std::string& line : request_lines) {
        if (!server::ParseRequest(line).ok) {
          result.Fail("request frame does not decode");
        }
      }
    }
    std::int64_t t1 = Tracer::NowNs();
    tracer.Add("server.frame_decode", t0, t1, 0);
    std::vector<server::ResultFrame> frames;
    std::vector<const std::string*> frame_lines;
    for (const std::string& line : traced.result_lines) {
      auto frame = server::ParseResponse(line);
      if (!frame.ok()) continue;
      frames.push_back(frame->result);
      frame_lines.push_back(&line);
    }
    std::vector<std::string> encoded(frames.size());
    std::int64_t t2 = Tracer::NowNs();
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i < frames.size(); ++i) {
        encoded[i] = server::Serialize(frames[i]);
      }
    }
    std::int64_t t3 = Tracer::NowNs();
    tracer.Add("server.frame_encode", t2, t3, 0);
    // The server encodes with the same function: a result must re-encode
    // to the bytes it arrived as.
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (encoded[i] != *frame_lines[i]) {
        result.Fail("result frame does not re-encode to its wire bytes");
      }
    }
    double result_bytes = 0, results = 0;
    for (const Record& r : traced.records) {
      if (!r.result) continue;
      result_bytes += static_cast<double>(r.result_bytes);
      ++results;
    }
    v["server.frame_decode_ns"] =
        lines.empty() ? 0 : static_cast<double>(t1 - t0) / (reps * lines.size());
    v["server.frame_encode_ns"] =
        frames.empty() ? 0
                       : static_cast<double>(t3 - t2) / (reps * frames.size());
    v["server.bytes_per_result"] = results > 0 ? result_bytes / results : 0;

    // Layers the server runs on a cache miss or a payload request, timed
    // in-process on the same texts.
    double parsed_bytes = 0;
    std::uint64_t span_request = 0;
    for (std::size_t i = in.hot; i < std::min(in.texts.size(), in.hot + 200); ++i) {
      (void)ParseProgram(&tracer, in.texts[i], ++span_request);
      parsed_bytes += static_cast<double>(in.texts[i].size());
    }
    ParseLayerMetrics(tracer, parsed_bytes, &v);
    for (std::size_t i = 0; i < in.hot; ++i) {
      auto program = api::Program::Parse(in.texts[i]);
      if (!program.ok()) continue;
      auto chased =
          api::Session(*program, api::SessionOptions().set_num_threads(1)).Chase();
      if (!chased.ok()) continue;
      Tracer::Scope span(&tracer, "core.render", ++span_request);
      (void)chased->ToSortedString();
    }
    v["core.render_s"] = tracer.MeanSelf("core.render");
  } else {
    // max_rate: the highest offered rate whose p99 (from the due time)
    // stays within the limit. One climb goes up the ladder until a rung
    // passes the limit or fails a request; the rungs around that point
    // (three below it to one above) then run twice more. Each rung's p99
    // is taken over its latencies pooled from all its runs, and the
    // crossing is interpolated, log(p99) linear in the rate, between the
    // last passing and the first failing rung.
    std::map<std::size_t, std::vector<double>> pooled;
    std::vector<bool> rung_failed(ladder.size(), false);
    auto run_rung = [&](std::size_t i) {
      const double rate = ladder[i];
      const std::size_t count = std::max<std::size_t>(
          100, static_cast<std::size_t>(rate * rung_seconds));
      std::vector<Planned> rung_plan = PlanPhase(in, count, &next_unique, &rng);
      PhaseOutcome rung = RunPhase(server.port, RequestLines(in, rung_plan, false),
                                   rung_plan, rate, connections, false);
      record_lag(rung, &ladder_lag_ms);
      RunResult rung_check;
      std::vector<double> ms = Check(rung, expected, in, &rung_check);
      sample_setup();
      // Wrong answers fail the run; a rung that is merely too slow (or
      // whose requests miss the hard deadline) only fails the rung.
      for (const std::string& m : rung_check.mismatches) {
        if (m.find("differs") != std::string::npos) result.Fail("ladder: " + m);
      }
      if (rung_check.failed > 0) rung_failed[i] = true;
      std::vector<double>& all = pooled[i];
      all.insert(all.end(), ms.begin(), ms.end());
      return rung_check.failed > 0 ? 1e9 : Percentile(ms, 99);
    };
    std::size_t failing = ladder.size();
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      if (run_rung(i) > sizes.limit_ms) {
        failing = i;
        break;
      }
    }
    const std::size_t low = failing >= 3 ? failing - 3 : 0;
    const std::size_t high = std::min(failing + 1, ladder.size() - 1);
    for (int again = 0; again < 2; ++again) {
      for (std::size_t i = low; i <= high; ++i) (void)run_rung(i);
    }
    double last_rate = 0, last_p99 = 0;
    max_rate = ladder[high];
    for (std::size_t i = 0; i <= high; ++i) {
      const double rate = ladder[i];
      const double p99 =
          rung_failed[i] ? 1e4 : std::min(Percentile(pooled[i], 99), 1e4);
      result.Detail("rung_p99_ms." + std::to_string(static_cast<int>(rate)), p99);
      if (p99 <= sizes.limit_ms) {
        last_rate = rate;
        last_p99 = p99;
        continue;
      }
      if (last_rate == 0) {
        max_rate = rate * sizes.limit_ms / p99;
      } else {
        const double f = std::log(sizes.limit_ms / last_p99) /
                         std::log(p99 / last_p99);
        max_rate = last_rate + (rate - last_rate) * std::clamp(f, 0.0, 1.0);
      }
      break;
    }
    result.Detail("max_rate_limit_ms", sizes.limit_ms);
  }

  // Counters from the server's own stats frame, after the run.
  server::StatsFrame stats;
  {
    const int fd = Connect(server.port);
    std::string buffer;
    if (fd >= 0 && SendAll(fd, server::SerializeStatsRequest() + "\n")) {
      char chunk[4096];
      ssize_t n;
      while (buffer.find('\n') == std::string::npos &&
             (n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
        buffer.append(chunk, static_cast<std::size_t>(n));
      }
    }
    if (fd >= 0) ::close(fd);
    auto frame = server::ParseResponse(buffer.substr(0, buffer.find('\n')));
    if (!frame.ok() || frame->type != server::ResponseFrame::Type::kStats) {
      result.Fail("no stats frame");
    } else {
      stats = frame->stats;
    }
  }
  Stop(&server);

  const double lag_p99 = Percentile(lag_ms, 99);
  result.Detail("connections", connections);
  result.Detail("setup_samples", static_cast<double>(setup.samples().size()));
  result.Detail("fixed_rps", sizes.fixed_rps);
  result.Detail("req_samples", static_cast<double>(latency.samples));
  result.Detail("req_tail_percentile", latency.tail_percentile);
  result.Detail("gen_lag_ms_p99", lag_p99);
  if (!ladder_lag_ms.empty()) {
    result.Detail("ladder_gen_lag_ms_p99", Percentile(ladder_lag_ms, 99));
  }
  // The fixed-rate latencies are only valid while the generator keeps
  // its schedule.
  if (lag_p99 > 5.0) result.Fail("generator fell behind its schedule");

  if (!options.trace) {
    result.Add("setup_s", Median(setup.samples()), "s");
    result.Add("throughput_per_s", max_rate, "1/s");
    result.Add("job_p50_ms", latency.p50, "ms");
    result.Add("job_tail_ms", latency.tail, "ms");
    result.Add("peak_rss_mb", peak_rss, "MB");
    return result;
  }
  const double lookups = static_cast<double>(stats.cache_hits + stats.cache_misses);
  v["server.cache_hit_ratio"] = lookups > 0 ? stats.cache_hits / lookups : 0;
  v["server.cache_lookups"] = lookups;
  v["server.cache_evictions"] = static_cast<double>(stats.cache_evictions);
  v["server.rejected_overload"] = static_cast<double>(stats.rejected_overload);
  v["server.max_overlap"] = static_cast<double>(stats.max_overlap);
  v["server.gen_lag_ms"] = lag_p99;
  EmitPerLayer(v, &result);
  if (!options.out_dir.empty()) {
    tracer.WriteJsonLines(options.out_dir + "/spans-" + options.workload +
                          "-" + std::to_string(options.seed) + ".jsonl");
  }
  return result;
}

}  // namespace perfbench
