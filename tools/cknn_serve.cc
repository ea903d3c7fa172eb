// cknn_serve — socket serving front end for the monitoring engine.
//
// Listens on a TCP port (127.0.0.1) and speaks the length-prefixed frame
// protocol of src/serve/protocol.h: clients install/move/terminate
// queries, add/move/remove objects, update edge weights, and read k-NN
// results; the ServingFrontEnd batches everything into engine ticks.
//
//   cknn_serve --port=0 --edges=10000 --algo=ima
//
// --port=0 binds an ephemeral port and prints `listening on port N`.
// A client's kShutdown frame stops the server cleanly.
//
// --selfcheck runs an in-process end-to-end exchange (install, add,
// flush, read, stats, shutdown) over a socketpair instead of serving,
// exercising the full protocol + serve-loop path; exit 0 on success.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/monitor.h"
#include "src/core/server.h"
#include "src/gen/network_gen.h"
#include "src/serve/front_end.h"
#include "src/serve/protocol.h"
#include "src/serve/serve_loop.h"
#include "tools/flag_util.h"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <thread>
#endif

namespace cknn {
namespace {

using tools::ParseCount;
using tools::ParseFlag;
using tools::ParsePositiveInt;
using tools::ParseSize;
using tools::RejectValue;
using tools::RequireValue;

struct Options {
  int port = 0;  // 0 = ephemeral (the bound port is printed).
  Algorithm algo = Algorithm::kIma;
  std::size_t edges = 10000;
  std::uint64_t seed = 1;
  int shards = 1;
  int pipeline = 2;
  std::size_t queue_capacity = std::size_t{1} << 16;
  bool selfcheck = false;
};

void PrintUsage() {
  std::printf(
      "usage: cknn_serve [options]\n"
      "  --port=N              TCP port to listen on (default 0 =\n"
      "                        ephemeral; the bound port is printed as\n"
      "                        'listening on port N')\n"
      "  --algo=ima|gma|ovh    algorithm (default ima)\n"
      "  --edges=N             generated network size (default 10000)\n"
      "  --seed=N              network generator seed (default 1)\n"
      "  --shards=N            worker shards (default 1)\n"
      "  --pipeline=D          ingest pipeline depth, 1 or 2 (default 2)\n"
      "  --queue-capacity=N    submission queue bound; a full queue\n"
      "                        answers ResourceExhausted (default 65536)\n"
      "  --selfcheck           run an in-process protocol round trip\n"
      "                        instead of serving (exit 0 on success)\n");
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (ParseFlag(argv[i], "--port", &v)) {
      std::uint64_t port = 0;
      if (!ParseCount("--port", v, &port)) return false;
      if (port > 65535) {
        std::fprintf(stderr, "--port must be <= 65535\n\n");
        return false;
      }
      opt->port = static_cast<int>(port);
    } else if (ParseFlag(argv[i], "--algo", &v)) {
      if (!RequireValue("--algo", v)) return false;
      if (std::strcmp(v, "ima") == 0) {
        opt->algo = Algorithm::kIma;
      } else if (std::strcmp(v, "gma") == 0) {
        opt->algo = Algorithm::kGma;
      } else if (std::strcmp(v, "ovh") == 0) {
        opt->algo = Algorithm::kOvh;
      } else {
        std::fprintf(stderr, "unknown algorithm: %s\n\n", v);
        return false;
      }
    } else if (ParseFlag(argv[i], "--edges", &v)) {
      if (!ParseSize("--edges", v, &opt->edges)) return false;
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      if (!ParseCount("--seed", v, &opt->seed)) return false;
    } else if (ParseFlag(argv[i], "--shards", &v)) {
      if (!ParsePositiveInt("--shards", v, &opt->shards)) return false;
    } else if (ParseFlag(argv[i], "--pipeline", &v)) {
      if (!ParsePositiveInt("--pipeline", v, &opt->pipeline)) return false;
      if (opt->pipeline > 2) {
        std::fprintf(stderr, "--pipeline depth must be 1 or 2\n\n");
        return false;
      }
    } else if (ParseFlag(argv[i], "--queue-capacity", &v)) {
      if (!ParseSize("--queue-capacity", v, &opt->queue_capacity)) {
        return false;
      }
      if (opt->queue_capacity == 0) {
        std::fprintf(stderr, "--queue-capacity must be >= 1\n\n");
        return false;
      }
    } else if (ParseFlag(argv[i], "--selfcheck", &v)) {
      if (!RejectValue("--selfcheck", v)) return false;
      opt->selfcheck = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n\n", argv[i]);
      return false;
    }
  }
  return true;
}

#if defined(__unix__) || defined(__APPLE__)

/// Builds the engine the front end feeds: a generated network, no standing
/// population (clients install everything over the wire).
MonitoringServer MakeServer(const Options& opt) {
  NetworkGenConfig net;
  net.target_edges = opt.edges;
  net.seed = opt.seed;
  return MonitoringServer(GenerateRoadNetwork(net), opt.algo, opt.shards,
                          opt.pipeline);
}

ServingConfig MakeServingConfig(const Options& opt) {
  ServingConfig config;
  config.queue_capacity = opt.queue_capacity;
  return config;
}

int RunServer(const Options& opt) {
  MonitoringServer server = MakeServer(opt);
  ServingFrontEnd front_end(&server, MakeServingConfig(opt));
  front_end.Start();

  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::fprintf(stderr, "socket failed (errno %d)\n", errno);
    return 1;
  }
  int reuse = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(opt.port));
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd, 16) < 0) {
    std::fprintf(stderr, "bind/listen failed (errno %d)\n", errno);
    ::close(listen_fd);
    return 1;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  std::printf("listening on port %d\n", ntohs(addr.sin_port));
  std::fflush(stdout);

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  while (!stop.load()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener shut down (or failed): stop accepting.
    }
    if (stop.load()) {
      ::close(fd);
      break;
    }
    workers.emplace_back([fd, listen_fd, &front_end, &stop] {
      const serve::ServeLoopResult result =
          serve::ServeConnection(fd, &front_end);
      ::close(fd);
      if (result.shutdown) {
        stop.store(true);
        ::shutdown(listen_fd, SHUT_RDWR);  // Wake the accept loop.
      }
    });
  }
  for (std::thread& t : workers) t.join();
  ::close(listen_fd);
  front_end.Shutdown();
  std::printf("shut down cleanly\n");
  return 0;
}

/// Writes one request frame and reads its response frame.
Result<serve::Response> Transact(int fd, const serve::Message& message,
                                 serve::FrameDecoder* decoder) {
  std::vector<std::uint8_t> frame;
  serve::EncodeMessage(message, &frame);
  std::size_t written = 0;
  while (written < frame.size()) {
    const ssize_t n =
        ::write(fd, frame.data() + written, frame.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("selfcheck write failed");
    }
    written += static_cast<std::size_t>(n);
  }
  while (true) {
    Result<std::optional<std::vector<std::uint8_t>>> next = decoder->Next();
    if (!next.ok()) return next.status();
    if (next->has_value()) {
      return serve::DecodeResponse((*next)->data(), (*next)->size());
    }
    std::uint8_t chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IoError("selfcheck connection closed early");
    decoder->Append(chunk, static_cast<std::size_t>(n));
  }
}

bool ExpectOk(const Result<serve::Response>& response, const char* what) {
  if (!response.ok()) {
    std::fprintf(stderr, "selfcheck %s: %s\n", what,
                 response.status().ToString().c_str());
    return false;
  }
  if (response->code != StatusCode::kOk) {
    std::fprintf(stderr, "selfcheck %s: server answered %s\n", what,
                 response->message.c_str());
    return false;
  }
  return true;
}

/// End-to-end exchange over a socketpair: the same serve loop a TCP
/// connection gets, without the flaky parts (ports, timing).
int RunSelfcheck(const Options& opt) {
  MonitoringServer server = MakeServer(opt);
  ServingFrontEnd front_end(&server, MakeServingConfig(opt));
  front_end.Start();

  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    std::fprintf(stderr, "socketpair failed (errno %d)\n", errno);
    return 1;
  }
  serve::ServeLoopResult loop_result;
  std::thread server_thread([&] {
    loop_result = serve::ServeConnection(fds[0], &front_end);
    ::close(fds[0]);
  });

  bool ok = true;
  serve::FrameDecoder decoder;
  serve::Message m;
  m.op = serve::OpCode::kInstallQuery;
  m.id = 7;
  m.edge = 0;
  m.t = 0.5;
  m.k = 2;
  ok = ok && ExpectOk(Transact(fds[1], m, &decoder), "install");
  m = serve::Message();
  m.op = serve::OpCode::kAddObject;
  m.id = 1;
  m.edge = 0;
  m.t = 0.25;
  ok = ok && ExpectOk(Transact(fds[1], m, &decoder), "add");
  m = serve::Message();
  m.op = serve::OpCode::kFlush;
  ok = ok && ExpectOk(Transact(fds[1], m, &decoder), "flush");
  m = serve::Message();
  m.op = serve::OpCode::kRead;
  m.id = 7;
  if (ok) {
    Result<serve::Response> read = Transact(fds[1], m, &decoder);
    ok = ExpectOk(read, "read");
    if (ok && read->neighbors.empty()) {
      std::fprintf(stderr, "selfcheck read: expected a neighbor\n");
      ok = false;
    }
  }
  m = serve::Message();
  m.op = serve::OpCode::kStats;
  if (ok) {
    Result<serve::Response> stats = Transact(fds[1], m, &decoder);
    ok = ExpectOk(stats, "stats");
    if (ok && stats->stats.applied < 2) {
      std::fprintf(stderr, "selfcheck stats: expected >= 2 applied\n");
      ok = false;
    }
  }
  m = serve::Message();
  m.op = serve::OpCode::kShutdown;
  ok = ok && ExpectOk(Transact(fds[1], m, &decoder), "shutdown");
  ::close(fds[1]);
  server_thread.join();
  if (ok && !loop_result.shutdown) {
    std::fprintf(stderr, "selfcheck: serve loop missed the shutdown\n");
    ok = false;
  }
  if (!ok) return 1;
  std::printf("selfcheck ok (%llu frames served)\n",
              static_cast<unsigned long long>(loop_result.frames));
  return 0;
}

#else  // !(__unix__ || __APPLE__)

int RunServer(const Options&) {
  std::fprintf(stderr, "cknn_serve requires a POSIX platform\n");
  return 1;
}

int RunSelfcheck(const Options&) {
  std::fprintf(stderr, "cknn_serve requires a POSIX platform\n");
  return 1;
}

#endif

}  // namespace
}  // namespace cknn

int main(int argc, char** argv) {
  cknn::Options options;
  if (!cknn::ParseOptions(argc, argv, &options)) {
    cknn::PrintUsage();
    return 2;
  }
  return options.selfcheck ? cknn::RunSelfcheck(options)
                           : cknn::RunServer(options);
}
