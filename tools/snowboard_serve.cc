// snowboard_serve — the campaign fleet daemon and its command-line client.
//
// `serve` runs the long-lived service: a FleetServer multiplexing every submitted
// campaign onto the shared worker pool, fronted by an HTTP/1.0 API on a unix-domain
// socket (filesystem permissions are the auth model). Campaigns are durable: each lives
// in its own directory under --root with its spec, checkpoint store, and report, and a
// restarted daemon re-adopts all of them — completed ones serve their reports, in-flight
// ones resume from their journals with zero re-execution of journaled tests.
//
// `request` is the matching one-shot client for scripts and smoke tests (curl
// --unix-socket works just as well; see docs/OPERATIONS.md for the endpoint reference and
// a two-campaign walkthrough).
//
// Shutdown: SIGTERM/SIGINT (or POST /drain) stops admission, kills running campaigns
// cooperatively at their next fault point — leaving valid, resumable checkpoints, the
// same guarantee the crash sweep proves for real kills — and exits 0.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/snowboard/serve.h"
#include "src/snowboard/serve_http.h"
#include "src/util/fs.h"
#include "src/util/log.h"
#include "tools/flags.h"

namespace snowboard {
namespace {

constexpr FlagInfo kServeFlags[] = {
    {"socket", "PATH", "unix socket to listen on (required)"},
    {"root", "DIR", "fleet root: one durable directory per campaign (required)"},
    {"workers", "N", "fleet-wide worker budget shared by all campaigns (default 4)"},
    {"max-active", "N", "max campaigns running concurrently (default 4)"},
    {"journal-flush", "N", "journal group-commit threshold, records per fsync (default 8)"},
};

constexpr FlagInfo kRequestFlags[] = {
    {"socket", "PATH", "unix socket of a running daemon (required)"},
    {"path", "P", "request path, e.g. /fleet or /campaigns/<id> (required)"},
    {"method", "M", "HTTP method (default GET)"},
    {"body-file", "FILE", "request body from FILE ('-' for stdin); e.g. a campaign spec"},
};

constexpr CommandInfo kCommands[] = {
    {"serve", "run the fleet daemon on a unix socket", kServeFlags},
    {"request", "send one API request to a running daemon", kRequestFlags},
};

void PrintUsage(std::FILE* out) {
  std::fprintf(out, "usage: snowboard_serve <command> [--flag value]...\n");
  std::fprintf(out, "       snowboard_serve --help\n\ncommands:\n");
  PrintCommands(out, kCommands, 9);
  std::fprintf(out,
               "\nexit status: serve: 0 clean drain (SIGTERM, SIGINT, or POST /drain); "
               "1 cannot bind or open the root; 2 usage error.\n"
               "             request: 0 on a 2xx response; 4 on any other response; "
               "1 transport error; 2 usage error.\n");
}

// SIGTERM/SIGINT → graceful drain. The handler only pokes the accept loop's stop flag
// (an atomic store — async-signal-safe); all real teardown runs on the main thread.
FleetHttpServer* g_http = nullptr;

void HandleSignal(int) {
  if (g_http != nullptr) {
    g_http->Stop();
  }
}

int CmdServe(const Args& args) {
  const char* socket_path = args.Get("socket", nullptr);
  const char* root = args.Get("root", nullptr);
  if (socket_path == nullptr || root == nullptr) {
    std::fprintf(stderr, "serve: --socket and --root are required\n");
    return 2;
  }
  FleetOptions options;
  options.root = root;
  if (!args.GetInt("workers", 4, &options.total_workers) ||
      !args.GetInt("max-active", 4, &options.max_active) ||
      !args.GetInt("journal-flush", 8, &options.journal_flush_records)) {
    return 2;
  }
  FleetServer server(options);
  if (!server.ok()) {
    std::fprintf(stderr, "serve: cannot open fleet root %s\n", root);
    return 1;
  }
  FleetHttpServer http(&server, socket_path);
  if (!http.ok()) {
    std::fprintf(stderr, "serve: cannot listen on %s\n", socket_path);
    return 1;
  }
  g_http = &http;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::printf("snowboard_serve: fleet of %d worker(s) on %s, campaigns in %s\n",
              options.total_workers, socket_path, root);
  http.Serve();
  std::printf("snowboard_serve: draining (%s)\n",
              http.drain_requested() ? "POST /drain" : "signal");
  server.Drain();
  std::printf("snowboard_serve: drained; campaign state is durable under %s\n", root);
  return 0;
}

int CmdRequest(const Args& args) {
  const char* socket_path = args.Get("socket", nullptr);
  const char* path = args.Get("path", nullptr);
  if (socket_path == nullptr || path == nullptr) {
    std::fprintf(stderr, "request: --socket and --path are required\n");
    return 2;
  }
  std::string body;
  const char* body_file = args.Get("body-file", nullptr);
  if (body_file != nullptr) {
    if (std::strcmp(body_file, "-") == 0) {
      char buffer[4096];
      size_t n = 0;
      while ((n = std::fread(buffer, 1, sizeof(buffer), stdin)) > 0) {
        body.append(buffer, n);
      }
    } else {
      std::optional<std::string> contents = ReadFileContents(body_file);
      if (!contents.has_value()) {
        std::fprintf(stderr, "request: cannot read %s\n", body_file);
        return 1;
      }
      body = *contents;
    }
  }
  std::optional<HttpResponse> response =
      UnixHttpRequest(socket_path, args.Get("method", "GET"), path, body);
  if (!response.has_value()) {
    std::fprintf(stderr, "request: no daemon on %s?\n", socket_path);
    return 1;
  }
  std::fprintf(stderr, "HTTP %d\n", response->status);
  std::fwrite(response->body.data(), 1, response->body.size(), stdout);
  return response->status >= 200 && response->status < 300 ? 0 : 4;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage(stderr);
    return 2;
  }
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      PrintUsage(stdout);
      return 0;
    }
  }
  std::string command = argv[1];
  if (command == "help") {
    PrintUsage(stdout);
    return 0;
  }
  const CommandInfo* cmd = FindCommand(kCommands, command);
  if (cmd == nullptr) {
    std::fprintf(stderr, "snowboard_serve: unknown command '%s' (try --help)\n",
                 command.c_str());
    return 2;
  }
  SetLogLevel(LogLevel::kInfo);
  Args args;
  if (!args.Parse("snowboard_serve", argc, argv, 2, *cmd)) {
    std::fprintf(stderr, "run `snowboard_serve --help` for the full flag reference\n");
    return 2;
  }
  return command == "serve" ? CmdServe(args) : CmdRequest(args);
}

}  // namespace
}  // namespace snowboard

int main(int argc, char** argv) { return snowboard::Main(argc, argv); }
