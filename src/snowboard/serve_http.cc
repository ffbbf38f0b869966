#include "src/snowboard/serve_http.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "src/snowboard/serve.h"
#include "src/util/log.h"
#include "src/util/strings.h"

namespace snowboard {

namespace {

// The API surface, one row per endpoint. "<id>" marks the campaign-id segment. This table
// is what DispatchFleetRequest matches against AND what tools/check_docs.py requires
// docs/OPERATIONS.md to document — add a route here and the docs gate fails until the
// operator guide covers it.
struct RouteInfo {
  const char* method;
  const char* path;
  const char* summary;
};

constexpr RouteInfo kRoutes[] = {
    {"GET", "/healthz", "liveness probe: 200 once the daemon accepts requests"},
    {"GET", "/fleet", "fleet-wide status: worker budget, campaign counts, liveness"},
    {"GET", "/campaigns", "list every campaign's status, in submission order"},
    {"POST", "/campaigns", "submit a campaign spec (body: snowboard-campaign-spec-v2)"},
    {"GET", "/campaigns/<id>", "one campaign's status"},
    {"GET", "/campaigns/<id>/spec", "the campaign's durable spec.txt"},
    {"GET", "/campaigns/<id>/report", "the campaign's committed report.json"},
    {"POST", "/campaigns/<id>/cancel", "cancel a queued or running campaign"},
    {"POST", "/drain", "graceful shutdown: stop admission, checkpoint, exit"},
};

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 201:
      return "Created";
    case 202:
      return "Accepted";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 409:
      return "Conflict";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

HttpResponse Error(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.body = StrPrintf("{\n  \"error\": \"%s\"\n}\n", message.c_str());
  return response;
}

int StatusForRc(FleetRc rc) {
  switch (rc) {
    case FleetRc::kOk:
      return 200;
    case FleetRc::kInvalid:
      return 400;
    case FleetRc::kNotFound:
      return 404;
    case FleetRc::kConflict:
      return 409;
    case FleetRc::kUnavailable:
      return 503;
    case FleetRc::kIoError:
      return 500;
  }
  return 500;
}

// Splits "/campaigns/<id>[/verb]" into id + verb; false when `path` is not under
// /campaigns/ or the id is empty.
bool SplitCampaignPath(const std::string& path, std::string* id, std::string* verb) {
  constexpr const char* kPrefix = "/campaigns/";
  if (path.rfind(kPrefix, 0) != 0) {
    return false;
  }
  std::string rest = path.substr(std::strlen(kPrefix));
  size_t slash = rest.find('/');
  if (slash == std::string::npos) {
    *id = rest;
    verb->clear();
  } else {
    *id = rest.substr(0, slash);
    *verb = rest.substr(slash + 1);
  }
  return !id->empty();
}

}  // namespace

HttpResponse DispatchFleetRequest(FleetServer& server, const std::string& method,
                                  const std::string& path, const std::string& body,
                                  bool* drain_requested) {
  HttpResponse response;
  if (path == "/healthz") {
    if (method != "GET") {
      return Error(405, "use GET /healthz");
    }
    response.status = 200;
    response.body = StrPrintf("{\n  \"ok\": %s\n}\n", server.dead() ? "false" : "true");
    return response;
  }
  if (path == "/fleet") {
    if (method != "GET") {
      return Error(405, "use GET /fleet");
    }
    response.status = 200;
    response.body = FleetStatusJson(server);
    return response;
  }
  if (path == "/drain") {
    if (method != "POST") {
      return Error(405, "use POST /drain");
    }
    *drain_requested = true;
    response.status = 202;
    response.body = "{\n  \"draining\": true\n}\n";
    return response;
  }
  if (path == "/campaigns") {
    if (method == "GET") {
      response.status = 200;
      response.body = "[\n";
      bool first = true;
      for (const CampaignStatus& status : server.List()) {
        if (!first) {
          response.body += ",\n";
        }
        first = false;
        response.body += CampaignStatusJson(status);
      }
      response.body += "]\n";
      return response;
    }
    if (method == "POST") {
      std::optional<CampaignSpec> spec = ParseCampaignSpec(body);
      if (!spec.has_value()) {
        return Error(400, "body is not a snowboard-campaign-spec-v2 document");
      }
      std::string error;
      FleetRc rc = server.Submit(*spec, &error);
      if (rc != FleetRc::kOk) {
        return Error(StatusForRc(rc), error);
      }
      std::optional<CampaignStatus> status = server.Status(spec->name);
      response.status = 201;
      response.body = status.has_value() ? CampaignStatusJson(*status) : "{}\n";
      return response;
    }
    return Error(405, "use GET or POST /campaigns");
  }
  std::string id;
  std::string verb;
  if (SplitCampaignPath(path, &id, &verb)) {
    if (verb.empty()) {
      if (method != "GET") {
        return Error(405, "use GET /campaigns/<id>");
      }
      std::optional<CampaignStatus> status = server.Status(id);
      if (!status.has_value()) {
        return Error(404, "unknown campaign");
      }
      response.status = 200;
      response.body = CampaignStatusJson(*status);
      return response;
    }
    if (verb == "spec") {
      if (method != "GET") {
        return Error(405, "use GET /campaigns/<id>/spec");
      }
      std::optional<std::string> text = server.SpecText(id);
      if (!text.has_value()) {
        return Error(404, "unknown campaign");
      }
      response.status = 200;
      response.body = *text;
      return response;
    }
    if (verb == "report") {
      if (method != "GET") {
        return Error(405, "use GET /campaigns/<id>/report");
      }
      std::optional<std::string> report = server.ReportJson(id);
      if (!report.has_value()) {
        return Error(404, "unknown campaign or report not ready");
      }
      response.status = 200;
      response.body = *report;
      return response;
    }
    if (verb == "cancel") {
      if (method != "POST") {
        return Error(405, "use POST /campaigns/<id>/cancel");
      }
      std::string error;
      FleetRc rc = server.Cancel(id, &error);
      if (rc != FleetRc::kOk) {
        return Error(StatusForRc(rc), error);
      }
      response.status = 200;
      response.body = "{\n  \"cancelling\": true\n}\n";
      return response;
    }
  }
  // Unknown endpoint: answer with the API itself, straight from the route table.
  HttpResponse not_found;
  not_found.status = 404;
  not_found.body = "{\n  \"error\": \"no such endpoint\",\n  \"endpoints\": [\n";
  for (size_t i = 0; i < sizeof(kRoutes) / sizeof(kRoutes[0]); i++) {
    StrAppendf(&not_found.body, "    \"%s %s\"%s\n", kRoutes[i].method, kRoutes[i].path,
               i + 1 < sizeof(kRoutes) / sizeof(kRoutes[0]) ? "," : "");
  }
  not_found.body += "  ]\n}\n";
  return not_found;
}

FleetHttpServer::FleetHttpServer(FleetServer* server, const std::string& socket_path)
    : server_(server), socket_path_(socket_path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    SB_LOG(kWarn) << "serve: socket path too long: " << socket_path_;
    return;
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    SB_LOG(kWarn) << "serve: socket(): " << std::strerror(errno);
    return;
  }
  ::unlink(socket_path_.c_str());  // A stale socket from a dead daemon is ours to replace.
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    SB_LOG(kWarn) << "serve: cannot listen on " << socket_path_ << ": "
                  << std::strerror(errno);
    ::close(fd);
    return;
  }
  listen_fd_ = fd;
}

FleetHttpServer::~FleetHttpServer() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(socket_path_.c_str());
  }
}

void FleetHttpServer::Serve() {
  while (listen_fd_ >= 0 && !stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);  // Short: Stop() latency bound.
    if (ready <= 0) {
      continue;
    }
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    HandleConnection(fd);
    ::close(fd);
    if (drain_requested_.load(std::memory_order_acquire)) {
      return;  // The 202 is on the wire; the caller drains and exits.
    }
  }
}

void FleetHttpServer::HandleConnection(int fd) {
  // Bound reads: a stalled or malicious client cannot wedge the accept loop.
  timeval timeout{/*tv_sec=*/5, /*tv_usec=*/0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  std::string request;
  size_t header_end = std::string::npos;
  char buffer[4096];
  while (header_end == std::string::npos && request.size() < (1u << 20)) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) {
      return;
    }
    request.append(buffer, static_cast<size_t>(n));
    header_end = request.find("\r\n\r\n");
  }
  if (header_end == std::string::npos) {
    return;
  }
  // Request line: METHOD SP PATH SP VERSION.
  size_t line_end = request.find("\r\n");
  std::string line = request.substr(0, line_end);
  size_t sp1 = line.find(' ');
  size_t sp2 = sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) {
    return;
  }
  std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  // Content-Length (case-insensitive match on the canonical spellings curl emits).
  size_t content_length = 0;
  std::string headers = request.substr(0, header_end);
  for (const char* spelling : {"\r\nContent-Length:", "\r\ncontent-length:"}) {
    size_t at = headers.find(spelling);
    if (at != std::string::npos) {
      content_length =
          static_cast<size_t>(std::atol(headers.c_str() + at + std::strlen(spelling)));
      break;
    }
  }
  std::string body = request.substr(header_end + 4);
  while (body.size() < content_length && body.size() < (8u << 20)) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) {
      break;
    }
    body.append(buffer, static_cast<size_t>(n));
  }

  bool drain = false;
  HttpResponse response = DispatchFleetRequest(*server_, method, path, body, &drain);
  std::string wire = StrPrintf(
      "HTTP/1.0 %d %s\r\nContent-Type: application/json\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      response.status, ReasonPhrase(response.status), response.body.size());
  wire += response.body;
  size_t sent = 0;
  while (sent < wire.size()) {
    // MSG_NOSIGNAL: a client that hung up early gets EPIPE here, not a SIGPIPE that would
    // kill the daemon.
    ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      break;
    }
    sent += static_cast<size_t>(n);
  }
  if (drain) {
    drain_requested_.store(true, std::memory_order_release);
  }
}

std::optional<HttpResponse> UnixHttpRequest(const std::string& socket_path,
                                            const std::string& method,
                                            const std::string& path,
                                            const std::string& body) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return std::nullopt;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return std::nullopt;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  std::string wire = StrPrintf("%s %s HTTP/1.0\r\nContent-Length: %zu\r\n\r\n",
                               method.c_str(), path.c_str(), body.size());
  wire += body;
  size_t sent = 0;
  while (sent < wire.size()) {
    // MSG_NOSIGNAL: a server that closed before reading the whole body gets EPIPE, not a
    // SIGPIPE that would kill the caller.
    ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return std::nullopt;
    }
    sent += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string response_text;
  char buffer[4096];
  for (;;) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) {
      break;
    }
    response_text.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  // "HTTP/1.0 NNN Reason\r\n...\r\n\r\nbody".
  if (response_text.rfind("HTTP/1.", 0) != 0) {
    return std::nullopt;
  }
  size_t sp = response_text.find(' ');
  size_t header_end = response_text.find("\r\n\r\n");
  if (sp == std::string::npos || header_end == std::string::npos) {
    return std::nullopt;
  }
  HttpResponse response;
  response.status = std::atoi(response_text.c_str() + sp + 1);
  response.body = response_text.substr(header_end + 4);
  return response;
}

}  // namespace snowboard
