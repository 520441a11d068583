// The `dtopctl serve` and `dtopctl client` subcommands: the CLI face of
// dtopd (src/service). `serve` runs the daemon in the foreground on a
// Unix-domain socket (--socket) or a TCP listen address (--listen), with
// SIGINT/SIGTERM draining in-flight requests before exit; `client` sends a
// scripted line-delimited JSON session and
// prints the response lines, exiting 0 only when every response carries
// "ok": true (so CI can assert a whole session with one exit code).
#include <memory>

#include "cli/cli.hpp"
#include "cli/cli_io.hpp"
#include "cli/flags.hpp"
#include "service/dispatcher.hpp"
#include "service/server.hpp"
#include "service/signals.hpp"

namespace dtop::cli {

ServeOptions parse_serve_args(const std::vector<std::string>& args) {
  ServeOptions opt;
  FlagWalker w(args);
  while (w.next()) {
    const std::string& f = w.flag();
    if (f == "--socket") {
      opt.socket = w.value();
    } else if (f == "--listen") {
      opt.listen = w.value();
    } else if (f == "--workers") {
      opt.workers = parse_int_as<int>(f, w.value());
      if (opt.workers < 1) throw UsageError("--workers must be >= 1");
    } else if (f == "--cache") {
      opt.cache = parse_int_as<std::uint32_t>(f, w.value());
      if (opt.cache < 1) throw UsageError("--cache must be >= 1 entry");
    } else if (f == "--cache-store") {
      opt.cache_store = w.value();
    } else if (f == "--trace-dir") {
      opt.trace_dir = w.value();
    } else if (f == "--quiet") {
      opt.quiet = true;
    } else {
      throw UsageError("unknown flag '" + f + "' for 'serve'");
    }
  }
  if (opt.socket.empty() == opt.listen.empty()) {
    throw UsageError(
        "'serve' needs exactly one of --socket PATH or --listen HOST:PORT");
  }
  return opt;
}

ClientOptions parse_client_args(const std::vector<std::string>& args) {
  ClientOptions opt;
  FlagWalker w(args);
  while (w.next()) {
    const std::string& f = w.flag();
    if (f == "--socket") {
      opt.socket = w.value();
    } else if (f == "--cluster") {
      opt.cluster = w.value();
    } else if (f == "--request") {
      opt.requests.push_back(w.value());
    } else if (f == "--in") {
      opt.in_file = w.value();
    } else if (f == "--shutdown") {
      opt.shutdown = true;
    } else {
      throw UsageError("unknown flag '" + f + "' for 'client'");
    }
  }
  if (opt.socket.empty() == opt.cluster.empty()) {
    throw UsageError(
        "'client' needs exactly one of --socket PATH or --cluster SOCKS");
  }
  if (opt.requests.empty() && opt.in_file.empty() && !opt.shutdown) {
    throw UsageError(
        "'client' needs at least one of --request, --in, or --shutdown");
  }
  return opt;
}

int serve_command(const ServeOptions& opt, std::ostream& out,
                  std::ostream& err) {
  service::ServerOptions sopt;
  sopt.socket_path = opt.socket;
  sopt.tcp = opt.listen;
  sopt.service.workers = opt.workers;
  sopt.service.cache_capacity = opt.cache;
  sopt.service.cache_store = opt.cache_store;
  sopt.service.warn = &err;
  sopt.service.trace_dir = opt.trace_dir;
  sopt.quiet = opt.quiet;

  service::SignalGuard guard;
  service::SignalGuard::reset();
  sopt.stop = &service::SignalGuard::flag();

  service::Server server(sopt);
  server.serve(out);
  return guard.triggered() ? service::SignalGuard::exit_code() : 0;
}

int client_command(const ClientOptions& opt, std::ostream& out,
                   std::ostream& err) {
  // One roundtrip closure over either transport: a direct dtopd connection,
  // or the consistent-hash dispatcher across a shard list (which fans
  // `stats` and `shutdown` out to every shard and aggregates).
  std::unique_ptr<service::ClientChannel> channel;
  std::unique_ptr<service::Dispatcher> dispatcher;
  if (!opt.cluster.empty()) {
    service::DispatcherOptions dopt;
    dopt.sockets = split_list(opt.cluster);
    if (dopt.sockets.empty()) throw UsageError("--cluster list is empty");
    dispatcher = std::make_unique<service::Dispatcher>(dopt);
  } else {
    channel = std::make_unique<service::ClientChannel>(opt.socket);
  }
  bool all_ok = true;
  const auto roundtrip = [&](const std::string& line) {
    std::string response;
    if (dispatcher) {
      response = dispatcher->call(line);
    } else {
      channel->send(line);
      const std::optional<std::string> resp = channel->recv();
      if (!resp) throw Error("server closed the connection mid-session");
      response = *resp;
    }
    out << response << "\n";
    // Responses are JsonWriter output, so the success marker has exactly
    // this spelling; a full JSON parse would reject the nested stats
    // objects the line protocol itself never needs to re-read.
    if (response.find("\"ok\": true") == std::string::npos) all_ok = false;
  };

  for (const std::string& request : opt.requests) roundtrip(request);
  if (!opt.in_file.empty()) {
    with_input(opt.in_file, [&](std::istream& is) {
      std::string line;
      while (std::getline(is, line)) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (!line.empty()) roundtrip(line);
      }
      return 0;
    });
  }
  if (opt.shutdown) roundtrip("{\"op\": \"shutdown\"}");
  (void)err;
  return all_ok ? 0 : 1;
}

}  // namespace dtop::cli
