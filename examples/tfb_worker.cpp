// tfb_worker: a standalone shard worker for multi-host benchmark runs.
//
// The coordinator side (`tfb_run --workers=N --transport=tcp
// --external-workers --listen=0.0.0.0:PORT`) listens and dispatches; this
// binary connects, receives its tasks over the wire (framed, CRC-checked;
// see src/tfb/pipeline/transport.h), computes, and streams result rows
// back. It holds no journal and writes nothing locally — durability is the
// coordinator's job, which makes a worker freely killable: on connection
// loss it reconnects under a fresh lease epoch, and any stale rows it
// replays are fenced by the coordinator. Connect attempts back off from
// 50 ms to a 2 s cap; a refused reconnect (the coordinator stopped
// listening) ends the worker at once.
//
// When the coordinator runs with observability on, it asks this worker
// (via the WELCOME options blob) to collect spans and metric deltas and
// ship them back piggybacked on heartbeat/DONE frames — no flags needed
// here; the worker's telemetry follows the coordinator's.
//
// Usage:
//   ./build/examples/tfb_worker --connect=HOST:PORT [--chaos-net=SPEC]
//       [--log-level=LEVEL] [--log-json=FILE]
//
// Exit codes: 0 after the coordinator's QUIT, 1 when the coordinator is
// gone: a reconnect was refused, or 10 connect attempts in a row failed.
//
// --chaos-net injects deterministic, seeded faults into this worker's send
// path (drop, corrupt, short writes, delays, partitions) — the same spec
// grammar as tfb_run's flag; used by the network-chaos CI smoke job.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "tfb/obs/log.h"
#include "tfb/pipeline/shard_worker.h"
#include "tfb/pipeline/transport.h"

int main(int argc, char** argv) {
  using namespace tfb;

  pipeline::TcpWorkerOptions options;
  bool have_endpoint = false;
  const char* usage =
      "usage: tfb_worker --connect=HOST:PORT [--chaos-net=SPEC]\n"
      "                  [--log-level=trace|debug|info|warn|error|off]\n"
      "                  [--log-json=FILE]\n";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--connect=", 10) == 0) {
      const std::string endpoint = argv[i] + 10;
      const std::size_t colon = endpoint.find_last_of(':');
      if (colon == std::string::npos || colon == 0) {
        std::fprintf(stderr, "bad --connect endpoint (need HOST:PORT): %s\n",
                     endpoint.c_str());
        return 1;
      }
      char* end = nullptr;
      const long port = std::strtol(endpoint.c_str() + colon + 1, &end, 10);
      if (*end != '\0' || port <= 0 || port > 65535) {
        std::fprintf(stderr, "bad --connect port in %s\n", endpoint.c_str());
        return 1;
      }
      options.host = endpoint.substr(0, colon);
      options.port = static_cast<std::uint16_t>(port);
      have_endpoint = true;
    } else if (std::strncmp(argv[i], "--chaos-net=", 12) == 0) {
      std::string error;
      const auto plan = pipeline::ParseFaultPlan(argv[i] + 12, &error);
      if (!plan) {
        std::fprintf(stderr, "bad --chaos-net: %s\n", error.c_str());
        return 1;
      }
      options.loop.chaos = *plan;
    } else if (std::strncmp(argv[i], "--log-level=", 12) == 0) {
      const auto level = obs::ParseLogLevel(argv[i] + 12);
      if (!level) {
        std::fprintf(stderr, "bad --log-level: %s\n", argv[i] + 12);
        return 1;
      }
      obs::DefaultLogger().SetLevel(*level);
    } else if (std::strncmp(argv[i], "--log-json=", 11) == 0) {
      if (!obs::DefaultLogger().OpenJsonlSink(argv[i] + 11)) {
        std::fprintf(stderr, "cannot open --log-json file: %s\n",
                     argv[i] + 11);
        return 1;
      }
    } else {
      std::fprintf(stderr, "%s", usage);
      return 1;
    }
  }
  if (!have_endpoint) {
    std::fprintf(stderr, "%s", usage);
    return 1;
  }
  obs::DefaultLogger().Info(
      "tfb_worker starting",
      {{"host", options.host},
       {"port", std::to_string(options.port)}});
  const int rc = pipeline::RunTcpShardWorker(options);
  return rc;
}
