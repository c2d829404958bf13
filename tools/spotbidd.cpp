// spotbidd — the spotbid network daemon (docs/SERVE.md "Running the daemon").
//
// Serves the bid-advisory service over the docs/PROTOCOL.md wire protocol:
//
//   spotbidd --keys us-east-1/r3.xlarge,us-east-1/m3.xlarge
//            [--host 127.0.0.1] [--port 0] [--port-file PATH]
//            [--snapshot-dir DIR] [--workers N] [--queue-capacity N]
//            [--recalibrate-ms MS] [--slots N] [--seed S] [--shards N]
//
// The wire front-end is net::EpollServer, a sharded epoll event loop with a
// fixed thread budget (docs/PROTOCOL.md §8). An unknown flag, a value that
// is not a number or a number out of range prints the reason and the usage
// text and exits 2 before anything is calibrated.
//
// Startup: if --snapshot-dir holds snapshots, they are warm-started
// (bit-identical model reload, no calibration on the request path); any
// --keys not covered are cold-calibrated from generated price history and —
// when a snapshot dir is configured — persisted immediately. Keys are
// published in sorted order so cold and warm starts assign the same epochs.
//
// With --recalibrate-ms > 0 a background Recalibrator rebuilds every key
// each interval from fresh history and republishes (epoch swap; in-flight
// queries keep their snapshot), persisting each rebuilt snapshot before
// publication so the directory always holds the latest calibration.
//
// Shutdown: SIGINT/SIGTERM stops accepting, flushes queued replies,
// drains every admitted request (late submissions get SHUTTING_DOWN error
// frames), persists a final snapshot set, and exits 0.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "spotbid/ec2/instance_types.hpp"
#include "spotbid/net/epoll_server.hpp"
#include "spotbid/serve/model_snapshot.hpp"
#include "spotbid/serve/recalibrator.hpp"
#include "spotbid/serve/service.hpp"
#include "spotbid/serve/snapshot_io.hpp"
#include "spotbid/serve/snapshot_store.hpp"
#include "spotbid/trace/generator.hpp"

namespace {

using namespace spotbid;

std::atomic<int> g_signal{0};

void handle_signal(int signum) { g_signal.store(signum); }

/// A numeric flag: the range it accepts and its value when absent.
struct NumericFlag {
  const char* name;
  std::int64_t min;
  std::int64_t max;
  std::int64_t fallback;
};

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
constexpr NumericFlag kNumericFlags[] = {
    {"port", 0, 65535, 0},
    {"workers", 0, 1024, 0},
    {"queue-capacity", 1, kIntMax, 1024},
    {"recalibrate-ms", 0, kIntMax, 0},
    {"slots", 1, kIntMax, 12 * 24 * 7},
    {"seed", 0, std::numeric_limits<std::int64_t>::max(), 2015},
    {"shards", 0, 1024, 0},
};
constexpr const char* kTextFlags[] = {"keys", "host", "port-file", "snapshot-dir"};

/// The command line: `--help`, or `--flag value` pairs where every flag is
/// known and every numeric value parses whole and lies in its range. The
/// first violation is printed and leaves ok() false.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc && ok_; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help") {
        help_ = true;
        continue;
      }
      const std::string key = arg.rfind("--", 0) == 0 ? arg.substr(2) : "";
      const NumericFlag* numeric = find_numeric(key);
      const bool text = std::any_of(std::begin(kTextFlags), std::end(kTextFlags),
                                    [&key](const char* name) { return key == name; });
      if (numeric == nullptr && !text) {
        reject("unknown argument '" + arg + "'");
      } else if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        reject(arg + " needs a value");
      } else if (numeric == nullptr) {
        texts_[key] = argv[++i];
      } else {
        parse_number(*numeric, argv[++i]);
      }
    }
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool help() const { return help_; }
  [[nodiscard]] bool has(const std::string& key) const { return texts_.count(key) > 0; }
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = texts_.find(key);
    return it == texts_.end() ? fallback : it->second;
  }
  [[nodiscard]] std::int64_t number(const std::string& key) const {
    const auto it = numbers_.find(key);
    return it != numbers_.end() ? it->second : find_numeric(key)->fallback;
  }

 private:
  [[nodiscard]] static const NumericFlag* find_numeric(const std::string& key) {
    for (const NumericFlag& flag : kNumericFlags)
      if (key == flag.name) return &flag;
    return nullptr;
  }

  void reject(const std::string& reason) {
    std::fprintf(stderr, "spotbidd: %s\n", reason.c_str());
    ok_ = false;
  }

  void parse_number(const NumericFlag& flag, const std::string& text) {
    std::int64_t value = 0;
    const char* end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error == std::errc::invalid_argument || stop != end) {
      reject("--" + std::string{flag.name} + " '" + text + "' is not a number");
    } else if (error == std::errc::result_out_of_range || value < flag.min ||
               value > flag.max) {
      reject("--" + std::string{flag.name} + " " + text + " is out of range [" +
             std::to_string(flag.min) + ", " + std::to_string(flag.max) + "]");
    } else {
      numbers_[flag.name] = value;
    }
  }

  std::map<std::string, std::string> texts_;
  std::map<std::string, std::int64_t> numbers_;
  bool ok_ = true;
  bool help_ = false;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: spotbidd --keys REGION/TYPE[,REGION/TYPE...] [--flags]\n"
      "  --host H            bind address (default 127.0.0.1)\n"
      "  --port P            TCP port; 0 picks an ephemeral port (default 0)\n"
      "  --port-file PATH    write the bound port here once listening\n"
      "  --snapshot-dir DIR  warm-start from DIR and persist snapshots to it\n"
      "  --workers N         service worker threads, 0..1024 (0 = hardware default)\n"
      "  --queue-capacity N  admission queue bound, >= 1 (default 1024)\n"
      "  --recalibrate-ms MS background recalibration interval (0 = off)\n"
      "  --slots N           cold-start calibration trace length, >= 1 (default 2016)\n"
      "  --seed S            cold-start calibration seed (default 2015)\n"
      "  --shards N          epoll I/O shard threads, 0..1024 (0 = hardware default)\n"
      "  --help              print this text and exit 2\n");
  return 2;
}

/// Lift the soft open-file limit to the hard limit: every connection costs
/// an fd, and default soft limits (1024 on stock distros) would cap the
/// epoll front-end far below its design point. Best-effort.
void raise_nofile_limit() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  if (limit.rlim_cur == limit.rlim_max) return;
  limit.rlim_cur = limit.rlim_max;
  (void)::setrlimit(RLIMIT_NOFILE, &limit);
}

std::vector<std::string> split_keys(const std::string& csv) {
  std::vector<std::string> keys;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string key = csv.substr(start, comma - start);
    if (!key.empty()) keys.push_back(key);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return keys;
}

/// "region/type" -> catalogued instance type (the part after the slash).
const ec2::InstanceType& type_of_key(const std::string& key) {
  const std::size_t slash = key.find('/');
  if (slash == std::string::npos || slash + 1 == key.size())
    throw std::runtime_error{"key '" + key + "' is not REGION/TYPE"};
  return ec2::require_type(key.substr(slash + 1));
}

std::shared_ptr<serve::ModelSnapshot> calibrate(const std::string& key, int slots,
                                                std::uint64_t seed) {
  const ec2::InstanceType& type = type_of_key(key);
  trace::GeneratorConfig config;
  config.slots = slots;
  config.seed = seed;
  return serve::ModelSnapshot::from_trace(key, trace::generate_for_type(type, config), type);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args{argc, argv};
  if (!args.ok() || args.help()) return usage();
  raise_nofile_limit();

  std::vector<std::string> keys = split_keys(args.get("keys"));
  std::sort(keys.begin(), keys.end());
  const std::string snapshot_dir = args.get("snapshot-dir");
  const auto slots = static_cast<int>(args.number("slots"));
  const auto seed = static_cast<std::uint64_t>(args.number("seed"));
  const std::int64_t recalibrate_ms = args.number("recalibrate-ms");

  serve::SnapshotStore store;
  try {
    // Warm start first: anything already on disk loads bit-identically.
    if (!snapshot_dir.empty()) {
      const std::size_t warmed = serve::warm_start(store, snapshot_dir);
      if (warmed > 0)
        std::fprintf(stderr, "spotbidd: warm-started %zu snapshot(s) from %s\n", warmed,
                     snapshot_dir.c_str());
    }
    // Cold-calibrate the remaining keys (sorted, so epochs are stable).
    for (const std::string& key : keys) {
      if (store.find(key) != nullptr) continue;
      auto snapshot = calibrate(key, slots, seed);
      if (!snapshot_dir.empty()) serve::write_snapshot_file(snapshot_dir, *snapshot);
      store.publish(std::move(snapshot));
      std::fprintf(stderr, "spotbidd: calibrated %s (%d slots)\n", key.c_str(), slots);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spotbidd: startup failed: %s\n", e.what());
    return 1;
  }
  if (store.size() == 0) {
    std::fprintf(stderr, "spotbidd: no snapshots (empty --keys and no warm start)\n");
    return usage();
  }

  serve::ServiceConfig service_config;
  service_config.workers = static_cast<int>(args.number("workers"));
  service_config.queue_capacity = static_cast<std::size_t>(args.number("queue-capacity"));
  serve::BidService service{store, service_config};

  net::EpollServerConfig server_config;
  server_config.host = args.get("host", "127.0.0.1");
  server_config.port = static_cast<std::uint16_t>(args.number("port"));
  server_config.shards = static_cast<int>(args.number("shards"));
  std::unique_ptr<net::EpollServer> server;
  try {
    // A host that is not an IPv4 address or a port in use fails here.
    server = std::make_unique<net::EpollServer>(service, server_config);
    server->start();
  } catch (const net::SocketError& e) {
    std::fprintf(stderr, "spotbidd: cannot listen: %s\n", e.what());
    return 1;
  }
  const std::uint16_t bound_port = server->port();
  std::fprintf(stderr,
               "spotbidd: listening on %s:%u (%zu key(s), %d worker(s), "
               "%d epoll shard(s))\n",
               server_config.host.c_str(), unsigned{bound_port}, store.size(),
               service.workers(), server->shards());

  // The port file is the readiness signal: written only once listening.
  if (args.has("port-file")) {
    std::ofstream out{args.get("port-file"), std::ios::trunc};
    out << bound_port << "\n";
    if (!out.flush()) {
      std::fprintf(stderr, "spotbidd: cannot write --port-file %s\n",
                   args.get("port-file").c_str());
      return 1;
    }
  }

  // Background recalibration: rebuild from fresh history (a new seed every
  // round), persist, then publish. Builders run on the recalibrator thread.
  serve::Recalibrator recalibrator{store,
                                   std::chrono::milliseconds{
                                       recalibrate_ms > 0 ? recalibrate_ms : 60'000}};
  if (recalibrate_ms > 0) {
    for (const std::string& key : keys) {
      recalibrator.add_source([key, slots, seed, snapshot_dir,
                               round = std::uint64_t{0}]() mutable {
        ++round;  // fresh history every round
        auto snapshot = calibrate(key, slots, seed + round);
        if (!snapshot_dir.empty()) serve::write_snapshot_file(snapshot_dir, *snapshot);
        return snapshot;
      });
    }
    recalibrator.start();
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (g_signal.load() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds{100});
  std::fprintf(stderr, "spotbidd: signal %d, draining\n", g_signal.load());

  recalibrator.stop();
  // Server first (drains wire replies while service workers still run),
  // then service.
  server->stop();
  service.stop();
  if (!snapshot_dir.empty()) {
    try {
      serve::persist_all(store, snapshot_dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "spotbidd: final persist failed: %s\n", e.what());
      return 1;
    }
  }
  std::fprintf(stderr, "spotbidd: drained (accepted %llu, rejected %llu), bye\n",
               static_cast<unsigned long long>(service.accepted()),
               static_cast<unsigned long long>(service.rejected()));
  return 0;
}
