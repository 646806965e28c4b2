// The explorer as a service: a sweep-serving daemon over a unix socket.
//
// `mcrtl serve` runs one SweepServer per machine. Clients connect, send a
// one-line sweep request, and receive the same CSV bytes `mcrtl explore
// --csv` would have written for that sweep. Two layers of deduplication
// make repeated and concurrent requests cheap (see DESIGN.md §12):
//
//  * in-flight: concurrent requests for the same sweep fingerprint join
//    one computation (a condvar-shared slot) — N clients, one sweep;
//  * completed: every evaluated point lands in a ResultCache (the point
//    store, keyed measurement_fingerprint ⊕ config_hash), so any later
//    sweep whose points are all cached is assembled without simulating
//    anything — including sweeps that only *overlap* earlier ones. With
//    Config::cache_db each computed sweep's rows are appended (fsync'd)
//    to the DB before the reply, so the store survives restarts and
//    crashes alike.
//
// Wire protocol ("mcrtl-serve v1", line-oriented, one request per
// connection):
//
//   request:  mcrtl-serve v1 <verb> [k=v ...]\n        (<= kMaxRequestLine)
//     verbs:  sweep bench=<name> [width=W clocks=N dff=0|1 comps=N
//             seed=N streams=N]
//             ping
//             shutdown
//   response: ok rows=<n> computed=<0|1> cached=<hits>/<points>
//                fp=<16hex> bytes=<len>\n  followed by <len> payload bytes
//             ok pong\n | ok bye\n
//             err <message>\n
//
// A malformed, unknown or oversized request gets `err` and the connection
// is closed; the daemon itself never dies on client input.
//
// POSIX-only (unix sockets); construction throws on _WIN32.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

namespace mcrtl::core {

/// Hard cap on a request line; longer input is rejected before it is
/// buffered in full (util::net enforces it during recv).
constexpr std::size_t kMaxRequestLine = 4096;

/// A parsed client request.
struct SweepRequest {
  std::string verb = "sweep";  ///< "sweep" | "ping" | "shutdown"
  std::string benchmark;       ///< suite benchmark name (sweep only)
  unsigned width = 4;
  int clocks = 2;
  bool dff = false;
  std::size_t computations = 2000;
  std::uint64_t seed = 1996;
  std::size_t streams = 1;
};

/// Serialize a request to its wire line (no trailing newline).
std::string encode_request(const SweepRequest& req);

/// Parse a wire line. Throws mcrtl::Error on anything malformed: bad
/// magic, unknown verb or key, non-numeric value, out-of-range knob.
/// Carries the `serve.request` fault-injection site (detail = the line).
SweepRequest parse_request(const std::string& line);

/// One reply as seen by a client.
struct ServeReply {
  bool ok = false;
  std::string error;        ///< message after "err "
  std::size_t rows = 0;     ///< report rows in the payload
  bool computed = false;    ///< daemon simulated (vs. served from cache)
  std::size_t cached_points = 0;  ///< points assembled from the cache
  std::size_t total_points = 0;   ///< points in the sweep
  std::string fingerprint;  ///< 16-hex sweep fingerprint
  std::string payload;      ///< the CSV report
};

class SweepServer {
 public:
  struct Config {
    std::string socket_path;
    /// Optional persistent ResultCache DB; empty = in-memory only.
    std::string cache_db;
    /// Worker threads per computation.
    int jobs = 1;
    /// Per-connection receive timeout.
    double client_timeout_s = 30.0;
  };

  /// Monotonic request counters (a consistent snapshot via stats()).
  struct Stats {
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;        ///< well-formed sweep requests
    std::uint64_t rejected = 0;        ///< malformed/oversized/failed reads
    std::uint64_t sweeps_computed = 0; ///< actually simulated
    std::uint64_t joined_inflight = 0; ///< waited on another client's sweep
    std::uint64_t served_from_cache = 0;  ///< assembled fully from ResultCache
    std::uint64_t cache_point_hits = 0;
  };

  explicit SweepServer(Config cfg);
  ~SweepServer();

  SweepServer(const SweepServer&) = delete;
  SweepServer& operator=(const SweepServer&) = delete;

  /// Bind the socket and launch the accept loop. Throws on bind failure.
  void start();
  /// Ask the server to stop (thread-safe; also triggered by a `shutdown`
  /// request). Idempotent.
  void request_stop();
  bool stop_requested() const;
  /// Block until request_stop() (the CLI daemon's main-thread park).
  void wait_until_stopped();
  /// Drain: stop accepting, join every connection handler (in-flight
  /// requests complete and are answered). Idempotent.
  void stop();

  Stats stats() const;
  const std::string& socket_path() const { return cfg_.socket_path; }

 private:
  Config cfg_;
  std::atomic<bool> stop_{false};
  mutable std::mutex stop_m_;
  std::condition_variable stop_cv_;
  /// Listener, accept thread, connection handlers, in-flight table and the
  /// ResultCache live behind the impl so this header stays socket-free.
  std::unique_ptr<struct ServeImpl> impl_;
};

/// Client helpers ------------------------------------------------------------

/// Send `req` and read the full reply (including the payload). Throws
/// mcrtl::Error on connect/IO failure; a daemon-side `err` comes back as
/// ok=false, never an exception.
ServeReply serve_query(const std::string& socket_path, const SweepRequest& req,
                       double timeout_s = 120.0);

/// Liveness probe: true iff a daemon answered the ping.
bool serve_ping(const std::string& socket_path, double timeout_s = 5.0);

/// Ask the daemon to shut down. True iff it acknowledged.
bool serve_shutdown(const std::string& socket_path, double timeout_s = 5.0);

}  // namespace mcrtl::core
