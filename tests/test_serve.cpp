// The sweep-serving daemon (core/serve.hpp): wire protocol, both dedupe
// layers, and hostile-client robustness.
//
// The contract under test, in order of importance:
//   1. A served sweep is byte-identical to `mcrtl explore --csv` — the
//      daemon is a cache in front of the explorer, never a different
//      code path (all three render through core::explore_records()).
//   2. Dedupe both ways: N concurrent identical requests cost ONE
//      computation (in-flight join), and a repeated request costs zero
//      (ResultCache assembly) — including across a daemon restart when a
//      cache DB is configured.
//   3. The daemon never dies on client input: malformed lines, unknown
//      verbs, oversized requests and injected request faults are answered
//      with `err` (or a closed connection) and counted, while the next
//      well-formed client is served normally.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/explorer.hpp"
#include "core/serve.hpp"
#include "core/shard.hpp"
#include "power/report.hpp"
#include "suite/benchmarks.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/net.hpp"

using namespace mcrtl;

#ifndef _WIN32

namespace {

/// Each test gets its own socket (and cache) path under the gtest temp dir.
struct TempPath {
  std::string path;
  explicit TempPath(const std::string& name)
      : path(std::string(::testing::TempDir()) + name) {
    std::remove(path.c_str());
  }
  ~TempPath() { std::remove(path.c_str()); }
};

core::SweepRequest small_request() {
  core::SweepRequest req;
  req.verb = "sweep";
  req.benchmark = "facet";
  req.width = 4;
  req.clocks = 3;
  req.computations = 120;
  req.seed = 1996;
  req.streams = 1;
  return req;
}

/// The CSV bytes `mcrtl explore --csv` writes for `req` — the reference
/// every daemon reply is compared against.
std::string expected_csv(const core::SweepRequest& req) {
  const auto b = suite::by_name(req.benchmark, req.width);
  core::ExplorerConfig cfg;
  cfg.max_clocks = req.clocks;
  cfg.include_dff_variant = req.dff;
  cfg.computations = req.computations;
  cfg.seed = req.seed;
  cfg.streams = req.streams;
  cfg.jobs = 1;
  const auto r = core::explore(*b.graph, *b.schedule, cfg);
  return power::to_csv(core::explore_records(r, req.benchmark, req.width,
                                             req.computations, req.streams));
}

/// RAII server: started on construction, drained on destruction.
struct Server {
  core::SweepServer srv;
  explicit Server(core::SweepServer::Config cfg) : srv(std::move(cfg)) {
    srv.start();
  }
  ~Server() { srv.stop(); }
};

core::SweepServer::Config basic_config(const std::string& socket) {
  core::SweepServer::Config cfg;
  cfg.socket_path = socket;
  cfg.jobs = 2;
  cfg.client_timeout_s = 30.0;
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// Wire protocol codec (no daemon needed)

TEST(ServeProtocolTest, RequestCodecRoundTrips) {
  auto req = small_request();
  req.dff = true;
  req.streams = 4;
  const auto back = core::parse_request(core::encode_request(req));
  EXPECT_EQ(back.verb, "sweep");
  EXPECT_EQ(back.benchmark, "facet");
  EXPECT_EQ(back.width, 4u);
  EXPECT_EQ(back.clocks, 3);
  EXPECT_TRUE(back.dff);
  EXPECT_EQ(back.computations, 120u);
  EXPECT_EQ(back.seed, 1996u);
  EXPECT_EQ(back.streams, 4u);

  core::SweepRequest ping;
  ping.verb = "ping";
  EXPECT_EQ(core::parse_request(core::encode_request(ping)).verb, "ping");
  core::SweepRequest bye;
  bye.verb = "shutdown";
  EXPECT_EQ(core::parse_request(core::encode_request(bye)).verb, "shutdown");
}

TEST(ServeProtocolTest, MalformedRequestsThrow) {
  for (const char* bad : {
           "",
           "GET / HTTP/1.1",
           "mcrtl-serve v2 sweep bench=facet",
           "mcrtl-serve v1",
           "mcrtl-serve v1 frobnicate",
           "mcrtl-serve v1 sweep",                      // bench missing
           "mcrtl-serve v1 sweep bench=",               // empty value
           "mcrtl-serve v1 sweep bench=facet turbo=1",  // unknown key
           "mcrtl-serve v1 sweep bench=facet width=0",
           "mcrtl-serve v1 sweep bench=facet width=65",
           "mcrtl-serve v1 sweep bench=facet clocks=0",
           "mcrtl-serve v1 sweep bench=facet clocks=17",
           "mcrtl-serve v1 sweep bench=facet comps=0",
           "mcrtl-serve v1 sweep bench=facet streams=65",
           "mcrtl-serve v1 sweep bench=facet dff=2",
           "mcrtl-serve v1 sweep bench=facet seed=notanumber",
       }) {
    EXPECT_THROW(core::parse_request(bad), Error) << "'" << bad << "'";
  }
}

// ---------------------------------------------------------------------------
// Live daemon

TEST(ServeTest, PingAndShutdown) {
  TempPath sock("serve_ping.sock");
  Server s(basic_config(sock.path));
  EXPECT_TRUE(core::serve_ping(sock.path));
  EXPECT_FALSE(s.srv.stop_requested());
  EXPECT_TRUE(core::serve_shutdown(sock.path));
  EXPECT_TRUE(s.srv.stop_requested());
  s.srv.stop();
  // Socket unlinked: a fresh ping finds nobody.
  EXPECT_FALSE(core::serve_ping(sock.path));
}

TEST(ServeTest, SweepComputedOnceThenServedFromCache) {
  TempPath sock("serve_sweep.sock");
  Server s(basic_config(sock.path));
  const auto req = small_request();
  const std::string expect = expected_csv(req);

  const auto first = core::serve_query(sock.path, req);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_TRUE(first.computed);
  EXPECT_EQ(first.cached_points, 0u);
  EXPECT_EQ(first.total_points, 7u);
  EXPECT_EQ(first.rows, 7u);
  EXPECT_EQ(first.payload, expect);
  EXPECT_EQ(first.fingerprint.size(), 16u);

  const auto second = core::serve_query(sock.path, req);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_FALSE(second.computed);
  EXPECT_EQ(second.cached_points, second.total_points);
  EXPECT_EQ(second.payload, expect);
  EXPECT_EQ(second.fingerprint, first.fingerprint);

  const auto st = s.srv.stats();
  EXPECT_EQ(st.requests, 2u);
  EXPECT_EQ(st.sweeps_computed, 1u);
  EXPECT_EQ(st.served_from_cache, 1u);
  EXPECT_EQ(st.rejected, 0u);
}

TEST(ServeTest, OverlappingSweepAssemblesFromPointCache) {
  // The cache is keyed per *point*, not per sweep: after a clocks=3 sweep,
  // a clocks=2 request (a strict subset of the enumeration) simulates
  // nothing even though its sweep fingerprint was never seen.
  TempPath sock("serve_subset.sock");
  Server s(basic_config(sock.path));
  const auto big = small_request();
  ASSERT_TRUE(core::serve_query(sock.path, big).ok);

  auto sub = big;
  sub.clocks = 2;
  const auto rep = core::serve_query(sock.path, sub);
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_FALSE(rep.computed);
  EXPECT_EQ(rep.cached_points, rep.total_points);
  EXPECT_EQ(rep.payload, expected_csv(sub));
  EXPECT_EQ(s.srv.stats().sweeps_computed, 1u);
}

TEST(ServeTest, ConcurrentIdenticalRequestsComputeOnce) {
  TempPath sock("serve_join.sock");
  auto cfg = basic_config(sock.path);
  cfg.jobs = 1;
  Server s(cfg);
  auto req = small_request();
  req.computations = 2000;  // slow enough that the clients overlap
  const std::string expect = expected_csv(req);

  constexpr int kClients = 4;
  std::vector<core::ServeReply> replies(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      replies[i] = core::serve_query(sock.path, req);
    });
  }
  for (auto& t : clients) t.join();

  for (const auto& rep : replies) {
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.payload, expect);
  }
  const auto st = s.srv.stats();
  EXPECT_EQ(st.requests, static_cast<std::uint64_t>(kClients));
  // One client computed; each of the others either joined the in-flight
  // sweep or (if it connected after completion) hit the point cache.
  EXPECT_EQ(st.sweeps_computed, 1u);
  EXPECT_EQ(st.joined_inflight + st.served_from_cache,
            static_cast<std::uint64_t>(kClients - 1));
}

TEST(ServeTest, HostileClientsAreRejectedNotFatal) {
  TempPath sock("serve_hostile.sock");
  Server s(basic_config(sock.path));

  {  // Wrong protocol entirely.
    auto c = net::UnixConn::connect(sock.path);
    c.set_recv_timeout(10.0);
    c.send_all("GET / HTTP/1.1\n");
    std::string line;
    ASSERT_TRUE(c.recv_line(line, 1 << 16));
    EXPECT_EQ(line.rfind("err ", 0), 0u) << line;
  }
  {  // Unknown knob on a well-formed magic.
    auto c = net::UnixConn::connect(sock.path);
    c.set_recv_timeout(10.0);
    c.send_all("mcrtl-serve v1 sweep bench=facet turbo=1\n");
    std::string line;
    ASSERT_TRUE(c.recv_line(line, 1 << 16));
    EXPECT_EQ(line.rfind("err ", 0), 0u) << line;
  }
  {  // Oversized request line: the daemon must cut it off, not buffer it.
    auto c = net::UnixConn::connect(sock.path);
    c.set_recv_timeout(10.0);
    c.send_all(std::string(2 * core::kMaxRequestLine, 'x') + "\n");
    // Either an err line or a straight close is acceptable; what matters
    // is that the connection ends and the daemon survives.
    std::string line;
    try {
      if (c.recv_line(line, 1 << 16)) {
        EXPECT_EQ(line.rfind("err ", 0), 0u) << line;
      }
    } catch (const Error&) {
    }
  }
  // The daemon is still alive and still serves real work.
  EXPECT_TRUE(core::serve_ping(sock.path));
  const auto rep = core::serve_query(sock.path, small_request());
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_GE(s.srv.stats().rejected, 3u);
}

TEST(ServeTest, RequestFaultInjectionIsAnsweredAndSurvived) {
  TempPath sock("serve_fault.sock");
  Server s(basic_config(sock.path));
  fault::set_enabled(true);
  fault::Injector::instance().reset();
  fault::ArmSpec spec;
  spec.mode = fault::ArmSpec::Mode::Always;
  fault::Injector::instance().arm("serve.request", spec);

  const auto rep = core::serve_query(sock.path, small_request());
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("injected fault"), std::string::npos) << rep.error;

  fault::Injector::instance().reset();
  fault::set_enabled(false);
  const auto again = core::serve_query(sock.path, small_request());
  EXPECT_TRUE(again.ok) << again.error;
  EXPECT_GE(s.srv.stats().rejected, 1u);
}

TEST(ServeTest, CachePersistsAcrossRestart) {
  TempPath sock("serve_persist.sock");
  TempPath db("serve_persist.db");
  const auto req = small_request();
  const std::string expect = expected_csv(req);
  {
    auto cfg = basic_config(sock.path);
    cfg.cache_db = db.path;
    Server s(cfg);
    const auto rep = core::serve_query(sock.path, req);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_TRUE(rep.computed);
    // The rows were appended before the reply went out: a fresh reader
    // finds every one while the daemon is still running.
    core::ResultCache fresh;
    EXPECT_EQ(fresh.load(db.path), 0u);
    EXPECT_EQ(fresh.num_rows(), rep.total_points);
  }
  {
    auto cfg = basic_config(sock.path);
    cfg.cache_db = db.path;
    Server s(cfg);
    const auto rep = core::serve_query(sock.path, req);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_FALSE(rep.computed);
    EXPECT_EQ(rep.cached_points, rep.total_points);
    EXPECT_EQ(rep.payload, expect);
    EXPECT_EQ(s.srv.stats().sweeps_computed, 0u);
  }
}

TEST(ServeTest, StopDrainsInFlightRequests) {
  TempPath sock("serve_drain.sock");
  auto cfg = basic_config(sock.path);
  cfg.jobs = 1;
  Server s(cfg);
  auto req = small_request();
  req.computations = 2000;

  // Fire a sweep, then stop the daemon while it is (very likely) still
  // computing: the client must still receive a complete, correct reply —
  // never a torn payload or a dropped connection.
  core::ServeReply rep;
  std::thread client([&] {
    try {
      rep = core::serve_query(sock.path, req);
    } catch (const std::exception& e) {
      rep.error = e.what();  // rep.ok stays false; asserted below
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  s.srv.stop();
  client.join();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.payload, expected_csv(req));
}

#endif  // !_WIN32
