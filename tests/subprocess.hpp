// Child-process helpers for the cross-process shard tests.
//
// test_shard runs real `mcrtl explore --shard` workers and `mcrtl merge`
// as separate processes: spawn an argv vector with stdout/stderr
// optionally discarded, wait for exit, or kill. fork() is followed
// immediately by execv (only async-signal-safe calls in between), which is
// the only fork discipline that is safe from a multithreaded parent.
//
// POSIX-only; on _WIN32 spawn() throws.
#pragma once

#include <string>
#include <vector>

#include "util/error.hpp"

namespace mcrtl::proc {

/// A spawned child process. Move-only; the destructor does NOT kill or
/// reap the child — call wait() (or kill() then wait()) explicitly.
class Subprocess {
 public:
  Subprocess() = default;
  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  /// Spawn `argv` (argv[0] is the executable path). With `quiet`, the
  /// child's stdout/stderr go to /dev/null. Throws mcrtl::Error if the
  /// fork fails or argv is empty; an exec failure surfaces as exit code
  /// 127 from wait().
  static Subprocess spawn(const std::vector<std::string>& argv,
                          bool quiet = false);

  bool running() const { return pid_ > 0; }
  long pid() const { return pid_; }

  /// Block until the child exits. Returns its exit code, or 128+signal
  /// when it died on a signal. Throws if there is no child to wait for.
  int wait();

  /// Send `sig` (e.g. SIGKILL) to the child. No-op when already reaped.
  void kill_child(int sig);

 private:
  long pid_ = -1;
};

/// Spawn every argv in `argvs` concurrently and wait for all of them.
/// Returns the exit codes in order. Children that cannot be spawned count
/// as exit code 127.
std::vector<int> run_all(const std::vector<std::vector<std::string>>& argvs,
                         bool quiet = false);

}  // namespace mcrtl::proc
