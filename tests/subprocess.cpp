#include "subprocess.hpp"

#include <utility>

#ifndef _WIN32
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace mcrtl::proc {

#ifndef _WIN32

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)) {}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  pid_ = std::exchange(other.pid_, -1);
  return *this;
}

Subprocess Subprocess::spawn(const std::vector<std::string>& argv,
                             bool quiet) {
  if (argv.empty()) throw Error("Subprocess::spawn: empty argv");
  // Build the exec vector before forking — no allocation is allowed in the
  // child of a multithreaded parent.
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) throw Error("fork failed");
  if (pid == 0) {
    // Child: async-signal-safe calls only until execv.
    if (quiet) {
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        ::dup2(devnull, STDOUT_FILENO);
        ::dup2(devnull, STDERR_FILENO);
        if (devnull > STDERR_FILENO) ::close(devnull);
      }
    }
    ::execv(cargv[0], cargv.data());
    _exit(127);  // exec failed
  }
  Subprocess p;
  p.pid_ = pid;
  return p;
}

int Subprocess::wait() {
  if (pid_ <= 0) throw Error("Subprocess::wait: no child");
  int status = 0;
  pid_t rc;
  do {
    rc = ::waitpid(static_cast<pid_t>(pid_), &status, 0);
  } while (rc < 0 && errno == EINTR);
  pid_ = -1;
  if (rc < 0) throw Error("waitpid failed");
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

void Subprocess::kill_child(int sig) {
  if (pid_ > 0) ::kill(static_cast<pid_t>(pid_), sig);
}

#else  // _WIN32

Subprocess::Subprocess(Subprocess&&) noexcept {}
Subprocess& Subprocess::operator=(Subprocess&&) noexcept { return *this; }
Subprocess Subprocess::spawn(const std::vector<std::string>&, bool) {
  throw Error("subprocess spawning is not supported on this platform");
}
int Subprocess::wait() { throw Error("no child"); }
void Subprocess::kill_child(int) {}

#endif

std::vector<int> run_all(const std::vector<std::vector<std::string>>& argvs,
                         bool quiet) {
  std::vector<Subprocess> children;
  children.reserve(argvs.size());
  std::vector<int> codes(argvs.size(), 127);
  for (const auto& argv : argvs) {
    try {
      children.push_back(Subprocess::spawn(argv, quiet));
    } catch (const Error&) {
      children.emplace_back();  // placeholder, stays at exit code 127
    }
  }
  for (std::size_t i = 0; i < children.size(); ++i) {
    if (children[i].running()) codes[i] = children[i].wait();
  }
  return codes;
}

}  // namespace mcrtl::proc
