#include "driver/server_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>

namespace perfbench {

using llamatune::Status;

namespace {

/// The port serve_remote wrote to `path`, or 0. The file appears by
/// rename right after the "listening" line, so a reader that saw the
/// line waits at most a moment for it.
unsigned ReadPortFile(const std::string& path) {
  for (int attempt = 0; attempt < 5000; ++attempt) {
    FILE* in = std::fopen(path.c_str(), "r");
    if (in != nullptr) {
      unsigned port = 0;
      const bool ok = std::fscanf(in, "%u", &port) == 1;
      std::fclose(in);
      return ok ? port : 0;
    }
    ::usleep(100);
  }
  return 0;
}

}  // namespace

ServerProcess::~ServerProcess() {
  if (pid_ > 0) Stop(nullptr);
}

Status ServerProcess::Start(const std::string& server_exe,
                            const std::string& autosave_dir) {
  const std::string port_file = autosave_dir + ".port";
  const std::string interval = std::to_string(kAutosaveIntervalMs);
  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) return Status::Internal("pipe failed");
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    // A driver that dies without stopping the server must not leave it
    // behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    ::execl(server_exe.c_str(), server_exe.c_str(), "--serve", "--port", "0",
            "--autosave-dir", autosave_dir.c_str(), "--autosave-interval-ms",
            interval.c_str(), "--port-file", port_file.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  pid_ = pid;
  ::close(out_pipe[1]);
  from_child_ = ::fdopen(out_pipe[0], "r");
  if (from_child_ == nullptr) ::close(out_pipe[0]);
  char line[256];
  const bool listening =
      from_child_ != nullptr &&
      std::fgets(line, sizeof(line), from_child_) != nullptr &&
      std::strstr(line, "listening") != nullptr;
  const unsigned port = listening ? ReadPortFile(port_file) : 0;
  if (port == 0 || port > 65535) {
    Stop(nullptr);
    return Status::Internal("server child did not report a port");
  }
  port_ = static_cast<uint16_t>(port);
  return Status::OK();
}

Status ServerProcess::Stop(Usage* out) {
  if (pid_ <= 0) return Status::FailedPrecondition("server not running");
  ::kill(pid_, SIGTERM);
  int wstatus = 0;
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  pid_t waited;
  do {
    waited = ::wait4(pid_, &wstatus, 0, &usage);
  } while (waited < 0 && errno == EINTR);
  pid_ = -1;
  if (from_child_ != nullptr) {
    std::fclose(from_child_);
    from_child_ = nullptr;
  }
  if (out != nullptr) {
    out->peak_rss_kb = usage.ru_maxrss;
    out->cpu_s = usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
                 (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
  }
  if (waited < 0 || !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("server child exited abnormally");
  }
  return Status::OK();
}

}  // namespace perfbench
