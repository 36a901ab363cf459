#pragma once

// The tuning server under test runs in a child process of its own: the
// shipped server binary, examples/serve_remote.cpp in --serve mode
// (built by perfbench/CMakeLists.txt as perfbench_server). The driver
// waits for its "listening" line, reads the bound port from its
// --port-file, and stops it with SIGTERM, which drains the server
// (final autosave sweep) and exits 0.

#include <sys/types.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/common/status.h"

namespace perfbench {

/// Period of the server's autosave sweep in every workload.
constexpr int64_t kAutosaveIntervalMs = 1000;

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Forks and executes `server_exe --serve` on an ephemeral loopback
  /// port with `autosave_dir`; returns once the server listens.
  llamatune::Status Start(const std::string& server_exe,
                          const std::string& autosave_dir);
  uint16_t port() const { return port_; }

  /// What the child used over its lifetime.
  struct Usage {
    long peak_rss_kb = 0;
    /// User plus system CPU time of all its threads.
    double cpu_s = 0.0;
  };

  /// Sends SIGTERM and waits for the drained child; `*usage` (optional)
  /// receives its resource usage.
  llamatune::Status Stop(Usage* usage);

 private:
  pid_t pid_ = -1;
  /// The child's stdout, held open so its drain messages never meet a
  /// closed pipe.
  FILE* from_child_ = nullptr;
  uint16_t port_ = 0;
};

}  // namespace perfbench
