#pragma once

// The benchmark's four traffic mixes (perfbench/METRICS.md says why
// each exists) and the per-tenant, per-session inputs derived from the
// workload seed.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/dbsim/simulated_postgres.h"
#include "src/knobs/config_space.h"
#include "src/net/message.h"

namespace perfbench {

struct TenantDef {
  std::string optimizer;
  std::string adapter;
  /// Tenants with the same seed slot get the same session seeds (the
  /// vanilla tenant of tpcc-des-smac shares tenant 0's).
  int seed_slot = 0;
  /// Contributes to the gated ask/tell latency samples.
  bool gated = true;
  /// The same-seed identity-adapter baseline of tenant `seed_slot`.
  bool vanilla = false;
};

struct WorkloadDef {
  std::string name;
  /// dbsim::WorkloadByName key the client evaluates against.
  std::string db_workload;
  /// Transactions per discrete-event evaluation; 0 = analytic engine.
  int des_transactions = 0;
  /// Ask/Tell iterations per session after the baseline.
  int iterations = 100;
  /// Sessions every tenant completes even past the measured window, so
  /// the quality figures cover a fixed, seed-determined set.
  int quality_sessions = 1;
  /// Hello and GetStatus on every session (the lifecycle mix).
  bool lifecycle_calls = false;
  std::vector<TenantDef> tenants;
};

/// nullptr for unknown names.
const WorkloadDef* FindWorkload(const std::string& name);

/// Seed of session `session` for seed slot `slot` under `workload_seed`.
uint64_t SessionSeed(uint64_t workload_seed, int slot, int session);

/// The v9.6 knob catalog every session tunes (90 knobs).
const llamatune::ConfigSpace& CatalogSpace();

/// The wire spec of one session.
llamatune::net::WireSessionSpec MakeWireSpec(const WorkloadDef& def,
                                             const TenantDef& tenant,
                                             uint64_t seed);

/// The client-side objective one session evaluates against.
std::unique_ptr<llamatune::dbsim::SimulatedPostgres> MakeObjective(
    const WorkloadDef& def, uint64_t seed);

}  // namespace perfbench
