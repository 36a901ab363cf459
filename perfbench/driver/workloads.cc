#include "driver/workloads.h"

#include "src/dbsim/knob_catalog.h"
#include "src/dbsim/workloads.h"

namespace perfbench {
namespace {

std::vector<WorkloadDef> BuildWorkloads() {
  std::vector<WorkloadDef> out;

  WorkloadDef tpcc;
  tpcc.name = "tpcc-des-smac";
  tpcc.db_workload = "TPC-C";
  tpcc.des_transactions = 20000;
  tpcc.quality_sessions = 5;
  tpcc.tenants = {{"smac", "llamatune", 0, true, false},
                  {"smac", "llamatune", 1, true, false},
                  {"smac", "identity", 0, false, true}};
  out.push_back(tpcc);

  WorkloadDef gpbo;
  gpbo.name = "ycsbb-fast-gpbo";
  gpbo.db_workload = "YCSB-B";
  gpbo.quality_sessions = 10;
  gpbo.tenants = {{"gpbo", "llamatune", 0, true, false},
                  {"gpbo", "llamatune", 1, true, false},
                  {"gpbo", "llamatune", 2, true, false}};
  out.push_back(gpbo);

  WorkloadDef ddpg;
  ddpg.name = "ycsba-fast-ddpg";
  ddpg.db_workload = "YCSB-A";
  ddpg.quality_sessions = 4;
  ddpg.tenants = {{"ddpg", "llamatune", 0, true, false},
                  {"ddpg", "llamatune", 1, true, false}};
  out.push_back(ddpg);

  WorkloadDef churn;
  churn.name = "churn-lifecycle";
  churn.db_workload = "YCSB-A";
  churn.iterations = 5;
  churn.quality_sessions = 100;
  churn.lifecycle_calls = true;
  churn.tenants = {{"random", "identity", 0, true, false},
                   {"random", "identity", 1, true, false},
                   {"random", "identity", 2, true, false}};
  out.push_back(churn);
  return out;
}

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> workloads = BuildWorkloads();
  return workloads;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& def : Workloads()) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

uint64_t SessionSeed(uint64_t workload_seed, int slot, int session) {
  uint64_t h = SplitMix(workload_seed);
  h = SplitMix(h ^ static_cast<uint64_t>(slot));
  return SplitMix(h ^ static_cast<uint64_t>(session));
}

const llamatune::ConfigSpace& CatalogSpace() {
  static const llamatune::ConfigSpace space =
      llamatune::dbsim::PostgresV96Catalog();
  return space;
}

llamatune::net::WireSessionSpec MakeWireSpec(const WorkloadDef& def,
                                             const TenantDef& tenant,
                                             uint64_t seed) {
  llamatune::net::WireSessionSpec spec;
  spec.space_knobs = CatalogSpace().knobs();
  spec.maximize = true;
  spec.optimizer_key = tenant.optimizer;
  spec.adapter_key = tenant.adapter;
  spec.seed = seed;
  spec.num_iterations = def.iterations;
  return spec;
}

std::unique_ptr<llamatune::dbsim::SimulatedPostgres> MakeObjective(
    const WorkloadDef& def, uint64_t seed) {
  llamatune::dbsim::SimulatedPostgresOptions options;
  if (def.des_transactions > 0) {
    options.engine = llamatune::dbsim::EngineKind::kDiscreteEvent;
    options.des_transactions = def.des_transactions;
  }
  options.noise_seed = seed;
  return std::make_unique<llamatune::dbsim::SimulatedPostgres>(
      llamatune::dbsim::WorkloadByName(def.db_workload).ValueOrDie(),
      options);
}

}  // namespace perfbench
