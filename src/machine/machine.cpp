#include "machine/machine.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "machine/sim_machine.hpp"
#include "machine/socket_machine.hpp"

namespace cxm {

namespace {

long env_long(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    throw std::invalid_argument(std::string("cxrun environment incomplete: ") +
                                name + " is not set");
  }
  char* end = nullptr;
  const long x = std::strtol(v, &end, 10);
  if (end == v || *end != '\0') {
    throw std::invalid_argument(std::string("cxrun environment: bad ") + name +
                                "='" + v + "'");
  }
  return x;
}

/// True when this process was launched by cxrun (CXRUN_RANK et al. are
/// set) and should join a multi-process job.
bool socket_env_active() { return std::getenv("CXRUN_RANK") != nullptr; }

/// The job geometry from the CXRUN_* environment. Throws if it is
/// malformed.
SocketParams socket_env() {
  SocketParams p;
  p.rank = static_cast<int>(env_long("CXRUN_RANK"));
  p.nranks = static_cast<int>(env_long("CXRUN_NRANKS"));
  p.ppn = static_cast<int>(env_long("CXRUN_PPN"));
  const char* root = std::getenv("CXRUN_ROOT");
  if (root == nullptr) {
    throw std::invalid_argument("cxrun environment incomplete: CXRUN_ROOT");
  }
  const std::string r = root;
  const auto colon = r.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= r.size()) {
    throw std::invalid_argument("CXRUN_ROOT must be host:port, got '" + r +
                                "'");
  }
  p.root_host = r.substr(0, colon);
  p.root_port = static_cast<std::uint16_t>(std::stoi(r.substr(colon + 1)));
  if (p.rank < 0 || p.nranks < 1 || p.rank >= p.nranks || p.ppn < 1) {
    throw std::invalid_argument("cxrun environment: bad geometry (rank " +
                                std::to_string(p.rank) + " of " +
                                std::to_string(p.nranks) + ", ppn " +
                                std::to_string(p.ppn) + ")");
  }
  return p;
}

}  // namespace

int launched_rank() {
  const char* v = std::getenv("CXRUN_RANK");
  return v != nullptr ? static_cast<int>(std::strtol(v, nullptr, 10)) : 0;
}

std::unique_ptr<Machine> make_machine(const MachineConfig& cfg) {
  // Explicit Sim runs stay simulated, even under cxrun.
  if (cfg.backend == Backend::Sim) return std::make_unique<SimMachine>(cfg);
  MachineConfig effective = cfg;
  if (socket_env_active()) {
    // Under cxrun a Threaded request joins the multi-process job so
    // unmodified examples work.
    effective.socket = socket_env();
  } else {
    // A threaded run is a one-rank job: every PE local, no rank bridge.
    effective.socket = SocketParams{};
    effective.socket.ppn = cfg.num_pes;
  }
  return std::make_unique<SocketMachine>(effective);
}

}  // namespace cxm
