#include "sftbft/engine/deployment.hpp"

#include <stdexcept>
#include <string>

namespace sftbft::engine {

namespace {

[[noreturn]] void wrong_protocol(const char* want, Protocol have) {
  throw std::logic_error(std::string("deployment runs ") +
                         protocol_name(have) + ", not " + want);
}

}  // namespace

Deployment::Deployment(DeploymentConfig config, CommitObserver observer,
                       AuditTaps taps)
    : config_(std::move(config)) {
  if (config_.topology.size() != config_.n) {
    throw std::invalid_argument(
        "Deployment: topology size (" +
        std::to_string(config_.topology.size()) + ") != n (" +
        std::to_string(config_.n) + ")");
  }
  // The single shared fault validator (every replica, all fault kinds).
  validate_faults(config_.faults, config_.n);
  for (const FaultSpec& fault : config_.faults) {
    if (fault.kind == FaultSpec::Kind::Byzantine && !coalition_) {
      coalition_ = std::make_shared<adversary::Coalition>();
    }
  }
  registry_ = std::make_shared<crypto::KeyRegistry>(config_.n, config_.seed);
  backends_.resize(config_.n);
  stores_.resize(config_.n);

  // One byte-level transport for every protocol. Seed derivations are kept
  // per protocol (0xabcd / 0x51ee7 network streams match the historical
  // per-protocol SimNetwork seeds; HotStuff gets its own stream) so
  // existing seeded experiments keep their delay geometry.
  const std::uint64_t net_seed =
      config_.seed ^ [&]() -> std::uint64_t {
        switch (config_.protocol) {
          case Protocol::DiemBft: return 0xabcdULL;
          case Protocol::Streamlet: return 0x51ee7ULL;
          case Protocol::HotStuff: return 0x407507ULL;
        }
        return 0;
      }();
  transport_ = std::make_unique<net::SimTransport>(sched_, config_.topology,
                                                   config_.net, net_seed);
  if (config_.obs.enabled) {
    observer_ = std::make_unique<obs::Observer>(config_.obs, config_.n);
    // The transport feeds per-WireType transit histograms and (when tracing)
    // cross-replica flow arrows into the same observer the replicas use.
    transport_->set_observer(observer_.get());
  }
  // Corrupt faults are link-level: they live in the transport, and the
  // replica itself runs an honest host. Corruption only acts
  // before GST, so a synchronous-from-the-start network would make the
  // fault a silent no-op — reject that the way validate_faults rejects
  // other no-op specs (it cannot, lacking the net config).
  for (ReplicaId id = 0; id < config_.faults.size(); ++id) {
    if (config_.faults[id].kind != FaultSpec::Kind::Corrupt) continue;
    if (config_.net.gst <= 0) {
      throw std::invalid_argument(
          "Deployment: replica " + std::to_string(id) +
          " has a Corrupt fault but net.gst == 0 — pre-GST corruption "
          "never fires on a synchronous-from-the-start network");
    }
    transport_->set_corruption(id, config_.faults[id].corrupt);
  }

  Rng workload_rng(config_.seed ^ 0x77aa);
  for (ReplicaId id = 0; id < config_.n; ++id) {
    const FaultSpec& fault =
        id < config_.faults.size() ? config_.faults[id] : FaultSpec::honest();
    hosts_.push_back(std::make_unique<ReplicaHost>(
        config_, id, *transport_, registry_, workload_rng.fork(),
        make_store(id, fault), observer, taps, coalition_, observer_.get()));
  }
}

Deployment::~Deployment() = default;

storage::ReplicaStore* Deployment::make_store(ReplicaId id,
                                              const FaultSpec& fault) {
  // Byzantine replicas have no honest state worth keeping.
  const bool wants_store =
      fault.kind != FaultSpec::Kind::Byzantine &&
      (config_.persist_all || fault.kind == FaultSpec::Kind::CrashRestart);
  if (!wants_store) return nullptr;
  // Per-replica backend, independently seeded: torn-tail draws at one
  // replica's crash never perturb another's stream.
  backends_[id] = std::make_unique<storage::MemBackend>(
      config_.seed ^ 0x5708AC4EDULL ^ id);
  storage::StoreConfig store_config = config_.storage;
  store_config.observer = observer_.get();
  store_config.sched = &sched_;
  stores_[id] = std::make_unique<storage::ReplicaStore>(*backends_[id], id,
                                                        store_config);
  return stores_[id].get();
}

void Deployment::start() {
  for (auto& host : hosts_) host->start();
}

void Deployment::run_for(SimDuration duration) { sched_.run_for(duration); }

std::uint32_t Deployment::honest_count() const {
  std::uint32_t honest = 0;
  for (const auto& host : hosts_) {
    const FaultSpec::Kind kind = host->fault().kind;
    if (kind == FaultSpec::Kind::Honest || kind == FaultSpec::Kind::Corrupt) {
      ++honest;
    }
  }
  return honest;
}

ReplicaHost& Deployment::honest_host(ReplicaId id, bool chained) const {
  if (chained != is_chained(config_.protocol)) {
    wrong_protocol(chained ? "a chained protocol" : "streamlet",
                   config_.protocol);
  }
  // A Byzantine host's core state is adversarial by design.
  if (hosts_[id]->fault().kind == FaultSpec::Kind::Byzantine) {
    throw std::logic_error("replica " + std::to_string(id) +
                           " is Byzantine; honest-core escape hatches do "
                           "not apply (inspect the Coalition instead)");
  }
  return *hosts_[id];
}

core::ChainedCore& Deployment::chained_core(ReplicaId id) {
  return *honest_host(id, /*chained=*/true).chained_core();
}

const core::ChainedCore& Deployment::chained_core(ReplicaId id) const {
  return *honest_host(id, /*chained=*/true).chained_core();
}

streamlet::StreamletCore& Deployment::streamlet_core(ReplicaId id) {
  return *honest_host(id, /*chained=*/false).streamlet_core();
}

const streamlet::StreamletCore& Deployment::streamlet_core(
    ReplicaId id) const {
  return *honest_host(id, /*chained=*/false).streamlet_core();
}

}  // namespace sftbft::engine
