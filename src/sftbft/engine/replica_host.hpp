// ReplicaHost: one replica of a Deployment — the single host layer around
// every consensus core. The paper's SFT bookkeeping is generic across
// chained-BFT protocols (Secs. 3.2-3.4 for DiemBFT and HotStuff, Appendix D
// for Streamlet); sftbft::core shares the kernel, and this class shares
// everything around it. A host owns, once for every protocol and fault:
//
//  * the transport handler, the inbound counters and decode-drop
//    accounting;
//  * the Mempool and the bench WorkloadGenerator;
//  * the dissemination data plane (BatchStore, BatchBroadcaster,
//    AdmissionFrontend, ClientSwarm);
//  * the core::Payloads the core draws payloads from — inline from the
//    Mempool, or by digest from the BatchStore in dissemination mode;
//  * the Crash and CrashRestart timers, start / stop / restart, and the
//    call to the deployment's commit observer.
//
// It holds exactly one core: a core::ChainedCore (DiemBFT, HotStuff) or a
// streamlet::StreamletCore. Per family it adds only the core's send hooks
// and the inbound demux.
//
// Outbound behaviour follows the FaultSpec:
//  * Honest (also Crash, CrashRestart, Corrupt) — plain transport;
//    broadcasts use the shared-envelope Transport::broadcast;
//  * Silent — every outbound message is dropped; the replica keeps
//    receiving and stays synced;
//  * Byzantine — adversary::OutboundFunnel delivery plus message crafting
//    (twin proposals, amnesia votes, forged history; adversary/crafting.hpp).
//    A Byzantine host keeps no store, never fires the commit observer (its
//    ledger claims are adversarial: the honest-commit stream is what the
//    SafetyAuditor audits) and refuses restart().
//
// Lifetime rule: the payloads, the broadcaster and the frontend hold
// references into the mempool and the batch store, and pending scheduler
// callbacks hold `this` of the data-plane components. Volatile state is
// therefore reset by assignment, never re-seated: restart() assigns a fresh
// Mempool and BatchStore in place and resets the broadcaster in place.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <variant>

#include "sftbft/adversary/strategy.hpp"
#include "sftbft/core/audit.hpp"
#include "sftbft/core/chained_core.hpp"
#include "sftbft/core/payloads.hpp"
#include "sftbft/dissem/admission.hpp"
#include "sftbft/dissem/broadcaster.hpp"
#include "sftbft/engine/engine.hpp"
#include "sftbft/mempool/mempool.hpp"
#include "sftbft/net/transport.hpp"
#include "sftbft/storage/replica_store.hpp"
#include "sftbft/streamlet/streamlet.hpp"

namespace sftbft::adversary {
class Coalition;
}  // namespace sftbft::adversary

namespace sftbft::engine {

struct DeploymentConfig;

class ReplicaHost {
 public:
  /// Wires replica `id` of `config` onto `transport`. `store` (may be null)
  /// enables durable state: required for CrashRestart faults and restart().
  /// `on_commit` and the taps may be empty; the taps are bound to `id`.
  /// `coalition` is shared by every Byzantine host of the deployment (null
  /// when there is none); `obs` is the deployment's Observer, or null.
  ReplicaHost(const DeploymentConfig& config, ReplicaId id,
              net::Transport& transport,
              std::shared_ptr<const crypto::KeyRegistry> registry,
              Rng workload_rng, storage::ReplicaStore* store,
              CommitObserver on_commit, const core::AuditTaps& taps,
              std::shared_ptr<adversary::Coalition> coalition,
              obs::Observer* obs);
  ~ReplicaHost();

  ReplicaHost(const ReplicaHost&) = delete;
  ReplicaHost& operator=(const ReplicaHost&) = delete;

  [[nodiscard]] Protocol protocol() const { return protocol_; }
  [[nodiscard]] ReplicaId id() const { return id_; }

  /// Registers the network handler, fills the mempool (and starts arrivals),
  /// arms the fault timers, and enters the first round.
  void start();

  /// Halts the replica (crash semantics: timers stop, inbound traffic is
  /// dropped). Crash faults call this at `FaultSpec::crash_at`.
  void stop();

  /// Crash recovery: rebuilds the consensus state from the durable
  /// ReplicaStore (WAL + snapshot), rejoins the network with fresh volatile
  /// state, and re-syncs missed blocks from peers. CrashRestart faults
  /// schedule this at `restart_at`. Throws std::logic_error without a store
  /// and on Byzantine replicas.
  void restart();

  /// The durable store, or nullptr when the replica runs without one.
  [[nodiscard]] storage::ReplicaStore* store() { return store_; }

  [[nodiscard]] const chain::Ledger& ledger() const;
  [[nodiscard]] Round current_round() const;
  [[nodiscard]] const FaultSpec& fault() const { return fault_; }

  /// Inbound traffic actually delivered (exact Envelope frame bytes as
  /// passed by the Transport to the handler) — the receive-side complement
  /// of the transport's send-side MessageStats.
  [[nodiscard]] std::uint64_t inbound_messages() const {
    return inbound_messages_;
  }
  [[nodiscard]] std::uint64_t inbound_bytes() const { return inbound_bytes_; }

  /// The core, or nullptr when this host runs the other protocol family.
  [[nodiscard]] core::ChainedCore* chained_core();
  [[nodiscard]] streamlet::StreamletCore* streamlet_core();

 private:
  struct Byzantine;

  core::ChainedCore::Hooks chained_hooks(const core::AuditTaps& taps);
  streamlet::StreamletCore::Hooks streamlet_hooks(const core::AuditTaps& taps);

  void register_handler();
  void arm_fault_timers();
  void on_envelope(const net::Envelope& env);
  void deliver(core::ChainedCore& core, const net::Envelope& env);
  void deliver(streamlet::StreamletCore& core, const net::Envelope& env);

  // Outbound policy: every send hook of either core ends in one of these.
  template <typename M>
  void send(ReplicaId to, net::WireType type, const M& msg);
  template <typename M>
  void broadcast(net::WireType type, const M& msg, bool include_self,
                 bool withholdable, const char* label = nullptr);
  void fan_out(net::Envelope env, bool include_self, bool withholdable,
               const char* label);
  [[nodiscard]] bool attacks(adversary::Strategy strategy) const;
  template <typename P>
  void equivocate(net::WireType type, const P& proposal);

  Protocol protocol_;
  ReplicaId id_;
  net::Transport& transport_;
  FaultSpec fault_;
  dissem::DissemConfig dissem_;
  storage::ReplicaStore* store_;
  CommitObserver on_commit_;
  /// The chained family's tag set (DiemBFT 0x0x, HotStuff 0x2x).
  net::ChainedWireSet wires_;
  bool silent_;
  std::uint64_t inbound_messages_ = 0;
  std::uint64_t inbound_bytes_ = 0;
  mempool::Mempool pool_;
  mempool::WorkloadGenerator workload_;
  // Data plane (dissem_.enabled only).
  std::unique_ptr<dissem::BatchStore> batches_;
  std::unique_ptr<dissem::BatchBroadcaster> broadcaster_;
  std::unique_ptr<dissem::AdmissionFrontend> frontend_;
  std::unique_ptr<dissem::ClientSwarm> swarm_;
  /// Engaged once in the constructor; the core holds a reference.
  std::optional<core::Payloads> payloads_;
  /// Null unless fault_.kind == Byzantine.
  std::unique_ptr<Byzantine> byz_;
  std::variant<std::unique_ptr<core::ChainedCore>,
               std::unique_ptr<streamlet::StreamletCore>>
      core_;
};

}  // namespace sftbft::engine
