// Transport: the non-template byte-level network interface both consensus
// stacks (and the adversary funnel) send through.
//
// Every message crosses this boundary as an Envelope whose encoded frame is
// the literal on-wire representation: the transport charges bandwidth and
// records stats by `Envelope::encoded_size()` (always `encode().size()`) —
// no per-message size estimates exist anywhere above or below this
// interface. A future multi-process/TCP backend implements exactly this
// class; SimTransport (sim_transport.hpp) is the discrete-event
// implementation.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "sftbft/common/types.hpp"
#include "sftbft/net/envelope.hpp"
#include "sftbft/net/stats.hpp"

namespace sftbft::sim {
class Scheduler;
}

namespace sftbft::net {

class Transport {
 public:
  /// Inbound delivery: a validated envelope plus the exact frame size that
  /// crossed the wire (for receive-side bandwidth accounting). Frames that
  /// fail Envelope::decode are dropped by the transport (counted in
  /// MessageStats::corrupt_drops) and never reach a handler.
  using Handler =
      std::function<void(const Envelope& env, std::size_t frame_bytes)>;

  virtual ~Transport() = default;

  /// Registers the inbound handler for a replica. A replica with no handler
  /// silently drops traffic (crash faults are modelled by clearing it).
  virtual void set_handler(ReplicaId id, Handler handler) = 0;

  /// Simulates a crash: the replica stops receiving.
  virtual void disconnect(ReplicaId id) = 0;
  [[nodiscard]] virtual bool connected(ReplicaId id) const = 0;

  /// Sends to `to` from `env.sender`. `label` overrides the traffic label
  /// (none = wire_label(env.type)); the FBFT baseline's extra votes and
  /// Streamlet's echoes keep their own ledger lines this way.
  /// Self-sends deliver immediately (same event, no network hop).
  ///
  /// Invariant: callers stamp env.sender with their OWN id — the transport
  /// routes delivery physics (delay, GST, the self-send fast path,
  /// corruption) by it. Receivers must not trust it for anything beyond
  /// stats attribution (payload signatures are the authentication layer),
  /// and an adversary strategy that wants to spoof the *logical* sender
  /// must do so inside a signed payload, never via this field.
  virtual void send(ReplicaId to, Envelope env,
                    std::optional<WireLabel> label = std::nullopt) = 0;

  /// Sends to every replica. All clean recipients share the one envelope,
  /// and a frame is built at most once per broadcast, only if some link
  /// needs its bytes (`include_self` adds an immediate self-delivery, which
  /// is how a leader counts its own vote without a round-trip).
  virtual void broadcast(Envelope env, bool include_self,
                         std::optional<WireLabel> label = std::nullopt) = 0;

  /// Number of replicas on this transport.
  [[nodiscard]] virtual std::uint32_t size() const = 0;

  [[nodiscard]] virtual MessageStats& stats() = 0;
  [[nodiscard]] virtual const MessageStats& stats() const = 0;

  /// The timer source replicas on this transport schedule against. (The
  /// simulation backend exposes its discrete-event scheduler; a socket
  /// backend would expose its event loop behind the same interface.)
  [[nodiscard]] virtual sim::Scheduler& scheduler() = 0;
};

}  // namespace sftbft::net
