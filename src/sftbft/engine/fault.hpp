// Protocol-agnostic replica fault model, interpreted once for every
// protocol by engine::ReplicaHost:
//
//  * Honest — follows the protocol;
//  * Crash  — benign fault (Theorem 2): stops entirely at `crash_at`;
//  * CrashRestart — the other half of the benign-fault story: crashes at
//             `crash_at`, then restarts at `restart_at` from its durable
//             ReplicaStore (WAL + snapshot — see sftbft::storage) and
//             re-syncs missed blocks from peers. Requires the deployment to
//             wire a store for the replica (Deployment does this
//             automatically);
//  * Silent — Byzantine fault for liveness experiments (Theorem 3): stays
//             synced but never sends any message (no votes, proposals,
//             echoes, or timeouts), so its leadership rounds produce
//             nothing;
//  * Byzantine — an *actively* adversarial replica (Appendix C / Fig. 9):
//             runs the strategies named by `byz` (equivocation, forged vote
//             histories, withheld certificates, selective sending — see
//             sftbft/adversary/strategy.hpp), coordinated with every other
//             Byzantine replica in the deployment through one shared
//             adversary::Coalition;
//  * Corrupt — the replica itself is honest but its outbound *links* flip
//             bits pre-GST (the partial-synchrony adversary controls the
//             network before stabilization): frames it sends get seeded
//             bit corruption per `corrupt` and receivers reject them at
//             the Envelope CRC, counted as corrupt drops in the transport
//             stats. After GST the links are clean, so liveness resumes —
//             byte-level loss is a pre-GST network fault, not a replica
//             fault;
//  * stragglers are modelled in the network topology (extra per-replica
//    delay), not here — see net::Topology::set_extra_delay.
//
// Fault lists are validated centrally by validate_faults() — Deployment
// calls it once at construction, so malformed specs (a restart scheduled
// before the crash, a Byzantine replica with no strategies) fail loudly in
// one place instead of per-engine.
#pragma once

#include <vector>

#include "sftbft/adversary/strategy.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/net/corrupt.hpp"

namespace sftbft::engine {

struct FaultSpec {
  enum class Kind { Honest, Crash, Silent, CrashRestart, Byzantine, Corrupt };
  Kind kind = Kind::Honest;
  /// Crash time (Kind::Crash and Kind::CrashRestart).
  SimTime crash_at = 0;
  /// Restart time (Kind::CrashRestart only; must be > crash_at).
  SimTime restart_at = 0;
  /// Attack programme (Kind::Byzantine only; must name >= 1 strategy).
  adversary::ByzantineSpec byz;
  /// Pre-GST outbound link corruption (Kind::Corrupt only).
  net::CorruptSpec corrupt;

  static FaultSpec honest() { return {}; }
  static FaultSpec crash_at_time(SimTime at) {
    FaultSpec fault;
    fault.kind = Kind::Crash;
    fault.crash_at = at;
    return fault;
  }
  static FaultSpec silent() {
    FaultSpec fault;
    fault.kind = Kind::Silent;
    return fault;
  }
  static FaultSpec crash_restart(SimTime crash, SimTime restart) {
    FaultSpec fault;
    fault.kind = Kind::CrashRestart;
    fault.crash_at = crash;
    fault.restart_at = restart;
    return fault;
  }
  static FaultSpec byzantine(adversary::ByzantineSpec spec) {
    FaultSpec fault;
    fault.kind = Kind::Byzantine;
    fault.byz = std::move(spec);
    return fault;
  }
  /// Convenience: Byzantine with the given strategies and default params.
  static FaultSpec byzantine(std::vector<adversary::Strategy> strategies) {
    adversary::ByzantineSpec spec;
    spec.strategies = std::move(strategies);
    return byzantine(std::move(spec));
  }
  static FaultSpec corrupt_links(net::CorruptSpec spec) {
    FaultSpec fault;
    fault.kind = Kind::Corrupt;
    fault.corrupt = std::move(spec);
    return fault;
  }
};

/// Central FaultSpec validation, shared by every engine: throws
/// std::invalid_argument naming the offending replica when
///  * the list is longer than the deployment (silently ignored faults),
///  * a CrashRestart's restart_at is not after crash_at,
///  * a Crash/CrashRestart crash time is negative,
///  * a Byzantine spec names no strategy,
///  * WithholdRelease is requested with a non-positive withhold_delay,
///  * SelectiveSender's suppression set is empty, out of range, or contains
///    the replica itself,
///  * a Corrupt spec has rate outside (0, 1], zero max_flips, or a peer
///    list that is out of range or names the replica itself (self-sends
///    never touch a link).
void validate_faults(const std::vector<FaultSpec>& faults, std::uint32_t n);

}  // namespace sftbft::engine
