// The engine layer's shared vocabulary: which protocol a deployment runs
// and how commits are reported. The paper's claim is that SFT applies
// *generically* across chained-BFT protocols (Secs. 3.2-3.4 for DiemBFT and
// HotStuff, Appendix D for Streamlet); all three run over the sftbft::core
// kernel inside one engine::ReplicaHost per replica (replica_host.hpp).
#pragma once

#include <cstdint>
#include <functional>

#include "sftbft/common/types.hpp"
#include "sftbft/engine/fault.hpp"
#include "sftbft/types/block.hpp"

namespace sftbft::engine {

enum class Protocol {
  DiemBft,    ///< (SFT-)DiemBFT — responsive, round-locked (Secs. 2-3)
  Streamlet,  ///< (SFT-)Streamlet — lock-step, longest-chain (Appendix D)
  HotStuff,   ///< (SFT-)chained HotStuff — responsive, extends-locked rule
};

[[nodiscard]] constexpr const char* protocol_name(Protocol protocol) {
  switch (protocol) {
    case Protocol::DiemBft: return "diembft";
    case Protocol::Streamlet: return "streamlet";
    case Protocol::HotStuff: return "hotstuff";
  }
  return "unknown";
}

/// The responsive chained-QC family (everything running the
/// core::ChainedCore kernel, as opposed to the lock-step Streamlet stack).
[[nodiscard]] constexpr bool is_chained(Protocol protocol) {
  return protocol == Protocol::DiemBft || protocol == Protocol::HotStuff;
}

/// All protocols, in sweep order (benches and conformance suites iterate
/// this instead of hand-listing engines).
inline constexpr Protocol kAllProtocols[] = {
    Protocol::DiemBft, Protocol::HotStuff, Protocol::Streamlet};

/// Commit observer: (replica, block, strength, time). Fired once per
/// strength level first reached per block; the regular commit surfaces as
/// strength = f.
using CommitObserver = std::function<void(ReplicaId, const types::Block&,
                                          std::uint32_t, SimTime)>;

}  // namespace sftbft::engine
