// Timeout messages and timeout certificates (paper Fig. 2, "Timeout").
//
// When a round timer expires the replica multicasts ⟨timeout, r, qc_high⟩_i.
// 2f + 1 distinct timeout messages for round r form a timeout certificate
// (TC) which advances the pacemaker to round r + 1 and lets the next leader
// justify proposing on top of the highest QC seen by the quorum.
//
// A timeout signature binds (round, sender, high_qc.round) — the *round* of
// the attached QC, not its digest (the LibraBFT v4 / DiemBFT-production
// layout). That makes the TC aggregatable without carrying every member's
// QC: the cert keeps one representative high QC (independently verified),
// the per-sender high-qc rounds in bitmap order, and a single aggregate
// signature — ⌈n/8⌉ + 32 bytes of signature material instead of a full
// 36-byte signature plus an entire embedded QC per member. Safety is
// unaffected: the QC a leader extends is verified on its own; the signed
// round only attests which round each member had certified when timing out.
#pragma once

#include <optional>
#include <vector>

#include "sftbft/common/codec.hpp"
#include "sftbft/common/types.hpp"
#include "sftbft/crypto/aggregate.hpp"
#include "sftbft/crypto/signature.hpp"
#include "sftbft/types/quorum_cert.hpp"

namespace sftbft::crypto {
class KeyRegistry;
class VerifyCache;
}

namespace sftbft::types {

struct TimeoutMsg {
  Round round = 0;
  ReplicaId sender = kNoReplica;
  QuorumCert high_qc;  ///< highest QC known to the sender
  crypto::Signature sig{};

  [[nodiscard]] Bytes signing_bytes() const;

  /// The signed bytes rebuilt from certificate parts (see file comment:
  /// the signature covers the high QC's round, not its digest).
  [[nodiscard]] static Bytes signing_bytes_for(Round round, ReplicaId sender,
                                               Round high_qc_round);

  void encode(Encoder& enc) const;
  static TimeoutMsg decode(Decoder& dec);

  /// Minimum encoded size (genesis high_qc): bounds untrusted timeout
  /// counts while decoding containers.
  static constexpr std::size_t kMinEncodedBytes =
      8 + 4 + QuorumCert::kMinEncodedBytes + (4 + 32);

  friend bool operator==(const TimeoutMsg&, const TimeoutMsg&) = default;
};

struct TimeoutCert {
  Round round = 0;
  /// The highest QC among the members' — the one the next leader extends.
  QuorumCert high_qc;
  /// Each member's attested high-qc round, in bitmap-bit (sender id) order.
  std::vector<Round> hqc_rounds;
  /// One aggregate over every member's timeout signing-bytes.
  crypto::AggregateSignature agg;

  /// Folds one timeout message in: attested round + signature; keeps
  /// `high_qc` as the max over folded members. Members must be folded in
  /// ascending sender order (collectors iterate an ordered map). Returns
  /// false (no-op) on a duplicate sender.
  bool add_timeout(const TimeoutMsg& msg);

  /// Highest QC carried by any member timeout — the next leader extends it.
  [[nodiscard]] const QuorumCert& highest_qc() const { return high_qc; }

  /// >= quorum distinct senders, the aggregate refolds over the attested
  /// rounds, the representative QC verifies and matches the members' max.
  [[nodiscard]] bool verify(const crypto::KeyRegistry& registry,
                            std::size_t quorum,
                            crypto::VerifyCache* cache = nullptr) const;

  /// The receiver-independent work of verify(): the certificate's own and
  /// that of its representative high QC.
  struct Work {
    CertWork cert;
    CertWork high_qc;
  };

  /// The same check, drawing the shared parts from `work` (which must
  /// belong to this certificate's value).
  [[nodiscard]] bool verify(const crypto::KeyRegistry& registry,
                            std::size_t quorum, crypto::VerifyCache* cache,
                            Work& work) const;

  void encode(Encoder& enc) const;
  static TimeoutCert decode(Decoder& dec);

  /// Minimum encoded size (empty cert with a genesis high_qc).
  static constexpr std::size_t kMinEncodedBytes =
      8 + QuorumCert::kMinEncodedBytes + 4 +
      crypto::AggregateSignature::kMinEncodedBytes;

  friend bool operator==(const TimeoutCert&, const TimeoutCert&) = default;
};

}  // namespace sftbft::types
