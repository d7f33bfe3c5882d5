// Ledger: strength ratcheting, conflict detection, summaries.
#include <gtest/gtest.h>

#include "sftbft/chain/ledger.hpp"

namespace sftbft::chain {
namespace {

using types::Block;

constexpr std::uint64_t kTxns = 10;  // transactions per test block

Block block_at(Height height, Round round) {
  Block block;
  block.round = round;
  block.height = height;
  block.payload.txns.resize(kTxns);
  block.created_at = static_cast<SimTime>(round) * 100;
  block.seal();
  return block;
}

TEST(Ledger, FirstCommitIsNew) {
  Ledger ledger;
  const Block b = block_at(1, 1);
  EXPECT_EQ(ledger.commit(b, 1, 500, kTxns), Ledger::CommitResult::New);
  EXPECT_TRUE(ledger.is_committed(1));
  EXPECT_EQ(ledger.at(1).strength, 1u);
  EXPECT_EQ(ledger.at(1).first_committed_at, 500);
  EXPECT_EQ(ledger.at(1).created_at, 100);
  EXPECT_EQ(ledger.committed_txns(), 10u);
}

TEST(Ledger, StrengthRatchetsUpOnly) {
  Ledger ledger;
  const Block b = block_at(1, 1);
  ledger.commit(b, 1, 500, kTxns);
  EXPECT_EQ(ledger.commit(b, 3, 600, kTxns), Ledger::CommitResult::Raised);
  EXPECT_EQ(ledger.at(1).strength, 3u);
  EXPECT_EQ(ledger.at(1).last_strength_update_at, 600);
  EXPECT_EQ(ledger.commit(b, 2, 700, kTxns), Ledger::CommitResult::NoChange);
  EXPECT_EQ(ledger.at(1).strength, 3u);
  EXPECT_EQ(ledger.at(1).first_committed_at, 500);  // unchanged
}

TEST(Ledger, ConflictingCommitThrows) {
  Ledger ledger;
  ledger.commit(block_at(1, 1), 1, 500, kTxns);
  Block conflicting = block_at(1, 2);
  EXPECT_THROW(ledger.commit(conflicting, 1, 600, kTxns), LedgerConflict);
}

TEST(Ledger, GenesisCommitIsNoop) {
  Ledger ledger;
  Block genesis = Block::genesis();
  EXPECT_EQ(ledger.commit(genesis, 1, 0, 0), Ledger::CommitResult::NoChange);
  EXPECT_EQ(ledger.committed_blocks(), 0u);
}

TEST(Ledger, TipAndSnapshot) {
  Ledger ledger;
  EXPECT_FALSE(ledger.tip().has_value());
  ledger.commit(block_at(1, 1), 1, 100, kTxns);
  ledger.commit(block_at(2, 2), 1, 200, kTxns);
  ledger.commit(block_at(3, 3), 1, 300, kTxns);
  EXPECT_EQ(ledger.tip(), 3u);
  const auto snapshot = ledger.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].height, 1u);
  EXPECT_EQ(snapshot[2].height, 3u);
}

TEST(Ledger, OutOfOrderHeightsSupported) {
  // Strong commits apply to a head and ancestors; heights can arrive
  // high-first within one commit walk.
  Ledger ledger;
  ledger.commit(block_at(5, 5), 2, 100, kTxns);
  ledger.commit(block_at(4, 4), 2, 100, kTxns);
  EXPECT_TRUE(ledger.is_committed(5));
  EXPECT_TRUE(ledger.is_committed(4));
  EXPECT_FALSE(ledger.is_committed(3));
  EXPECT_EQ(ledger.tip(), 5u);
}

}  // namespace
}  // namespace sftbft::chain
