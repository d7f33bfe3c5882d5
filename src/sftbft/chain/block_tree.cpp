#include "sftbft/chain/block_tree.hpp"

#include <algorithm>
#include <cassert>

namespace sftbft::chain {

BlockTree::BlockTree(Block genesis_block) {
  assert(genesis_block.round == 0 && genesis_block.height == 0);
  genesis_id_ = genesis_block.id;
  auto node = std::make_unique<Node>();
  node->block = std::move(genesis_block);
  nodes_.emplace(genesis_id_, std::move(node));
}

BlockTree BlockTree::rooted_at(Block root) {
  BlockTree tree;
  tree.nodes_.clear();
  tree.genesis_id_ = root.id;
  auto node = std::make_unique<Node>();
  node->block = std::move(root);
  tree.nodes_.emplace(tree.genesis_id_, std::move(node));
  return tree;
}

const BlockTree::Node* BlockTree::find(const BlockId& id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

bool BlockTree::contains(const BlockId& id) const { return find(id) != nullptr; }

const Block* BlockTree::get(const BlockId& id) const {
  const Node* node = find(id);
  return node ? &node->block : nullptr;
}

std::size_t BlockTree::orphan_count() const {
  std::size_t count = 0;
  for (const auto& [parent, blocks] : orphans_) count += blocks.size();
  return count;
}

BlockTree::InsertResult BlockTree::insert(const Block& block) {
  if (contains(block.id)) return InsertResult::Duplicate;
  auto parent_it = nodes_.find(block.parent_id);
  if (parent_it == nodes_.end()) {
    orphans_[block.parent_id].push_back(block);
    return InsertResult::Orphaned;
  }
  return link(block, parent_it->second.get());
}

BlockTree::InsertResult BlockTree::link(const Block& block, Node* parent) {
  // Structural checks: heights chain by one, rounds strictly increase.
  if (block.height != parent->block.height + 1 ||
      block.round <= parent->block.round) {
    return InsertResult::Rejected;
  }
  auto node = std::make_unique<Node>();
  node->block = block;
  node->parent = parent;
  Node* raw = node.get();
  nodes_.emplace(block.id, std::move(node));
  parent->children.push_back(raw);
  adopt_orphans_of(block.id);
  return InsertResult::Inserted;
}

void BlockTree::adopt_orphans_of(const BlockId& parent_id) {
  auto it = orphans_.find(parent_id);
  if (it == orphans_.end()) return;
  const std::vector<Block> waiting = std::move(it->second);
  orphans_.erase(it);
  Node* parent = nodes_.at(parent_id).get();
  for (const Block& block : waiting) {
    if (!contains(block.id)) link(block, parent);
  }
}

bool BlockTree::extends(const BlockId& descendant,
                        const BlockId& ancestor) const {
  const Node* down = find(descendant);
  const Node* up = find(ancestor);
  if (!down || !up) return false;
  // Walk from the deeper node upward to the ancestor's height.
  while (down && down->block.height > up->block.height) down = down->parent;
  return down == up;
}

std::vector<bool> BlockTree::extends_each(
    const BlockId& descendant, std::span<const BlockId> ancestors) const {
  std::vector<bool> out(ancestors.size(), false);
  const Node* down = find(descendant);
  if (!down) return out;
  // Known ancestors, highest first, so the walk only ever moves down.
  std::vector<std::pair<const Node*, std::size_t>> order;
  order.reserve(ancestors.size());
  for (std::size_t i = 0; i < ancestors.size(); ++i) {
    if (const Node* up = find(ancestors[i])) order.emplace_back(up, i);
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.first->block.height > b.first->block.height;
  });
  for (const auto& [up, i] : order) {
    while (down && down->block.height > up->block.height) down = down->parent;
    if (!down) break;
    out[i] = down == up;
  }
  return out;
}

bool BlockTree::conflicts(const BlockId& a, const BlockId& b) const {
  if (!contains(a) || !contains(b)) return false;
  return !extends(a, b) && !extends(b, a);
}

const Block& BlockTree::common_ancestor(const BlockId& a,
                                        const BlockId& b) const {
  const Node* na = find(a);
  const Node* nb = find(b);
  assert(na && nb);
  while (na->block.height > nb->block.height) na = na->parent;
  while (nb->block.height > na->block.height) nb = nb->parent;
  while (na != nb) {
    na = na->parent;
    nb = nb->parent;
    assert(na && nb);
  }
  return na->block;
}

const Block* BlockTree::parent_of(const BlockId& id) const {
  const Node* node = find(id);
  return (node && node->parent) ? &node->parent->block : nullptr;
}

std::vector<const Block*> BlockTree::children_of(const BlockId& id) const {
  std::vector<const Block*> out;
  if (const Node* node = find(id)) {
    out.reserve(node->children.size());
    for (const Node* child : node->children) out.push_back(&child->block);
  }
  return out;
}

std::vector<const Block*> BlockTree::path(const BlockId& ancestor,
                                          const BlockId& descendant) const {
  std::vector<const Block*> out;
  const Node* down = find(descendant);
  const Node* up = find(ancestor);
  if (!down || !up) return out;
  while (down && down != up) {
    out.push_back(&down->block);
    down = down->parent;
  }
  if (down != up) return {};  // not on one chain
  std::reverse(out.begin(), out.end());
  return out;
}

std::optional<std::pair<const Block*, const Block*>>
BlockTree::three_chain_from(const BlockId& id) const {
  const Node* node = find(id);
  if (!node) return std::nullopt;
  for (const Node* c1 : node->children) {
    if (c1->block.round != node->block.round + 1) continue;
    for (const Node* c2 : c1->children) {
      if (c2->block.round == c1->block.round + 1) {
        return std::make_pair(&c1->block, &c2->block);
      }
    }
  }
  return std::nullopt;
}

std::vector<const Block*> BlockTree::all_blocks() const {
  std::vector<const Block*> out;
  out.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) out.push_back(&node->block);
  return out;
}

}  // namespace sftbft::chain
