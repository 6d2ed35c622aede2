#include "model/shard_partition.h"

#include <algorithm>
#include <numeric>

namespace veritas {

ShardPartition::ShardPartition(const CompiledDatabase& compiled,
                               std::size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  epoch_ = compiled.epoch();
  const std::size_t n = compiled.num_items();

  std::vector<std::uint32_t> votes(n, 0);
  for (ItemId i = 0; i < n; ++i) {
    votes[i] = compiled.item_votes_end(i) - compiled.item_votes_begin(i);
  }

  // LPT greedy: heaviest item first into the lightest shard. Sorting by
  // (votes desc, id asc) and breaking weight ties by lowest shard index makes
  // the whole construction a pure function of the compiled view.
  std::vector<ItemId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](ItemId a, ItemId b) {
    if (votes[a] != votes[b]) return votes[a] > votes[b];
    return a < b;
  });

  shard_of_.assign(n, 0);
  items_.assign(num_shards, {});
  weights_.assign(num_shards, 0);
  for (const ItemId i : order) {
    std::size_t lightest = 0;
    for (std::size_t s = 1; s < num_shards; ++s) {
      if (weights_[s] < weights_[lightest]) lightest = s;
    }
    shard_of_[i] = static_cast<std::uint32_t>(lightest);
    items_[lightest].push_back(i);
    weights_[lightest] += votes[i];
  }
  for (std::vector<ItemId>& shard_items : items_) {
    std::sort(shard_items.begin(), shard_items.end());
  }

  // Conflict (multi-claim) items per shard, ascending. Single-claim items
  // can never re-enter a propagation frontier, so a shard-confined ripple
  // only ever needs this (usually far smaller) list — it is the enrollment
  // fast path of a confined lookahead (fusion/delta_fusion.h ItemScope).
  conflict_items_.assign(num_shards, {});
  for (std::size_t s = 0; s < num_shards; ++s) {
    for (const ItemId i : items_[s]) {
      if (compiled.item_num_claims(i) > 1) conflict_items_[s].push_back(i);
    }
  }
}

}  // namespace veritas
