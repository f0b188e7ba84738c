// Data-loader redistribution (Sec. IV-C-2).
//
// After fault recovery the coordinator notifies the remaining workers' data
// loaders to repartition the training data so the *global* batch size stays
// constant for the whole run — the invariant that keeps training statistics
// unchanged when workers are excluded.
#pragma once

#include <stdexcept>
#include <vector>

#include "collective/rank_map.h"
#include "collective/rank_set.h"

namespace adapcc::relay {

class DataLoader {
 public:
  DataLoader(int global_batch_size, std::vector<int> workers);

  /// Removes `failed` workers and re-splits the global batch among the rest.
  void redistribute(const collective::RankSet& failed);

  /// Re-admission path (pairs with Adapcc::include_workers): adds
  /// `recovered` workers back and re-splits the same global batch across the
  /// enlarged group, so participants and loader shards cannot diverge after
  /// a recovery. Workers already present are ignored; the global batch size
  /// is preserved exactly.
  void readmit(const collective::RankSet& recovered);

  int batch_of(int worker) const;
  int global_batch_size() const noexcept { return global_batch_; }
  const std::vector<int>& workers() const noexcept { return workers_; }

 private:
  void split();

  int global_batch_;
  std::vector<int> workers_;
  collective::RankMap<int> batch_of_;
};

}  // namespace adapcc::relay
