#include "relay/data_loader.h"

#include <algorithm>

namespace adapcc::relay {

DataLoader::DataLoader(int global_batch_size, std::vector<int> workers)
    : global_batch_(global_batch_size), workers_(std::move(workers)) {
  if (global_batch_ <= 0) throw std::invalid_argument("DataLoader: non-positive batch");
  if (workers_.empty()) throw std::invalid_argument("DataLoader: no workers");
  std::sort(workers_.begin(), workers_.end());
  split();
}

void DataLoader::redistribute(const collective::RankSet& failed) {
  collective::RankSet remaining(workers_);
  remaining -= failed;
  if (remaining.empty()) throw std::invalid_argument("DataLoader: all workers failed");
  workers_.assign(remaining.begin(), remaining.end());
  split();
}

void DataLoader::readmit(const collective::RankSet& recovered) {
  collective::RankSet members(workers_);
  members |= recovered;
  if (members.size() == workers_.size()) return;
  workers_.assign(members.begin(), members.end());
  split();
}

int DataLoader::batch_of(int worker) const { return batch_of_.at(worker); }

void DataLoader::split() {
  batch_of_.clear();
  const int n = static_cast<int>(workers_.size());
  const int base = global_batch_ / n;
  int remainder = global_batch_ % n;
  for (const int w : workers_) {
    batch_of_[w] = base + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
  }
}

}  // namespace adapcc::relay
