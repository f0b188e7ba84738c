// Common interface for communication backends (Sec. VI-B).
//
// Every system under evaluation — AdapCC and the three baselines — executes
// through the same simulator and Executor, differing only in the strategies
// it builds (and, for Blink, in its lack of cross-stage pipelining). Benches
// iterate over Backend* to produce the per-system bars of Figs. 11-14.
// Backend::run executes plan() on the backend's cluster; only the staged
// BlinkBackend overrides it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "collective/executor.h"
#include "collective/primitive.h"
#include "topology/cluster.h"

namespace adapcc::baselines {

class Backend {
 public:
  virtual ~Backend() = default;

  virtual std::string name() const = 0;

  /// Runs one collective among `participants` with `tensor_bytes` per GPU;
  /// blocks (in simulated time) until completion. Executes plan() on the
  /// cluster the backend was built with.
  virtual collective::CollectiveResult run(collective::Primitive primitive,
                                           const std::vector<int>& participants,
                                           Bytes tensor_bytes,
                                           collective::CollectiveOptions options = {});

  /// The strategy the backend would execute (for inspection/ablation). May
  /// be empty for staged backends whose execution is not a single strategy.
  virtual collective::Strategy plan(collective::Primitive primitive,
                                    const std::vector<int>& participants,
                                    Bytes tensor_bytes) = 0;

 protected:
  explicit Backend(topology::Cluster& cluster) : cluster_(&cluster) {}
  /// For a decorator that forwards run() to another backend and so holds no
  /// cluster of its own; the base run() throws std::logic_error for it.
  Backend() = default;

  topology::Cluster& cluster() const;

 private:
  topology::Cluster* cluster_ = nullptr;
};

/// NCCL v2.14 model (Sec. VI-B/VI-C): rank-ordered intra-server chain onto
/// the GPU nearest the NIC (one channel), binary tree over servers in index
/// order with empirically assumed homogeneous bandwidth, fixed pipeline
/// slices, AllToAll via point-to-point send/recv. No profiling: the tree
/// ignores actual link speeds, which is what makes the slowest NIC the
/// bottleneck in heterogeneous settings.
class NcclBackend : public Backend {
 public:
  explicit NcclBackend(topology::Cluster& cluster) : Backend(cluster) {}
  std::string name() const override { return "nccl"; }
  collective::Strategy plan(collective::Primitive primitive,
                            const std::vector<int>& participants, Bytes tensor_bytes) override;
};

/// MSCCL model: pareto-optimal SCCL-style algorithms with two parallel
/// channels, but sketches designed for DGX-like boxes — rank-ordered
/// structure, fixed chunk size, no awareness of measured link properties.
class MscclBackend : public Backend {
 public:
  explicit MscclBackend(topology::Cluster& cluster) : Backend(cluster) {}
  std::string name() const override { return "msccl"; }
  collective::Strategy plan(collective::Primitive primitive,
                            const std::vector<int>& participants, Bytes tensor_bytes) override;
};

/// Blink model: topology-aware intra-server spanning trees, NCCL-style
/// inter-server aggregation, 8 MB empirical chunks — and, crucially, the
/// intra- and inter-server stages are NOT pipelined (Sec. VI-C), so each
/// stage runs to completion before the next starts.
class BlinkBackend : public Backend {
 public:
  explicit BlinkBackend(topology::Cluster& cluster) : Backend(cluster) {}
  std::string name() const override { return "blink"; }
  collective::CollectiveResult run(collective::Primitive primitive,
                                   const std::vector<int>& participants, Bytes tensor_bytes,
                                   collective::CollectiveOptions options = {}) override;
  collective::Strategy plan(collective::Primitive primitive,
                            const std::vector<int>& participants, Bytes tensor_bytes) override;

  /// Blink does not support multi-server AllToAll (Sec. VI-C).
  static bool supports(collective::Primitive primitive);
};

}  // namespace adapcc::baselines
