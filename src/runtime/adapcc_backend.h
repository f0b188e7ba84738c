// AdapCC exposed through the common Backend interface, so benches can sweep
// {NCCL, MSCCL, Blink, AdapCC} uniformly (Figs. 11-14).
#pragma once

#include "baselines/backend.h"
#include "runtime/adapcc.h"

namespace adapcc::runtime {

class AdapccBackend : public baselines::Backend {
 public:
  explicit AdapccBackend(topology::Cluster& cluster, AdapccConfig config = {})
      : cluster_(cluster), adapcc_(cluster, std::move(config)) {}

  std::string name() const override { return "adapcc"; }

  collective::CollectiveResult run(collective::Primitive primitive,
                                   const std::vector<int>& participants, Bytes tensor_bytes,
                                   collective::CollectiveOptions options = {}) override {
    collective::Executor executor(cluster_, plan(primitive, participants, tensor_bytes));
    return executor.run(tensor_bytes, std::move(options));
  }

  collective::Strategy plan(collective::Primitive primitive,
                            const std::vector<int>& participants, Bytes tensor_bytes) override {
    ensure_init();
    return adapcc_.synthesize(primitive, participants, tensor_bytes);
  }

  Adapcc& adapcc() {
    ensure_init();
    return adapcc_;
  }

 private:
  void ensure_init() {
    if (!adapcc_.initialized()) {
      adapcc_.init();
      adapcc_.setup();
    }
  }

  topology::Cluster& cluster_;
  Adapcc adapcc_;
};

}  // namespace adapcc::runtime
