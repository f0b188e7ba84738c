// AdapCC exposed through the common Backend interface, so benches can sweep
// {NCCL, MSCCL, Blink, AdapCC} uniformly (Figs. 11-14).
#pragma once

#include "baselines/backend.h"
#include "runtime/adapcc.h"

namespace adapcc::runtime {

class AdapccBackend : public baselines::Backend {
 public:
  explicit AdapccBackend(topology::Cluster& cluster, AdapccConfig config = {})
      : Backend(cluster), adapcc_(cluster, std::move(config)) {}

  std::string name() const override { return "adapcc"; }

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

  Adapcc adapcc_;
};

}  // namespace adapcc::runtime
