// Shape pinning: every baseline plan and every synthesizer candidate keeps
// exactly the graph it had when these hashes were captured. The literals are
// FNV-1a-64 hashes of Strategy::fingerprint() (baselines) and of sorted
// (child, parent) edge lists (candidates); a change to how any graph is
// assembled moves one of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/backend.h"
#include "profiler/profiler.h"
#include "synthesizer/synthesizer.h"
#include "topology/detector.h"
#include "topology/testbeds.h"
#include "util/rng.h"

namespace adapcc {
namespace {

using collective::Primitive;
using topology::NodeId;

constexpr Primitive kTreePrimitives[] = {Primitive::kReduce, Primitive::kBroadcast,
                                         Primitive::kAllReduce, Primitive::kAllGather,
                                         Primitive::kReduceScatter};

struct Fnv1a {
  std::uint64_t hash = 14695981039346656037ull;
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
  }
};

std::vector<int> ranks_of(const topology::Cluster& cluster, bool subset) {
  // The subset drops every rank with local index 0 or 3, so heads move off
  // the NIC-proximal GPU and some chains shrink, and it still spans every
  // instance.
  std::vector<int> ranks;
  for (int r = 0; r < cluster.world_size(); ++r) {
    const int local = cluster.local_index(r);
    if (!subset || (local != 0 && local != 3)) ranks.push_back(r);
  }
  return ranks;
}

std::vector<topology::InstanceSpec> testbed(std::string_view name) {
  if (name == "heter") return topology::heter_testbed();
  if (name == "homo") return topology::homo_testbed();
  return {topology::interleaved_a100_server("interleaved"),
          topology::fragmented_a100_server("fragmented"), topology::v100_server("v100")};
}

TEST(ShapeTest, BaselinePlansKeepTheirShape) {
  struct Case {
    const char* testbed;
    bool subset;
    std::uint64_t nccl;
    std::uint64_t msccl;
    std::uint64_t blink;
  };
  const Case cases[] = {
      {"heter", false, 0x430189200d6a37a4ull, 0xea9864b216e6ecdeull, 0xc417aa808f71d919ull},
      {"heter", true, 0xa5b039c95fc2bf45ull, 0x0d6f210d6f3f378dull, 0x07ed43e58c95ba88ull},
      {"homo", false, 0x45279099a688ba7cull, 0xea9864b216e6ecdeull, 0x619e97692fcdeaf9ull},
      {"homo", true, 0x44d31cb59662bee2ull, 0x0d6f210d6f3f378dull, 0x340009e3d8dd26f9ull},
      {"fragmented", false, 0x4531a924644a5bc1ull, 0x7f73b2758d660ceeull, 0x87b25aaf0d9d7532ull},
      {"fragmented", true, 0x24bf9b6272e732c6ull, 0x356792649bd1859cull, 0x4b2edd46d956b539ull},
  };
  for (const Case& c : cases) {
    sim::Simulator sim;
    topology::Cluster cluster(sim, testbed(c.testbed));
    baselines::NcclBackend nccl(cluster);
    baselines::MscclBackend msccl(cluster);
    baselines::BlinkBackend blink(cluster);
    const std::vector<int> ranks = ranks_of(cluster, c.subset);
    const auto hash_plans = [&](baselines::Backend& backend) {
      Fnv1a fnv;
      for (const Primitive primitive : kTreePrimitives) {
        fnv.add(backend.plan(primitive, ranks, megabytes(64)).fingerprint());
      }
      return fnv.hash;
    };
    const std::string label = std::string(c.testbed) + (c.subset ? " subset" : " all");
    EXPECT_EQ(hash_plans(nccl), c.nccl) << label;
    EXPECT_EQ(hash_plans(msccl), c.msccl) << label;
    EXPECT_EQ(hash_plans(blink), c.blink) << label;
  }
}

TEST(ShapeTest, CandidateTreesKeepTheirShape) {
  sim::Simulator sim;
  topology::Cluster cluster(sim, topology::heter_testbed());
  topology::Detector detector(cluster, util::Rng(3));
  auto topo = topology::Detector::build_logical_topology(cluster, detector.detect());
  profiler::Profiler profiler(cluster);
  profiler.profile(topo);
  const synthesizer::Synthesizer synth(cluster, topo);

  struct Case {
    bool subset;
    int forced_root;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {false, -1, 0xd65cf929b13d7eddull}, {false, 0, 0x2e12db09d428ba6full},
      {false, 9, 0x9edfe48f69c414e5ull},  {true, -1, 0xfc7955aa4c6fba25ull},
      {true, 6, 0x155cb352c41998dbull},
  };
  for (const Case& c : cases) {
    Fnv1a fnv;
    for (const auto& candidate :
         synth.candidate_trees(ranks_of(cluster, c.subset), c.forced_root)) {
      fnv.add("root=");
      fnv.add(to_string(candidate.root()));
      for (const auto& [child, parent] : candidate.edges()) {  // ascending by child
        fnv.add(" ");
        fnv.add(to_string(child));
        fnv.add("->");
        fnv.add(to_string(parent));
      }
      fnv.add("\n");
    }
    const std::string label =
        std::string(c.subset ? "subset" : "all") + " root=" + std::to_string(c.forced_root);
    EXPECT_EQ(fnv.hash, c.hash) << label;
  }
}

}  // namespace
}  // namespace adapcc
