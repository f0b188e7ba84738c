#include "training/synthetic_sgd.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "collective/rank_set.h"

namespace adapcc::training {

namespace {

struct Dataset {
  int features;
  int classes;
  std::vector<float> x;   // row-major [samples][features]
  std::vector<int> y;
  int samples() const { return static_cast<int>(y.size()); }
};

std::vector<float> make_centers(int features, int classes, util::Rng& rng) {
  std::vector<float> centers(static_cast<std::size_t>(classes * features));
  for (auto& c : centers) c = static_cast<float>(rng.normal(0.0, 0.30));
  return centers;
}

Dataset make_dataset(int samples, int features, int classes,
                     const std::vector<float>& centers, util::Rng& rng) {
  // Gaussian class clusters: separable but noisy.
  Dataset data;
  data.features = features;
  data.classes = classes;
  data.x.resize(static_cast<std::size_t>(samples) * features);
  data.y.resize(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const int label = static_cast<int>(rng.uniform_int(0, classes - 1));
    data.y[static_cast<std::size_t>(i)] = label;
    for (int f = 0; f < features; ++f) {
      data.x[static_cast<std::size_t>(i) * features + f] =
          centers[static_cast<std::size_t>(label * features + f)] +
          static_cast<float>(rng.normal(0.0, 1.0));
    }
  }
  return data;
}

/// Class-skewed shards: worker w draws `shard_skew` of its samples from its
/// home classes (w mod classes and neighbours) and the rest uniformly.
std::vector<std::vector<int>> shard_indices(const Dataset& data, int workers, double skew,
                                            util::Rng& rng) {
  std::vector<std::vector<int>> by_class(static_cast<std::size_t>(data.classes));
  for (int i = 0; i < data.samples(); ++i) {
    by_class[static_cast<std::size_t>(data.y[static_cast<std::size_t>(i)])].push_back(i);
  }
  std::vector<std::vector<int>> shards(static_cast<std::size_t>(workers));
  const int per_worker = data.samples() / workers;
  std::vector<std::size_t> class_cursor(static_cast<std::size_t>(data.classes), 0);
  for (int w = 0; w < workers; ++w) {
    auto& shard = shards[static_cast<std::size_t>(w)];
    for (int i = 0; i < per_worker; ++i) {
      const bool home = rng.bernoulli(skew);
      const int cls = home ? w % data.classes
                           : static_cast<int>(rng.uniform_int(0, data.classes - 1));
      auto& cursor = class_cursor[static_cast<std::size_t>(cls)];
      const auto& pool = by_class[static_cast<std::size_t>(cls)];
      if (pool.empty()) continue;
      shard.push_back(pool[cursor % pool.size()]);
      ++cursor;
    }
  }
  return shards;
}

class LogisticModel {
 public:
  LogisticModel(int features, int classes)
      : features_(features), classes_(classes),
        w_(static_cast<std::size_t>(classes) * (features + 1), 0.0f) {}

  /// Gradient of the cross-entropy over `batch` sample indices; float32
  /// accumulation so aggregation-order effects are realistic.
  std::vector<float> gradient(const Dataset& data, const std::vector<int>& batch) const {
    std::vector<float> grad(w_.size(), 0.0f);
    std::vector<float> logits(static_cast<std::size_t>(classes_));
    for (const int index : batch) {
      const float* x = &data.x[static_cast<std::size_t>(index) * features_];
      forward(x, logits.data());
      const int label = data.y[static_cast<std::size_t>(index)];
      for (int c = 0; c < classes_; ++c) {
        const float err =
            logits[static_cast<std::size_t>(c)] - (c == label ? 1.0f : 0.0f);
        float* g = &grad[static_cast<std::size_t>(c) * (features_ + 1)];
        for (int f = 0; f < features_; ++f) g[f] += err * x[f];
        g[features_] += err;  // bias
      }
    }
    const float inv = 1.0f / static_cast<float>(batch.size());
    for (auto& g : grad) g *= inv;
    return grad;
  }

  void apply(const std::vector<float>& grad, float lr) {
    for (std::size_t i = 0; i < w_.size(); ++i) w_[i] -= lr * grad[i];
  }

  double accuracy(const Dataset& data) const {
    std::vector<float> logits(static_cast<std::size_t>(classes_));
    int correct = 0;
    for (int i = 0; i < data.samples(); ++i) {
      forward(&data.x[static_cast<std::size_t>(i) * features_], logits.data());
      const auto best = std::max_element(logits.begin(), logits.end());
      if (static_cast<int>(best - logits.begin()) == data.y[static_cast<std::size_t>(i)]) {
        ++correct;
      }
    }
    return static_cast<double>(correct) / data.samples();
  }

  std::size_t size() const { return w_.size(); }

 private:
  void forward(const float* x, float* probs) const {
    float max_logit = -1e30f;
    for (int c = 0; c < classes_; ++c) {
      const float* wc = &w_[static_cast<std::size_t>(c) * (features_ + 1)];
      float z = wc[features_];
      for (int f = 0; f < features_; ++f) z += wc[f] * x[f];
      probs[c] = z;
      max_logit = std::max(max_logit, z);
    }
    float sum = 0.0f;
    for (int c = 0; c < classes_; ++c) {
      probs[c] = std::exp(probs[c] - max_logit);
      sum += probs[c];
    }
    for (int c = 0; c < classes_; ++c) probs[c] /= sum;
  }

  int features_;
  int classes_;
  std::vector<float> w_;
};

}  // namespace

std::string to_string(AggregationMode mode) {
  switch (mode) {
    case AggregationMode::kFullSync: return "nccl-full-sync";
    case AggregationMode::kPhase1Phase2: return "adapcc-phase1+2";
    case AggregationMode::kRelayAsync: return "relay-async";
    case AggregationMode::kShuffledOrder: return "adapcc-nccl-graph";
  }
  return "?";
}

AccuracyCurve train_synthetic_sgd(AggregationMode mode, const SgdConfig& config) {
  if (config.workers < 2) throw std::invalid_argument("synthetic sgd: < 2 workers");
  util::Rng data_rng(config.seed);
  const auto centers = make_centers(config.features, config.classes, data_rng);
  const Dataset train = make_dataset(config.train_samples, config.features, config.classes,
                                     centers, data_rng);
  const Dataset test = make_dataset(config.test_samples, config.features, config.classes,
                                    centers, data_rng);
  const auto shards = shard_indices(train, config.workers, config.shard_skew, data_rng);

  // Separate stream for straggler/batch draws so every mode sees the same
  // sequence of late workers and minibatches.
  util::Rng run_rng(config.seed ^ 0xabcdef12345ull);
  LogisticModel model(config.features, config.classes);
  AccuracyCurve curve;

  for (int iteration = 0; iteration < config.iterations; ++iteration) {
    // Per-worker gradients.
    std::vector<std::vector<float>> gradients;
    collective::RankSet late;
    for (int w = 0; w < config.workers; ++w) {
      const auto& shard = shards[static_cast<std::size_t>(w)];
      std::vector<int> batch;
      for (int b = 0; b < config.local_batch; ++b) {
        batch.push_back(
            shard[static_cast<std::size_t>(run_rng.uniform_int(0, static_cast<std::int64_t>(shard.size()) - 1))]);
      }
      gradients.push_back(model.gradient(train, batch));
      const bool chronic =
          w < static_cast<int>(config.chronic_fraction * config.workers + 0.5);
      const double p =
          chronic ? config.straggler_probability : config.background_probability;
      if (run_rng.bernoulli(p)) late.insert(w);
    }
    if (static_cast<int>(late.size()) == config.workers) late = {};  // someone must be ready

    // Aggregate according to the mode.
    std::vector<float> aggregate(model.size(), 0.0f);
    int contributors = 0;
    const auto add = [&](int w) {
      const auto& g = gradients[static_cast<std::size_t>(w)];
      for (std::size_t i = 0; i < aggregate.size(); ++i) aggregate[i] += g[i];
      ++contributors;
    };
    switch (mode) {
      case AggregationMode::kFullSync:
        for (int w = 0; w < config.workers; ++w) add(w);
        break;
      case AggregationMode::kPhase1Phase2:
        // Phase 1: ready workers in rank order; phase 2: late ones after.
        for (int w = 0; w < config.workers; ++w) {
          if (!late.contains(w)) add(w);
        }
        for (const int w : late) add(w);
        break;
      case AggregationMode::kRelayAsync:
        for (int w = 0; w < config.workers; ++w) {
          if (!late.contains(w)) add(w);
        }
        break;
      case AggregationMode::kShuffledOrder: {
        std::vector<int> order(static_cast<std::size_t>(config.workers));
        std::iota(order.begin(), order.end(), 0);
        std::shuffle(order.begin(), order.end(), run_rng.engine());
        for (const int w : order) add(w);
        break;
      }
    }
    const float inv = 1.0f / static_cast<float>(contributors);
    for (auto& g : aggregate) g *= inv;
    model.apply(aggregate, config.learning_rate);

    if (iteration % config.eval_every == 0 || iteration + 1 == config.iterations) {
      curve.iteration.push_back(iteration);
      curve.accuracy.push_back(model.accuracy(test));
    }
  }
  return curve;
}

}  // namespace adapcc::training
