#include "profiler/trace.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace adapcc::profiler {

BandwidthTrace::BandwidthTrace(std::vector<TraceSample> samples) : samples_(std::move(samples)) {
  if (samples_.empty()) throw std::invalid_argument("BandwidthTrace: empty");
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    if (samples_[i].time <= samples_[i - 1].time) {
      throw std::invalid_argument("BandwidthTrace: non-increasing timestamps");
    }
  }
}

BandwidthTrace BandwidthTrace::synthetic_cloud(Seconds duration, Seconds period,
                                               std::uint64_t seed) {
  if (duration <= 0 || period <= 0) throw std::invalid_argument("synthetic_cloud: bad params");
  util::Rng rng(seed);
  std::vector<TraceSample> samples;
  // Cross-traffic dips arrive sporadically and persist for a few samples.
  double dip_depth = 0.0;
  int dip_remaining = 0;
  double walk = 0.0;  // slow AR(1) jitter around the diurnal baseline
  for (Seconds t = 0; t < duration; t += period) {
    const double phase = 2.0 * 3.14159265358979 * t / duration;
    // Diurnal drift: up to ~18% drop at the trough.
    const double diurnal = 0.09 * (1.0 - std::cos(phase));
    walk = 0.9 * walk + rng.normal(0.0, 0.01);
    if (dip_remaining == 0 && rng.bernoulli(0.04)) {
      dip_depth = rng.uniform(0.05, 0.18);
      dip_remaining = static_cast<int>(rng.uniform_int(2, 8));
    }
    double dip = 0.0;
    if (dip_remaining > 0) {
      dip = dip_depth;
      --dip_remaining;
    }
    const double fraction = std::clamp(1.0 - diurnal - dip + walk, 0.60, 1.0);
    // Latency degrades as bandwidth headroom shrinks; at the paper's worst
    // case (-34% bandwidth) this yields ~ +17% latency.
    const double latency = 1.0 + 0.5 * (1.0 - fraction) + std::abs(rng.normal(0.0, 0.01));
    samples.push_back(TraceSample{t, fraction, latency});
  }
  return BandwidthTrace(std::move(samples));
}

BandwidthTrace BandwidthTrace::amplified(double x) const {
  if (x < 0) throw std::invalid_argument("amplified: negative factor");
  std::vector<TraceSample> out = samples_;
  for (std::size_t i = 1; i < out.size(); ++i) {
    const double prev = samples_[i - 1].bandwidth_fraction;
    const double cur = samples_[i].bandwidth_fraction;
    // A drop is scaled to (1-x) of its value, a rise to (1+x) (Sec. VI-D).
    const double scaled = cur < prev ? cur * (1.0 - x) : cur * (1.0 + x);
    out[i].bandwidth_fraction = std::clamp(scaled, 0.05, 1.0);
    out[i].latency_factor = 1.0 + 0.5 * (1.0 - out[i].bandwidth_fraction);
  }
  return BandwidthTrace(std::move(out));
}

Seconds BandwidthTrace::duration() const noexcept {
  // Assume uniform spacing for the wrap-around period.
  if (samples_.size() < 2) return samples_.back().time + 1.0;
  const Seconds period = samples_[1].time - samples_[0].time;
  return samples_.back().time + period;
}

namespace {
std::size_t sample_index_at(const std::vector<TraceSample>& samples, Seconds wrapped) {
  // Last sample with time <= wrapped (step interpolation).
  std::size_t lo = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].time <= wrapped) lo = i;
    else break;
  }
  return lo;
}
}  // namespace

double BandwidthTrace::bandwidth_fraction_at(Seconds t) const {
  const Seconds wrapped = std::fmod(std::max(0.0, t), duration());
  return samples_[sample_index_at(samples_, wrapped)].bandwidth_fraction;
}

double BandwidthTrace::latency_factor_at(Seconds t) const {
  const Seconds wrapped = std::fmod(std::max(0.0, t), duration());
  return samples_[sample_index_at(samples_, wrapped)].latency_factor;
}

TraceShaper::TraceShaper(topology::Cluster& cluster, std::vector<BandwidthTrace> traces)
    : cluster_(cluster), traces_(std::move(traces)) {
  if (static_cast<int>(traces_.size()) > cluster_.instance_count()) {
    throw std::invalid_argument("TraceShaper: more traces than instances");
  }
  pending_.resize(traces_.size());
}

void TraceShaper::start() {
  stopped_ = false;
  for (std::size_t i = 0; i < traces_.size(); ++i) apply(i, 0);
}

void TraceShaper::stop() {
  stopped_ = true;
  for (auto& event : pending_) {
    cluster_.simulator().cancel(event);
    event = sim::EventId{};
  }
  for (std::size_t i = 0; i < traces_.size(); ++i) {
    cluster_.set_nic_capacity_fraction(static_cast<int>(i), 1.0);
  }
}

void TraceShaper::apply(std::size_t instance, std::size_t sample_index) {
  if (stopped_) return;
  const auto& trace = traces_[instance];
  const auto& samples = trace.samples();
  const auto& sample = samples[sample_index % samples.size()];
  cluster_.set_nic_capacity_fraction(static_cast<int>(instance), sample.bandwidth_fraction);
  // Schedule the next sample; wrap around at the end of the trace.
  const Seconds period = trace.duration() / static_cast<double>(samples.size());
  pending_[instance] = cluster_.simulator().schedule_after(
      period, [this, instance, sample_index] { apply(instance, sample_index + 1); });
}

}  // namespace adapcc::profiler
