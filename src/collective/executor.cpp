#include "collective/executor.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <list>
#include <stdexcept>

#include "collective/behavior.h"
#include "sim/edge_channel.h"
#include "sim/gpu_stream.h"
#include "telemetry/telemetry.h"
#include "util/audit.h"
#include "util/logging.h"

namespace adapcc::collective {

namespace {

/// Number of chunks for `bytes` under chunk size `chunk`.
int chunk_count(Bytes bytes, Bytes chunk) {
  if (bytes == 0) return 0;
  return static_cast<int>((bytes + chunk - 1) / chunk);
}

Bytes bytes_of_chunk(Bytes total, Bytes chunk, int index) {
  const Bytes offset = chunk * static_cast<Bytes>(index);
  return std::min<Bytes>(chunk, total - offset);
}

}  // namespace

// ---------------------------------------------------------------------------
// Invocation: the state of one in-flight collective.
// ---------------------------------------------------------------------------

class Executor::Invocation {
 public:
  Invocation(topology::Cluster& cluster, const Strategy& strategy, Bytes tensor_bytes,
             CollectiveOptions options, std::function<void(CollectiveResult&&)> on_complete,
             std::function<void()> on_idle)
      : cluster_(cluster),
        sim_(cluster.simulator()),
        strategy_(strategy),
        tensor_bytes_(tensor_bytes),
        options_(std::move(options)),
        on_complete_(std::move(on_complete)),
        on_idle_(std::move(on_idle)) {
    if (options_.active_ranks.empty()) options_.active_ranks = RankSet(strategy_.participants);
    for (const int rank : options_.active_ranks) {
      if (rank >= kMaxRanks) throw std::invalid_argument("Invocation: rank out of range");
    }
    // A NaN time would read as "ready now" and "never dies".
    for (const auto* times : {&options_.ready_at, &options_.fill_start, &options_.dead_at}) {
      for (const auto& [rank, t] : *times) {
        if (std::isnan(t)) {
          throw std::invalid_argument("Invocation: NaN time for rank " + std::to_string(rank));
        }
      }
    }
  }

  void start() {
    result_.started = sim_.now();
    if (auto* t = telemetry::get()) {
      tel_session_ = telemetry::epoch();
      t->trace().track("executor");  // interned at start: tracks keep first-use order
    }
    for (std::size_t s = 0; s < strategy_.subs.size(); ++s) build_sub(static_cast<int>(s));
    if (outstanding_ == 0) {
      // Degenerate (e.g. zero-byte tensor): complete immediately.
      finish();
    } else {
      if (options_.watchdog_timeout > 0) {
        watchdog_event_ =
            sim_.schedule_after(options_.watchdog_timeout, [this] { on_watchdog(); });
      }
      for (auto& sub : subs_) launch_sub(*sub);
    }
  }

  ~Invocation() {
    // Normal teardown happens via on_idle_ with every event drained; on the
    // abort path (and defensive destruction) pending events capturing `this`
    // must be disarmed first (streams disarm their own).
    sim_.cancel(watchdog_event_);
    for (const sim::EventId& id : op_events_) sim_.cancel(id);
  }

 private:
  struct SubRun;

  /// One tree node of one sub. Per-chunk callbacks capture a NodeState*
  /// alone (its sub, parent and children are linked here), which keeps every
  /// capture inside InlineCallback's buffer and the hop free of map lookups.
  struct NodeState {
    NodeId id;
    SubRun* run = nullptr;
    BehaviorTuple behavior;
    bool accumulates = false;  ///< gathers all inputs before forwarding
    int inputs_per_chunk = 0;  ///< reduce-direction messages expected per chunk
    std::vector<int> received;
    std::vector<ChunkMessage> acc;
    sim::EdgeChannel* up = nullptr;  ///< toward parent (reduce direction)
    NodeState* parent = nullptr;     ///< tree parent; null at the root
    std::vector<std::pair<NodeState*, sim::EdgeChannel*>> down;  ///< per child
    sim::GpuStream* stream = nullptr;
    telemetry::TrackId tel_stream_track = telemetry::kInvalidTrack;  ///< lazy
  };

  struct FlowState;

  /// One AllToAll source's flows in send order, at most `limit` in flight.
  struct SourceQueue {
    std::vector<FlowState*> flows;
    std::size_t next = 0;
    std::size_t active = 0;
    std::size_t limit = 0;
  };

  struct FlowState {
    const FlowRoute* route = nullptr;
    std::unique_ptr<sim::EdgeChannel> channel;
    Bytes bytes = 0;
    int chunks = 0;
    int remaining = 0;             ///< chunks not yet delivered once started
    SourceQueue* queue = nullptr;  ///< the source's queue; set at launch
  };

  struct SubRun {
    int index = 0;
    const SubCollective* spec = nullptr;
    Bytes bytes = 0;  ///< S_m
    int chunks = 0;   ///< number of pipelined chunks
    std::vector<NodeState> nodes;  ///< by index in spec->tree.nodes(); sized once
    NodeState* root = nullptr;     ///< nodes[0]
    std::vector<FlowState> flows;
    bool reduce_direction = false;     ///< Reduce / AllReduce / ReduceScatter
    bool broadcast_direction = false;  ///< Broadcast / AllReduce / AllGather
    telemetry::TrackId tel_track = telemetry::kInvalidTrack;  ///< lazy
  };

  /// Incremental fill (Sec. IV-C) of one active rank's local chunks in one
  /// sub. Fill times grow with the chunk index, so only the next chunk's
  /// event is ever pending: each firing arms its successor before
  /// delivering. The heap holds one event per filling rank and sub, not one
  /// per chunk.
  struct FillChain {
    NodeState* node = nullptr;
    Seconds begin = 0.0;
    Seconds end = 0.0;
    Seconds dead = 0.0;  ///< crash time; +inf when the rank never dies
    int next_chunk = 0;
    std::size_t op_slot = 0;  ///< index of the chain's pending event in op_events_
  };

  // --- telemetry ------------------------------------------------------------

  telemetry::TrackId sub_track(SubRun& run) {
    if (run.tel_track == telemetry::kInvalidTrack) {
      run.tel_track =
          telemetry::get()->trace().track("executor/sub" + std::to_string(run.index));
    }
    return run.tel_track;
  }

  telemetry::TrackId stream_track(NodeState& state) {
    if (state.tel_stream_track == telemetry::kInvalidTrack) {
      state.tel_stream_track =
          telemetry::get()->trace().track("stream/" + topology::to_string(state.id));
    }
    return state.tel_stream_track;
  }

  /// The recorder while telemetry stays in the session this invocation
  /// started in, else null: no span (or cached track) crosses a toggle.
  telemetry::TraceRecorder* session_trace() const {
    auto* t = telemetry::get();
    return t != nullptr && telemetry::epoch() == tel_session_ ? &t->trace() : nullptr;
  }

  /// Counts a chunk toward the executor's reported bytes and, when traced,
  /// interns the sub's track now (first-use order). Returns the start time.
  Seconds begin_send(SubRun& run, Bytes bytes) {
    if (auto* t = telemetry::get()) {
      if (tel_epoch_ != telemetry::epoch()) {
        tel_epoch_ = telemetry::epoch();
        tel_bytes_sent_ = &t->metrics().counter("executor.bytes_sent");
        tel_chunks_sent_ = &t->metrics().counter("executor.chunks_sent");
      }
      tel_bytes_sent_->add(static_cast<double>(bytes));
      tel_chunks_sent_->add(1.0);
      if (session_trace() != nullptr) sub_track(run);
    }
    return sim_.now();
  }

  /// Records the span of a send, begun at `start`, that just delivered
  /// `chunk` of a `total`-byte stream.
  void end_send(SubRun& run, NodeId from, NodeId to, int chunk, Bytes total, Seconds start) {
    if (auto* trace = session_trace()) {
      const Bytes bytes = bytes_of_chunk(total, run.spec->chunk_bytes, chunk);
      trace->complete(sub_track(run),
                      "send " + topology::to_string(from) + "->" + topology::to_string(to),
                      start, sim_.now() - start, {{"bytes", bytes}, {"chunk", chunk}});
    }
  }

  // --- construction --------------------------------------------------------

  void build_sub(int index) {
    auto run = std::make_unique<SubRun>();
    run->index = index;
    run->spec = &strategy_.subs[static_cast<std::size_t>(index)];
    run->bytes = static_cast<Bytes>(std::llround(run->spec->fraction *
                                                 static_cast<double>(tensor_bytes_)));

    switch (strategy_.primitive) {
      case Primitive::kReduce:
      case Primitive::kReduceScatter:
        run->reduce_direction = true;
        break;
      case Primitive::kBroadcast:
      case Primitive::kAllGather:
        run->broadcast_direction = true;
        break;
      case Primitive::kAllReduce:
        run->reduce_direction = run->broadcast_direction = true;
        break;
      case Primitive::kAllToAll:
        build_alltoall_sub(*run);
        subs_.push_back(std::move(run));
        return;
    }

    run->chunks = chunk_count(run->bytes, run->spec->chunk_bytes);
    build_tree_sub(*run);
    subs_.push_back(std::move(run));
  }

  void build_tree_sub(SubRun& run) {
    const Tree& tree = run.spec->tree;
    if constexpr (audit::kEnabled) {
      audit_behavior_tuples(*run.spec, strategy_.primitive, options_.active_ranks);
    }
    const auto nodes = tree.nodes();
    const std::vector<BehaviorTuple> behavior =
        derive_behavior(*run.spec, strategy_.primitive, options_.active_ranks);
    // Node states with behavior tuples, root first.
    run.nodes.resize(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      NodeState& state = run.nodes[i];
      state.id = nodes[i];
      state.run = &run;
      state.behavior = behavior[i];
      state.accumulates = state.behavior.has_kernel || i == 0;
      state.received.assign(static_cast<std::size_t>(run.chunks), 0);
      state.acc.assign(static_cast<std::size_t>(run.chunks), ChunkMessage{});
      // A parent outside a malformed tree has index -1, which at() rejects.
      if (i != 0) state.parent = &run.nodes.at(tree.index_of(*tree.parent_of(nodes[i])));
      if (nodes[i].is_gpu() && run.reduce_direction) {
        streams_.push_back(std::make_unique<sim::GpuStream>(sim_));
        state.stream = streams_.back().get();
      }
    }
    run.root = &run.nodes.front();
    compute_inputs(run);
    // Channels: per node its up channel, then its down channels.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      NodeState& state = run.nodes[i];
      if (i != 0 && run.reduce_direction && state.behavior.has_send) {
        channels_.push_back(std::make_unique<sim::EdgeChannel>(
            sim_, cluster_.edge_path(nodes[i], state.parent->id)));
        state.up = channels_.back().get();
      }
      if (run.broadcast_direction) {
        for (const NodeId child : tree.children_of(nodes[i])) {
          channels_.push_back(
              std::make_unique<sim::EdgeChannel>(sim_, cluster_.edge_path(nodes[i], child)));
          state.down.emplace_back(&run.nodes[tree.index_of(child)], channels_.back().get());
        }
      }
    }
    // Deliverable accounting and result sizing.
    if (run.reduce_direction) {
      outstanding_ += run.chunks;  // root completions
    }
    if (run.broadcast_direction) {
      for (const NodeId node : nodes.subspan(1)) {
        if (node.is_gpu() && options_.active_ranks.contains(node.index)) {
          outstanding_ += run.chunks;
        }
      }
    }
    if (run.reduce_direction || run.broadcast_direction) {
      for (const NodeId node : nodes) {
        if (node.is_gpu()) add_delivery_slots(node.index);
      }
    }
  }

  /// Fills inputs_per_chunk, the reduce-direction messages a node receives
  /// per chunk: its own contribution plus what each child emits (one
  /// combined message from an accumulating child, else all it received).
  /// One reverse sweep over the breadth-first order finishes every child
  /// before its parent; nodes the root does not reach keep 0.
  void compute_inputs(SubRun& run) {
    const auto order = run.spec->tree.order();
    const auto up = run.spec->tree.order_parent();
    for (std::size_t i = order.size(); i-- > 0;) {
      NodeState& state = run.nodes[order[i]];
      if (state.behavior.is_active) ++state.inputs_per_chunk;
      if (i == 0 || state.inputs_per_chunk == 0) continue;  // nothing flows through
      run.nodes[order[up[i]]].inputs_per_chunk += state.accumulates ? 1 : state.inputs_per_chunk;
    }
  }

  void build_alltoall_sub(SubRun& run) {
    const int participants = static_cast<int>(strategy_.participants.size());
    if (participants < 2) throw std::invalid_argument("AllToAll needs >= 2 participants");
    // Each GPU's tensor is split across all participants; this sub carries
    // `fraction` of every shard.
    const Bytes shard = tensor_bytes_ / static_cast<Bytes>(participants);
    run.bytes = static_cast<Bytes>(std::llround(run.spec->fraction * static_cast<double>(shard)));
    run.flows.reserve(run.spec->flows.size());
    for (const auto& route : run.spec->flows) {
      FlowState flow;
      flow.route = &route;
      flow.bytes = run.bytes;
      flow.chunks = chunk_count(flow.bytes, run.spec->chunk_bytes);
      // Concatenate the per-edge link paths into one channel path.
      std::vector<sim::FlowLink*> links;
      for (std::size_t i = 0; i + 1 < route.path.size(); ++i) {
        const auto segment = cluster_.edge_path(route.path[i], route.path[i + 1]);
        links.insert(links.end(), segment.begin(), segment.end());
      }
      flow.channel = std::make_unique<sim::EdgeChannel>(sim_, std::move(links));
      outstanding_ += flow.chunks;
      run.flows.push_back(std::move(flow));
      add_delivery_slots(route.src.index);
      add_delivery_slots(route.dst.index);
    }
  }

  /// Sizes `rank`'s delivered values and masks for every sub, NaN and 0 until
  /// filed, unless an earlier sub already did.
  void add_delivery_slots(int rank) {
    if (result_.delivered.contains(rank)) return;
    auto& per_sub = result_.delivered[rank];
    per_sub.resize(strategy_.subs.size());
    auto& per_sub_masks = result_.delivered_masks[rank];
    per_sub_masks.resize(strategy_.subs.size());
    for (std::size_t s = 0; s < strategy_.subs.size(); ++s) {
      const auto& sub = strategy_.subs[s];
      const Bytes sub_bytes = static_cast<Bytes>(
          std::llround(sub.fraction * static_cast<double>(tensor_bytes_)));
      const int chunks = chunk_count(sub_bytes, sub.chunk_bytes);
      per_sub[s].resize(static_cast<std::size_t>(std::max(chunks, 0)),
                        std::numeric_limits<double>::quiet_NaN());
      per_sub_masks[s].resize(static_cast<std::size_t>(std::max(chunks, 0)), 0);
    }
  }

  // --- launch ---------------------------------------------------------------

  Seconds ready_time(int rank) const {
    return std::max(sim_.now(), options_.ready_at.value_or(rank, sim_.now()));
  }

  Seconds death_time(int rank) const {
    return options_.dead_at.value_or(rank, std::numeric_limits<Seconds>::infinity());
  }

  void launch_sub(SubRun& run) {
    if (strategy_.primitive == Primitive::kAllToAll) {
      launch_alltoall(run);
      return;
    }
    if (run.reduce_direction) {
      // Every active GPU contributes its local chunks at its ready time —
      // or progressively while its buffer fills (Sec. IV-C).
      // In ascending NodeId: the root (index 0) goes where it sorts among
      // the others, at index `root_at`.
      const auto nodes = run.spec->tree.nodes();
      const auto root_at = static_cast<std::size_t>(
          std::lower_bound(nodes.begin() + 1, nodes.end(), nodes.front()) - nodes.begin());
      for (std::size_t k = 1; k <= nodes.size(); ++k) {
        NodeState& state = run.nodes[k < root_at ? k : (k == root_at ? 0 : k - 1)];
        if (!state.behavior.is_active) continue;
        const int rank = state.id.index;
        const Seconds dead = death_time(rank);
        if (options_.fill_start.contains(rank) && run.chunks > 0) {
          const Seconds end = ready_time(rank);
          const Seconds begin =
              std::min(std::max(sim_.now(), options_.fill_start.at(rank)), end);
          fills_.push_back(FillChain{&state, begin, end, dead, 0, op_events_.size()});
          op_events_.emplace_back();
          arm_fill(fills_.back());
          continue;
        }
        if (ready_time(rank) > dead) continue;  // crashed before the tensor was ready
        op_events_.push_back(schedule_op(ready_time(rank), [this, &state = state, rank] {
          const SubRun& sub = *state.run;
          for (int c = 0; c < sub.chunks; ++c) {
            on_reduce_input(state, c,
                            ChunkMessage{payload_value(rank, sub.index, c), rank_bit(rank)});
          }
          op_done();
        }));
      }
    } else if (run.broadcast_direction) {
      // Pure broadcast: the root injects its own tensor.
      const int rank = run.spec->tree.root().index;
      if (ready_time(rank) > death_time(rank)) return;  // dead root: watchdog territory
      op_events_.push_back(schedule_op(ready_time(rank), [this, &run, rank] {
        for (int c = 0; c < run.chunks; ++c) {
          inject_broadcast(run, c, ChunkMessage{payload_value(rank, run.index, c), rank_bit(rank)});
        }
        op_done();
      }));
    }
  }

  /// Schedules the chain's next chunk, unless the rank crashes first.
  void arm_fill(FillChain& fill) {
    const int c = fill.next_chunk;
    const Seconds when = fill.begin + (fill.end - fill.begin) * static_cast<double>(c + 1) /
                                          static_cast<double>(fill.node->run->chunks);
    // Mid-collective crash: chunks filled after the crash never appear (the
    // rank contributed a prefix, then died). Fill times grow with c, so the
    // first such chunk ends the chain.
    if (when > fill.dead) return;
    auto fire = [this, &fill] { on_fill(fill); };
    static_assert(sim::InlineCallback::stores_inline<decltype(fire)>());
    op_events_[fill.op_slot] = schedule_op(when, fire);
  }

  void on_fill(FillChain& fill) {
    NodeState& state = *fill.node;
    const int c = fill.next_chunk++;
    if (fill.next_chunk < state.run->chunks) arm_fill(fill);
    const int rank = state.id.index;
    on_reduce_input(state, c,
                    ChunkMessage{payload_value(rank, state.run->index, c), rank_bit(rank)});
    op_done();
  }

  void launch_alltoall(SubRun& run) {
    // Per-source flow queues in listed order, bounded by the strategy's
    // per-source concurrency (NCCL's limited channels vs AdapCC's streams).
    RankMap<std::vector<FlowState*>> by_source;
    for (auto& flow : run.flows) by_source[flow.route->src.index].push_back(&flow);
    for (const auto& [src, flows] : by_source) {
      if (ready_time(src) > death_time(src)) continue;  // crashed source sends nothing
      SourceQueue& queue = queues_.emplace_back();
      queue.flows = flows;
      queue.limit = run.spec->alltoall_concurrency > 0
                        ? static_cast<std::size_t>(run.spec->alltoall_concurrency)
                        : flows.size();
      for (FlowState* flow : flows) flow->queue = &queue;
      op_events_.push_back(schedule_op(ready_time(src), [this, &run, &queue] {
        start_flows(run, queue);
        op_done();
      }));
    }
  }

  /// Starts the source's next flows while it is below its concurrency bound.
  void start_flows(SubRun& run, SourceQueue& queue) {
    while (queue.active < queue.limit && queue.next < queue.flows.size()) {
      FlowState& flow = *queue.flows[queue.next++];
      if (flow.chunks > 0) start_flow(run, flow);  // zero chunks: degenerate tensor
    }
  }

  void start_flow(SubRun& run, FlowState& flow) {
    ++flow.queue->active;
    flow.remaining = flow.chunks;
    const int src = flow.route->src.index;
    const int dst = flow.route->dst.index;
    flow.channel->reserve(static_cast<std::size_t>(flow.chunks));
    for (int c = 0; c < flow.chunks; ++c) {
      const Bytes bytes = bytes_of_chunk(flow.bytes, run.spec->chunk_bytes, c);
      const double value = alltoall_value(src, dst, run.index, c);
      const Seconds start = begin_send(run, bytes);
      ++pending_ops_;
      auto on_delivered = [this, &run, &flow, c, value, start] {
        end_send(run, flow.route->src, flow.route->dst, c, flow.bytes, start);
        record_alltoall(flow, c, value);
        complete_deliverable();
        if (--flow.remaining == 0) {
          --flow.queue->active;
          start_flows(run, *flow.queue);
        }
        op_done();
      };
      static_assert(sim::InlineCallback::stores_inline<decltype(on_delivered)>());
      flow.channel->send(bytes, on_delivered);
    }
  }

  // --- reduce direction -----------------------------------------------------

  void on_reduce_input(NodeState& state, int chunk, ChunkMessage message) {
    if (state.accumulates) {
      auto& acc = state.acc[static_cast<std::size_t>(chunk)];
      acc.value += message.value;
      acc.mask |= message.mask;
      if (++state.received[static_cast<std::size_t>(chunk)] < state.inputs_per_chunk) return;
      const ChunkMessage combined = acc;
      // Aggregation kernel: only when the behavior tuple demands one.
      if (state.behavior.has_kernel && state.stream != nullptr) {
        ++pending_ops_;
        // The telemetry branch recomputes the kernel's size and duration
        // rather than capturing them.
        auto on_retired = [this, &state, chunk, combined] {
          // The stream is serialized, so the kernel ran over the `duration`
          // seconds ending now — recorded post-hoc as a complete span.
          if (auto* t = telemetry::get()) {
            const SubRun& run = *state.run;
            const Bytes bytes = bytes_of_chunk(run.bytes, run.spec->chunk_bytes, chunk);
            const Seconds duration = kernel_seconds(state, chunk);
            if (session_trace() != nullptr) {
              t->trace().complete(stream_track(state), "reduce-kernel", sim_.now() - duration,
                                  duration, {{"bytes", bytes}, {"chunk", chunk}});
            }
            if (tel_kernel_epoch_ != telemetry::epoch()) {
              tel_kernel_epoch_ = telemetry::epoch();
              tel_kernel_seconds_ = &t->metrics().counter("executor.kernel_seconds");
            }
            tel_kernel_seconds_->add(duration);
          }
          emit_reduce_output(state, chunk, combined);
          op_done();
        };
        static_assert(sim::InlineCallback::stores_inline<decltype(on_retired)>());
        state.stream->enqueue(kernel_seconds(state, chunk), on_retired);
      } else {
        emit_reduce_output(state, chunk, combined);
      }
    } else {
      // Pass-through (relay or a_{m,g} = 0): forward immediately.
      emit_reduce_output(state, chunk, message);
    }
  }

  /// Stream time of the aggregation kernel for `chunk` at `state`'s GPU.
  Seconds kernel_seconds(const NodeState& state, int chunk) const {
    const Bytes bytes = bytes_of_chunk(state.run->bytes, state.run->spec->chunk_bytes, chunk);
    return topology::kernel_launch_overhead() +
           static_cast<double>(bytes) * std::max(1, state.inputs_per_chunk - 1) /
               topology::reduce_kernel_throughput(cluster_.gpu_kind(state.id.index));
  }

  void emit_reduce_output(NodeState& state, int chunk, ChunkMessage message) {
    SubRun& run = *state.run;
    if (&state == run.root) {
      on_root_chunk(run, chunk, message);
      return;
    }
    if (state.up == nullptr) return;  // behavior says no send
    const Bytes bytes = bytes_of_chunk(run.bytes, run.spec->chunk_bytes, chunk);
    const Seconds start = begin_send(run, bytes);
    ++pending_ops_;
    auto on_delivered = [this, &state, chunk, message, start] {
      end_send(*state.run, state.id, state.parent->id, chunk, state.run->bytes, start);
      on_reduce_input(*state.parent, chunk, message);
      op_done();
    };
    static_assert(sim::InlineCallback::stores_inline<decltype(on_delivered)>());
    state.up->send(bytes, on_delivered);
  }

  void on_root_chunk(SubRun& run, int chunk, ChunkMessage message) {
    result_.subs.resize(strategy_.subs.size());
    auto& sub_result = result_.subs[static_cast<std::size_t>(run.index)];
    sub_result.root_values.resize(static_cast<std::size_t>(run.chunks), 0.0);
    sub_result.root_masks.resize(static_cast<std::size_t>(run.chunks), 0);
    sub_result.root_values[static_cast<std::size_t>(chunk)] = message.value;
    sub_result.root_masks[static_cast<std::size_t>(chunk)] = message.mask;

    if (run.root->id.is_gpu()) {
      record_delivery(*run.root, chunk, message);
      note_rank_activity(run.root->id.index);
    }
    complete_deliverable();
    // Multi-stage parallelism: AllReduce broadcasts the chunk right away.
    if (run.broadcast_direction) inject_broadcast(run, chunk, message);
  }

  // --- broadcast direction ----------------------------------------------------

  void inject_broadcast(SubRun& run, int chunk, ChunkMessage message) {
    forward_broadcast(*run.root, chunk, message);
    if (strategy_.primitive == Primitive::kBroadcast ||
        strategy_.primitive == Primitive::kAllGather) {
      record_delivery(*run.root, chunk, message);
    }
  }

  void forward_broadcast(NodeState& state, int chunk, ChunkMessage message) {
    SubRun& run = *state.run;
    const Bytes bytes = bytes_of_chunk(run.bytes, run.spec->chunk_bytes, chunk);
    for (auto& [child, channel] : state.down) {
      const Seconds start = begin_send(run, bytes);
      ++pending_ops_;
      auto on_delivered = [this, child = child, chunk, message, start] {
        end_send(*child->run, child->parent->id, child->id, chunk, child->run->bytes, start);
        on_broadcast_arrival(*child, chunk, message);
        op_done();
      };
      static_assert(sim::InlineCallback::stores_inline<decltype(on_delivered)>());
      channel->send(bytes, on_delivered);
    }
  }

  void on_broadcast_arrival(NodeState& state, int chunk, ChunkMessage message) {
    const NodeId node = state.id;
    if (node.is_gpu()) {
      record_delivery(state, chunk, message);
      if (options_.active_ranks.contains(node.index)) {
        note_rank_activity(node.index);
        complete_deliverable();
      }
    }
    forward_broadcast(state, chunk, message);
  }

  // --- bookkeeping -----------------------------------------------------------

  // Deliveries are filed into result_ until it is handed over; a tail
  // delivery after that (relay-bound broadcast traffic) is dropped, so it
  // never reaches the caller's result.

  /// Files `message` as `chunk` of the GPU `state`'s sub at its rank.
  void record_delivery(const NodeState& state, int chunk, ChunkMessage message) {
    if (completion_delivered_) return;
    const int rank = state.id.index;
    const auto sub = static_cast<std::size_t>(state.run->index);
    result_.delivered.at(rank)[sub][static_cast<std::size_t>(chunk)] = message.value;
    result_.delivered_masks.at(rank)[sub][static_cast<std::size_t>(chunk)] = message.mask;
  }

  /// Files `chunk` of `flow` at its destination and stamps the destination.
  void record_alltoall(const FlowState& flow, int chunk, double value) {
    if (completion_delivered_) return;
    auto& received = result_.alltoall_received[flow.route->dst.index][flow.route->src.index];
    if (received.size() <= static_cast<std::size_t>(chunk)) {
      received.resize(static_cast<std::size_t>(chunk) + 1,
                      std::numeric_limits<double>::quiet_NaN());
    }
    received[static_cast<std::size_t>(chunk)] = value;
    note_rank_activity(flow.route->dst.index);
  }

  /// Stamps `rank`'s finish time now.
  void note_rank_activity(int rank) {
    if (!completion_delivered_) result_.rank_finish_time[rank] = sim_.now();
  }

  void complete_deliverable() {
    if (--outstanding_ == 0) finish();
  }

  /// Schedules one op of this invocation; `body` ends with op_done(), like
  /// every channel and stream callback. Callers keep the id in op_events_ so
  /// an abort can cancel it.
  template <typename F>
  sim::EventId schedule_op(Seconds when, F&& body) {
    ++pending_ops_;
    return sim_.schedule_at(std::max(when, sim_.now()), std::forward<F>(body));
  }

  void op_done() {
    if (--pending_ops_ == 0 && finished_ && completion_delivered_) {
      // All traffic (including relay-bound tail traffic) has drained.
      if (on_idle_) sim_.schedule_after(0, on_idle_);
    }
  }

  /// Active ranks that have not finished contributing: crashed before their
  /// tensor was fully ready, or still not ready now. These are the abort's
  /// suspects — the set the recovery orchestrator excludes.
  RankSet unfinished_ranks() const {
    RankSet out;
    for (const int rank : options_.active_ranks) {
      const Seconds ready =
          std::max(result_.started, options_.ready_at.value_or(rank, result_.started));
      // Suspect anyone already dead (mid-collective crash: its undelivered
      // chunks are what stalled the aggregation) or still not ready.
      if (death_time(rank) <= sim_.now() || ready > sim_.now()) out.insert(rank);
    }
    return out;
  }

  void on_watchdog() {
    watchdog_event_ = sim::EventId{};
    if (finished_) return;
    CollectiveError error;
    error.code = CollectiveErrorCode::kWatchdogTimeout;
    error.at = sim_.now();
    error.suspects = unfinished_ranks();
    error.detail = "watchdog expired after " + std::to_string(options_.watchdog_timeout) +
                   "s with " + std::to_string(outstanding_) + " deliverables outstanding";
    if (auto* t = telemetry::get()) {
      t->metrics().counter("executor.watchdog_fired").add(1.0);
      t->trace().instant(t->trace().track("executor"), "watchdog-abort", sim_.now(),
                         {{"suspects", error.suspects.size()}});
    }
    ADAPCC_LOG(kWarn, "executor") << error.detail;
    abort_invocation(std::move(error));
  }

  /// Cancels every outstanding simulator event of this invocation (ops,
  /// channel transfers, kernel retirements), releases the channels' queued
  /// chunks, and completes with the error. After this the only events left
  /// are the completion/idle deliveries scheduled by finish() — the drain
  /// loop in Executor::run terminates immediately instead of chasing a
  /// stalled link forever.
  void abort_invocation(CollectiveError error) {
    if (aborted_ || finished_) return;
    aborted_ = true;
    for (const sim::EventId& id : op_events_) sim_.cancel(id);
    op_events_.clear();
    for (auto& channel : channels_) channel->abort();
    for (auto& sub : subs_) {
      for (auto& flow : sub->flows) {
        if (flow.channel) flow.channel->abort();
      }
    }
    for (auto& stream : streams_) stream->cancel_pending();
    pending_ops_ = 0;
    result_.error = std::move(error);
    finish();
  }

  void finish() {
    finished_ = true;
    sim_.cancel(watchdog_event_);
    watchdog_event_ = sim::EventId{};
    result_.finished = sim_.now();
    result_.subs.resize(strategy_.subs.size());
    if (auto* trace = session_trace()) {
      trace->complete(trace->track("executor"), to_string(strategy_.primitive), result_.started,
                      sim_.now() - result_.started,
                      {{"tensor_bytes", tensor_bytes_}, {"subs", strategy_.subs.size()}});
    }
    if (auto* t = telemetry::get()) {
      t->metrics().counter("executor.collectives").add(1.0);
      t->metrics().histogram("executor.collective_seconds").observe(result_.elapsed());
    }
    if (on_complete_) {
      // Deliver via a fresh event so the callback never runs inside a
      // channel/stream callback of this invocation. on_idle_ (which may
      // destroy this Invocation) must not be scheduled until this event has
      // delivered: both land at the same timestamp, and event order among
      // ties is not part of any component's contract — under the
      // tie-shuffle harness the idle event could otherwise run first and
      // leave this event's `this` dangling.
      sim_.schedule_after(0, [this] {
        on_complete_(std::move(result_));
        completion_delivered_ = true;
        if (pending_ops_ == 0 && on_idle_) sim_.schedule_after(0, on_idle_);
      });
    } else {
      completion_delivered_ = true;
      if (pending_ops_ == 0 && on_idle_) sim_.schedule_after(0, on_idle_);
    }
  }

  topology::Cluster& cluster_;
  sim::Simulator& sim_;
  const Strategy& strategy_;
  Bytes tensor_bytes_;
  CollectiveOptions options_;
  std::function<void(CollectiveResult&&)> on_complete_;
  std::function<void()> on_idle_;

  std::vector<std::unique_ptr<SubRun>> subs_;
  std::vector<std::unique_ptr<sim::EdgeChannel>> channels_;
  std::vector<std::unique_ptr<sim::GpuStream>> streams_;

  CollectiveResult result_;
  long outstanding_ = 0;
  long pending_ops_ = 0;
  bool finished_ = false;
  bool aborted_ = false;
  sim::EventId watchdog_event_{};
  /// Every schedule_op event issued, for cancellation on abort: one per
  /// launched rank and sub (a fill chain overwrites its slot as it advances);
  /// fired ids go stale harmlessly (generation tags).
  std::vector<sim::EventId> op_events_;
  /// Fill chains; a list so their addresses stay stable for the events and
  /// an invocation without incremental fill allocates nothing.
  std::list<FillChain> fills_;
  /// AllToAll source queues, stable for the same reason.
  std::list<SourceQueue> queues_;
  /// The on_complete_ delivery event has run; only then may on_idle_ (which
  /// destroys the invocation) be scheduled — see finish(). From then on
  /// result_ is the caller's, and deliveries are no longer filed.
  bool completion_delivered_ = false;
  /// epoch() at start() with telemetry on, else 0: the session spans go to.
  std::uint64_t tel_session_ = 0;
  /// Per-send metric handles, resolved once per telemetry epoch.
  std::uint64_t tel_epoch_ = 0;
  telemetry::Counter* tel_bytes_sent_ = nullptr;
  telemetry::Counter* tel_chunks_sent_ = nullptr;
  /// Per-kernel handle, resolved on the first kernel of each epoch (an
  /// invocation without kernels registers no kernel_seconds counter).
  std::uint64_t tel_kernel_epoch_ = 0;
  telemetry::Counter* tel_kernel_seconds_ = nullptr;
};

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

Executor::Executor(topology::Cluster& cluster, Strategy strategy)
    : cluster_(cluster), strategy_(std::move(strategy)) {}

Executor::~Executor() {
  // An idle executor touches nothing: its token was retired with its last
  // invocation, so it may outlive the simulator like a plain value.
  if (invocation_ != nullptr) cluster_.simulator().retire_owner(owner_);
}

void Executor::start(Bytes tensor_bytes, CollectiveOptions options,
                     std::function<void(CollectiveResult&&)> on_complete) {
  if (invocation_ != nullptr) throw std::logic_error("Executor: invocation already in flight");
  sim::Simulator& sim = cluster_.simulator();
  owner_ = sim.acquire_owner();
  invocation_ = std::make_unique<Invocation>(
      cluster_, strategy_, tensor_bytes, std::move(options), std::move(on_complete),
      /*on_idle=*/[this, sim = &sim, owner = owner_] {
        if (!sim->owner_alive(owner)) return;
        sim->retire_owner(owner);
        invocation_.reset();
      });
  invocation_->start();
}

CollectiveResult Executor::run(Bytes tensor_bytes, CollectiveOptions options) {
  CollectiveResult result;
  bool done = false;
  start(tensor_bytes, std::move(options), [&result, &done](CollectiveResult&& r) {
    result = std::move(r);
    done = true;
  });
  sim::Simulator& sim = cluster_.simulator();
  while (!done && sim.step()) {
  }
  if (!done) throw std::logic_error("Executor::run: simulation drained before completion");
  // Drain relay tail traffic so the executor is reusable immediately.
  while (invocation_ != nullptr && sim.step()) {
  }
  return result;
}

std::vector<CollectiveResult> run_concurrently(topology::Cluster& cluster,
                                               std::vector<Strategy> strategies,
                                               Bytes tensor_bytes,
                                               std::vector<CollectiveOptions> options) {
  if (options.size() != strategies.size()) {
    throw std::invalid_argument("run_concurrently: one CollectiveOptions per strategy");
  }
  std::deque<Executor> executors;
  std::vector<CollectiveResult> results(strategies.size());
  std::size_t outstanding = strategies.size();
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    executors.emplace_back(cluster, std::move(strategies[i]));
    executors.back().start(tensor_bytes, std::move(options[i]),
                           [&results, &outstanding, i](CollectiveResult&& r) {
                             results[i] = std::move(r);
                             --outstanding;
                           });
  }
  sim::Simulator& sim = cluster.simulator();
  while (outstanding > 0 && sim.step()) {
  }
  if (outstanding > 0) throw std::logic_error("run_concurrently: simulation drained early");
  while (std::ranges::any_of(executors, &Executor::busy) && sim.step()) {
  }
  return results;
}

}  // namespace adapcc::collective
