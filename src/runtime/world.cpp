#include "runtime/world.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <sstream>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"

namespace sfp::runtime {

namespace {

// Registry handles for the blocking-wait histograms, resolved once. The
// "queue wait" is the time parked on a condition variable — the part of a
// recv/barrier/allreduce spent waiting on peers, as opposed to transfer.
obs::histogram& recv_wait_hist() {
  static obs::histogram& h =
      obs::registry::global().get_histogram("runtime.recv.queue_wait.us");
  return h;
}
obs::histogram& recv_transfer_hist() {
  static obs::histogram& h =
      obs::registry::global().get_histogram("runtime.recv.transfer.us");
  return h;
}
obs::histogram& barrier_wait_hist() {
  static obs::histogram& h =
      obs::registry::global().get_histogram("runtime.barrier.wait.us");
  return h;
}
obs::histogram& allreduce_wait_hist() {
  static obs::histogram& h =
      obs::registry::global().get_histogram("runtime.allreduce.wait.us");
  return h;
}
obs::histogram& send_bytes_hist() {
  static obs::histogram& h =
      obs::registry::global().get_histogram("runtime.send.message_bytes");
  return h;
}

int validated_rank_count(int n) {
  SFP_REQUIRE(n >= 1, "world needs at least one rank");
  return n;
}

}  // namespace

int communicator::size() const { return world_->size(); }

void communicator::send(int dst, int tag, std::span<const double> data) {
  SFP_REQUIRE(dst >= 0 && dst < world_->size(), "destination out of range");
  SFP_TRACE_SCOPE_CAT("world.send", "runtime");
  const auto self = static_cast<std::size_t>(rank_);
  injection_pipeline& pipeline = world_->pipelines_[self];
  pipeline.count_op();
  injection_pipeline::outcome out = pipeline.on_send(dst, tag, data);
  for (int c = 0; c < out.accounted_copies; ++c) {
    world_->tag_doubles_[self][tag] +=
        static_cast<std::int64_t>(out.copy_doubles);
    send_bytes_hist().observe(
        static_cast<std::int64_t>(out.copy_doubles * sizeof(double)));
  }
  for (auto& image : out.wire)
    world_->deliver(dst, rank_, tag, std::move(image));
}

std::vector<double> communicator::recv(int src, int tag) {
  SFP_REQUIRE(src >= 0 && src < world_->size(), "source out of range");
  SFP_TRACE_SCOPE_CAT("world.recv", "runtime");
  const auto self = static_cast<std::size_t>(rank_);
  rank_counters& counters = world_->counters_[self];
  world_->pipelines_[self].count_op();
  const std::int64_t t0 = obs::now_ns();
  std::int64_t wait_ns = 0;
  std::vector<double> msg = world_->take(rank_, src, tag, &wait_ns);
  recv_wait_hist().observe(wait_ns / 1000);
  recv_transfer_hist().observe((obs::now_ns() - t0 - wait_ns) / 1000);
  ++counters.messages_received;
  counters.doubles_received += static_cast<std::int64_t>(msg.size());
  return msg;
}

bool communicator::try_recv_any(int tag, std::chrono::microseconds wait,
                                any_message* out) {
  SFP_REQUIRE(out != nullptr, "try_recv_any needs an output slot");
  return world_->take_any(rank_, tag, wait, out);
}

bool communicator::departed(int peer) const {
  SFP_REQUIRE(peer >= 0 && peer < world_->size(), "peer out of range");
  return world_->departed_[static_cast<std::size_t>(peer)].load(
      std::memory_order_acquire);
}

void communicator::barrier() {
  SFP_TRACE_SCOPE_CAT("world.barrier", "runtime");
  const auto self = static_cast<std::size_t>(rank_);
  world_->pipelines_[self].count_op();
  const std::int64_t t0 = obs::now_ns();
  world_->barrier_wait(rank_);
  barrier_wait_hist().observe((obs::now_ns() - t0) / 1000);
  ++world_->counters_[self].barriers;
}

double communicator::allreduce_sum(double value) {
  SFP_TRACE_SCOPE_CAT("world.allreduce", "runtime");
  const auto self = static_cast<std::size_t>(rank_);
  world_->pipelines_[self].count_op();
  const std::int64_t t0 = obs::now_ns();
  const double r = world_->reduce(rank_, value, /*take_max=*/false);
  allreduce_wait_hist().observe((obs::now_ns() - t0) / 1000);
  ++world_->counters_[self].reductions;
  return r;
}

double communicator::allreduce_max(double value) {
  SFP_TRACE_SCOPE_CAT("world.allreduce", "runtime");
  const auto self = static_cast<std::size_t>(rank_);
  world_->pipelines_[self].count_op();
  const std::int64_t t0 = obs::now_ns();
  const double r = world_->reduce(rank_, value, /*take_max=*/true);
  allreduce_wait_hist().observe((obs::now_ns() - t0) / 1000);
  ++world_->counters_[self].reductions;
  return r;
}

world::world(int num_ranks) : world(num_ranks, options()) {}

world::world(int num_ranks, options opts)
    : num_ranks_(validated_rank_count(num_ranks)),
      opts_(std::move(opts)),
      mailboxes_(static_cast<std::size_t>(num_ranks)),
      departed_(static_cast<std::size_t>(num_ranks)),
      counters_(static_cast<std::size_t>(num_ranks)),
      tag_doubles_(static_cast<std::size_t>(num_ranks)),
      reduce_slots_(static_cast<std::size_t>(num_ranks), 0.0) {}

const rank_counters& world::counters(int rank) const {
  SFP_REQUIRE(rank >= 0 && rank < num_ranks_, "rank out of range");
  return counters_[static_cast<std::size_t>(rank)];
}

rank_counters world::total_counters() const {
  rank_counters total;
  for (const auto& c : counters_) total += c;
  return total;
}

std::map<int, std::int64_t> world::total_doubles_by_tag() const {
  std::map<int, std::int64_t> total;
  for (const auto& per_rank : tag_doubles_)
    for (const auto& [tag, doubles] : per_rank) total[tag] += doubles;
  return total;
}

void world::publish_metrics() const {
  obs::registry& reg = obs::registry::global();
  const rank_counters t = total_counters();
  reg.get_counter("runtime.messages_sent").add(t.messages_sent);
  reg.get_counter("runtime.messages_received").add(t.messages_received);
  reg.get_counter("runtime.doubles_sent").add(t.doubles_sent);
  reg.get_counter("runtime.doubles_received").add(t.doubles_received);
  reg.get_counter("runtime.barriers").add(t.barriers);
  reg.get_counter("runtime.reductions").add(t.reductions);
  reg.get_counter("runtime.timeouts").add(t.timeouts);
  reg.get_counter("runtime.aborts_observed").add(t.aborts_observed);
  reg.get_counter("runtime.injected.kills").add(t.injected_kills);
  reg.get_counter("runtime.injected.drops").add(t.injected_drops);
  reg.get_counter("runtime.injected.delays").add(t.injected_delays);
  reg.get_counter("runtime.injected.duplicates").add(t.injected_duplicates);
  reg.get_counter("runtime.injected.corruptions").add(t.injected_corruptions);
  reg.get_counter("runtime.injected.truncations").add(t.injected_truncations);
  reg.get_counter("runtime.injected.reorders").add(t.injected_reorders);
  // Per-tag wire volume only while a session is observing: tag counts grow
  // with step count, so an unattended long run must not grow the registry.
  if (!obs::trace::enabled()) return;
  for (const auto& [tag, doubles] : total_doubles_by_tag())
    reg.get_counter("runtime.send.bytes.tag" + std::to_string(tag))
        .add(doubles * static_cast<std::int64_t>(sizeof(double)));
}

void world::deliver(int dst, int src, int tag, std::vector<double> data) {
  mailbox& box = mailboxes_[static_cast<std::size_t>(dst)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.queues[{src, tag}].push_back(std::move(data));
  }
  box.ready.notify_all();
}

std::vector<double> world::take(int dst, int src, int tag,
                                std::int64_t* wait_ns) {
  mailbox& box = mailboxes_[static_cast<std::size_t>(dst)];
  std::unique_lock<std::mutex> lock(box.mutex);
  const auto key = std::pair(src, tag);
  const auto ready = [&] {
    if (abort_requested()) return true;
    const auto it = box.queues.find(key);
    return it != box.queues.end() && !it->second.empty();
  };
  const std::int64_t wait_start = obs::now_ns();
  if (opts_.timeout.count() > 0) {
    if (!box.ready.wait_for(lock, opts_.timeout, ready)) {
      ++counters_[static_cast<std::size_t>(dst)].timeouts;
      throw comm_timeout_error(dst, "recv", opts_.timeout);
    }
  } else {
    box.ready.wait(lock, ready);
  }
  *wait_ns = obs::now_ns() - wait_start;
  // Drain-then-abort: a message that already arrived is still delivered so
  // a rank about to make progress is not failed spuriously; the abort is
  // observed at the next blocking call.
  const auto it = box.queues.find(key);
  if (it == box.queues.end() || it->second.empty()) {
    ++counters_[static_cast<std::size_t>(dst)].aborts_observed;
    throw world_aborted(dst, failed_rank());
  }
  auto& queue = box.queues[key];
  std::vector<double> out = std::move(queue.front());
  queue.pop_front();
  return out;
}

bool world::take_any(int dst, int tag, std::chrono::microseconds wait,
                     any_message* out) {
  mailbox& box = mailboxes_[static_cast<std::size_t>(dst)];
  std::unique_lock<std::mutex> lock(box.mutex);
  // Lowest source rank first: a deterministic drain order given identical
  // mailbox contents (arrival interleaving still varies, but the reliable
  // layer is insensitive to it).
  const auto find_match = [&]() {
    for (auto it = box.queues.begin(); it != box.queues.end(); ++it)
      if (it->first.second == tag && !it->second.empty()) return it;
    return box.queues.end();
  };
  const auto ready = [&] {
    return abort_requested() || find_match() != box.queues.end();
  };
  if (!box.ready.wait_for(lock, wait, ready)) return false;
  const auto it = find_match();
  if (it == box.queues.end()) {
    ++counters_[static_cast<std::size_t>(dst)].aborts_observed;
    throw world_aborted(dst, failed_rank());
  }
  out->src = it->first.first;
  out->tag = it->first.second;
  out->payload = std::move(it->second.front());
  it->second.pop_front();
  ++counters_[static_cast<std::size_t>(dst)].messages_received;
  counters_[static_cast<std::size_t>(dst)].doubles_received +=
      static_cast<std::int64_t>(out->payload.size());
  return true;
}

void world::barrier_wait(int rank) {
  std::unique_lock<std::mutex> lock(barrier_mutex_);
  if (abort_requested()) {
    ++counters_[static_cast<std::size_t>(rank)].aborts_observed;
    throw world_aborted(rank, failed_rank());
  }
  const std::uint64_t gen = barrier_generation_;
  if (++barrier_arrived_ == num_ranks_) {
    barrier_arrived_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
    return;
  }
  const auto released = [&] {
    return barrier_generation_ != gen || abort_requested();
  };
  if (opts_.timeout.count() > 0) {
    if (!barrier_cv_.wait_for(lock, opts_.timeout, released)) {
      ++counters_[static_cast<std::size_t>(rank)].timeouts;
      throw comm_timeout_error(rank, "barrier", opts_.timeout);
    }
  } else {
    barrier_cv_.wait(lock, released);
  }
  // A completed barrier wins over a concurrent abort: the caller made
  // progress and will observe the abort at its next blocking call.
  if (barrier_generation_ == gen) {
    ++counters_[static_cast<std::size_t>(rank)].aborts_observed;
    throw world_aborted(rank, failed_rank());
  }
}

double world::reduce(int rank, double value, bool take_max) {
  std::unique_lock<std::mutex> lock(reduce_mutex_);
  const auto abort_here = [&] {
    ++counters_[static_cast<std::size_t>(rank)].aborts_observed;
    throw world_aborted(rank, failed_rank());
  };
  const auto timeout_here = [&] {
    ++counters_[static_cast<std::size_t>(rank)].timeouts;
    throw comm_timeout_error(rank, "allreduce", opts_.timeout);
  };
  // Wait until the previous reduction fully drained (everyone departed).
  const auto drained = [&] {
    return reduce_departed_ == 0 || reduce_arrived_ > 0 || abort_requested();
  };
  if (opts_.timeout.count() > 0) {
    if (!reduce_cv_.wait_for(lock, opts_.timeout, drained)) timeout_here();
  } else {
    reduce_cv_.wait(lock, drained);
  }
  if (abort_requested()) abort_here();
  const std::uint64_t gen = reduce_generation_;
  reduce_slots_[static_cast<std::size_t>(rank)] = value;
  if (++reduce_arrived_ == num_ranks_) {
    // Last one in computes the result in deterministic rank order.
    double acc = reduce_slots_[0];
    for (int p = 1; p < num_ranks_; ++p) {
      const double v = reduce_slots_[static_cast<std::size_t>(p)];
      acc = take_max ? std::max(acc, v) : acc + v;
    }
    reduce_result_ = acc;
    reduce_arrived_ = 0;
    reduce_departed_ = num_ranks_;
    ++reduce_generation_;
    reduce_cv_.notify_all();
  } else {
    const auto released = [&] {
      return reduce_generation_ != gen || abort_requested();
    };
    if (opts_.timeout.count() > 0) {
      if (!reduce_cv_.wait_for(lock, opts_.timeout, released)) timeout_here();
    } else {
      reduce_cv_.wait(lock, released);
    }
    if (reduce_generation_ == gen) abort_here();
  }
  const double result = reduce_result_;
  if (--reduce_departed_ == 0) reduce_cv_.notify_all();
  return result;
}

void world::trigger_abort(int rank) {
  int expected = -1;
  failed_rank_.compare_exchange_strong(expected, rank,
                                       std::memory_order_acq_rel);
  abort_flag_.store(true, std::memory_order_release);
  // Wake every potential waiter. Taking each lock before notifying closes
  // the race against a rank that checked the flag but has not yet parked.
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.ready.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    barrier_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(reduce_mutex_);
    reduce_cv_.notify_all();
  }
}

void world::reset_run_state() {
  abort_flag_.store(false, std::memory_order_release);
  failed_rank_.store(-1, std::memory_order_release);
  for (auto& gone : departed_) gone.store(false, std::memory_order_release);
  for (auto& box : mailboxes_) box.queues.clear();
  counters_.assign(static_cast<std::size_t>(num_ranks_), rank_counters{});
  tag_doubles_.assign(static_cast<std::size_t>(num_ranks_), {});
  // counters_ is at its final size here, so the pipelines' pointers into it
  // stay valid for the whole run.
  pipelines_.clear();
  pipelines_.reserve(static_cast<std::size_t>(num_ranks_));
  for (int p = 0; p < num_ranks_; ++p)
    pipelines_.emplace_back(opts_.faults, p,
                            &counters_[static_cast<std::size_t>(p)]);
  barrier_arrived_ = 0;
  barrier_generation_ = 0;
  std::fill(reduce_slots_.begin(), reduce_slots_.end(), 0.0);
  reduce_arrived_ = 0;
  reduce_departed_ = 0;
  reduce_generation_ = 0;
  reduce_result_ = 0;
}

void world::run(const std::function<void(communicator&)>& rank_main) {
  SFP_REQUIRE(static_cast<bool>(rank_main), "rank_main must be callable");
  reset_run_state();
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(num_ranks_));
  threads.reserve(static_cast<std::size_t>(num_ranks_));
  for (int p = 0; p < num_ranks_; ++p) {
    threads.emplace_back([this, p, &rank_main, &errors] {
      if (obs::trace::enabled())
        obs::trace::set_thread_name("rank " + std::to_string(p));
      communicator comm(*this, p);
      try {
        rank_main(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(p)] = std::current_exception();
        trigger_abort(p);
      }
      // After the body (and every send it made) is done: peers that see
      // the flag find all of this rank's traffic already in their mailbox.
      departed_[static_cast<std::size_t>(p)].store(true,
                                                   std::memory_order_release);
    });
  }
  for (auto& t : threads) t.join();
  publish_metrics();
  const int failed = failed_rank();
  if (failed >= 0) {
    // failed_rank_ is the first rank whose exception escaped — the root
    // cause; everyone else holds a cascading world_aborted.
    std::rethrow_exception(errors[static_cast<std::size_t>(failed)]);
  }
}

}  // namespace sfp::runtime
