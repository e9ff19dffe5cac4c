#pragma once
// Virtual-rank runtime: a thread-backed, in-process message-passing fabric
// with the MPI subset the SEAM mini-app needs (point-to-point send/recv,
// barrier, allreduce). It lets the distributed model run and be validated
// "distributed-style" on one node — the stand-in for MPI on the paper's
// cluster.
//
// Semantics: send() is asynchronous and copies its payload; recv() blocks
// until a matching (source, tag) message arrives; messages between a fixed
// (source, destination, tag) triple are delivered in send order.
//
// Fault tolerance: when any rank throws, a shared abort flag wakes every
// rank blocked in recv/barrier/allreduce with world_aborted instead of
// hanging the join loop. Per-call deadlines (world::options::timeout) turn
// lost messages into comm_timeout_error. A seeded fault_plan injects
// deterministic kills and message drop/delay/duplication for chaos tests,
// and per-rank robustness counters account for everything that happened.
// A rank whose body has returned is flagged as departed, which the
// reliable layer reads as a definite death signal (transport::departed).
//
// Observability: every blocking call is a trace span when an obs session is
// active (rank threads are named "rank N" in the dump), blocking waits feed
// wait-time histograms, and run() publishes the per-run counters — plus
// per-tag payload bytes — into the global obs::registry. See
// docs/observability.md.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/transport.hpp"

namespace sfp::runtime {

class world;

/// Per-rank communication handle, valid only inside world::run. It is the
/// in-process transport backend itself: the reliable layer and every other
/// transport& consumer drive the mailboxes through it directly.
class communicator final : public transport {
 public:
  int rank() const override { return rank_; }
  int size() const override;

  /// Asynchronously deliver `data` to `dst`'s mailbox under `tag`.
  void send(int dst, int tag, std::span<const double> data) override;

  /// Block until a message from (src, tag) arrives; returns its payload.
  std::vector<double> recv(int src, int tag);

  /// Progress-engine primitive for the reliable transport: wait up to
  /// `wait` for a message with tag `tag` from *any* source and dequeue it.
  /// Returns false when nothing arrived in time. Unlike recv this is not a
  /// communication op (no fault-injection op count, no timeout counter) —
  /// deadline policy belongs to the caller pumping it. Aborts still wake it
  /// with world_aborted.
  bool try_recv_any(int tag, std::chrono::microseconds wait,
                    any_message* out) override;

  /// True once `peer`'s rank thread has left its rank body (see
  /// transport::departed). Every message it sent is in the mailboxes by
  /// then: delivery is synchronous, and the flag is published afterwards.
  bool departed(int peer) const override;

  /// Collective: all ranks must call; returns when everyone arrived.
  void barrier();

  /// Collective reductions over one double per rank.
  double allreduce_sum(double value);
  double allreduce_max(double value);

 private:
  friend class world;
  communicator(world& w, int rank) : world_(&w), rank_(rank) {}
  world* world_;
  int rank_;
};

/// A fixed-size group of virtual ranks. run() executes the given function
/// once per rank, each on its own thread, and returns when all complete.
/// Exceptions thrown by any rank abort the peers (they throw world_aborted
/// out of any blocked communication call) and the root-cause exception is
/// rethrown from run(). A world may be reused: run() resets all fabric and
/// failure state.
class world {
 public:
  struct options {
    /// Per blocking call (recv/barrier/allreduce). zero = wait forever.
    std::chrono::milliseconds timeout{0};
    /// Deterministic chaos schedule; default-constructed = no faults.
    fault_plan faults;
  };

  explicit world(int num_ranks);
  world(int num_ranks, options opts);

  int size() const { return num_ranks_; }

  void run(const std::function<void(communicator&)>& rank_main);

  /// Rank whose exception triggered the abort of the last run, or -1 if the
  /// last run completed cleanly.
  int failed_rank() const { return failed_rank_.load(std::memory_order_acquire); }
  bool aborted() const { return failed_rank() >= 0; }

  /// Robustness counters from the last run.
  const rank_counters& counters(int rank) const;
  rank_counters total_counters() const;

  /// Doubles delivered per message tag over the last run, summed across
  /// sending ranks (duplicates included) — the wire-volume breakdown the
  /// trace tooling turns into per-tag byte counters.
  std::map<int, std::int64_t> total_doubles_by_tag() const;

 private:
  friend class communicator;

  struct mailbox {
    std::mutex mutex;
    std::condition_variable ready;
    std::map<std::pair<int, int>, std::deque<std::vector<double>>> queues;
  };

  void deliver(int dst, int src, int tag, std::vector<double> data);
  /// Blocking dequeue; adds the time spent parked on the condition variable
  /// (queue wait, as opposed to transfer/copy time) to *wait_ns.
  std::vector<double> take(int dst, int src, int tag, std::int64_t* wait_ns);
  /// Bounded-wait dequeue of any (src=*, tag) message; false on timeout.
  bool take_any(int dst, int tag, std::chrono::microseconds wait,
                any_message* out);
  void barrier_wait(int rank);
  double reduce(int rank, double value, bool take_max);
  void trigger_abort(int rank);
  bool abort_requested() const {
    return abort_flag_.load(std::memory_order_acquire);
  }
  void reset_run_state();
  void publish_metrics() const;

  int num_ranks_;
  options opts_;
  std::vector<mailbox> mailboxes_;

  // Failure state (set once per run by the first failing rank).
  std::atomic<bool> abort_flag_{false};
  std::atomic<int> failed_rank_{-1};
  /// Per rank: its body has returned this run. Stored (release) by the
  /// rank's own thread after the body, read (acquire) by its peers.
  std::vector<std::atomic<bool>> departed_;

  // Per-rank accounting and fault state; each entry is written only by its
  // own rank thread during run() and read after the join. The pipeline owns
  // the injector and the reorder stash (runtime/transport.hpp).
  std::vector<rank_counters> counters_;
  std::vector<std::map<int, std::int64_t>> tag_doubles_;
  std::vector<injection_pipeline> pipelines_;

  // Barrier (reusable, generation-counted).
  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;

  // Reduction scratch (guarded by the barrier protocol around it).
  std::mutex reduce_mutex_;
  std::condition_variable reduce_cv_;
  std::vector<double> reduce_slots_;
  int reduce_arrived_ = 0;
  int reduce_departed_ = 0;
  std::uint64_t reduce_generation_ = 0;
  double reduce_result_ = 0;
};

}  // namespace sfp::runtime
