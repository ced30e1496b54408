// Reusable evaluation state for the order-search inner loop.
//
// Evaluating one port-order candidate used to rebuild everything from the
// ground up: cost model, comm-id maps, constraint system, solve buffers.
// Almost all of that is *order-independent* — the communication set, its
// durations, the busy-time lower bound, the total duration, and the
// variable numbering are fixed by (application, graph) alone. This module
// splits the evaluation into:
//
//   * EvalContext — the immutable per-(app, graph) part, built once per
//     search and shared read-only by every worker;
//   * EvalScratch — the mutable per-probe part (constraint system, solve
//     vector, arena), owned by one worker and recycled across probes so the
//     steady-state hot loop performs no heap allocation;
//   * WorkerScratchPool<T> — hands each ThreadPool worker (and the search's
//     owning thread) a dedicated scratch slot without synchronization, with
//     a mutex-guarded overflow list for foreign threads that execute our
//     tasks during cross-pool nested helping.
//
// Determinism: the context preserves the legacy floating-point summation
// orders (comm records are kept in (from, to)-key-sorted order, exactly the
// old std::map iteration order), and renumbering variables does not change
// the Bellman-Ford trajectory, so values and extracted operation lists are
// bit-identical to the per-probe-rebuild implementation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/arena.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/application.hpp"
#include "src/core/execution_graph.hpp"
#include "src/oplist/operation_list.hpp"
#include "src/sched/periodic_cg.hpp"
#include "src/sched/port_orders.hpp"

namespace fsw {

/// Relaxed-order max accumulation into a shared counter (used for the arena
/// high-water stat, where only the final maximum matters).
inline void atomicMaxRelaxed(std::atomic<std::size_t>& target,
                             std::size_t value) {
  std::size_t cur = target.load(std::memory_order_relaxed);
  while (cur < value && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

/// Per-worker mutable evaluation state, recycled across probes.
struct EvalScratch {
  PeriodicConstraintGraph pcg;
  std::vector<double> x;  ///< solve buffer (potentials)
  MonotonicArena arena;   ///< the period search's buffers (minLambdaValue)
  std::size_t probes = 0;      ///< evaluations performed with this scratch
  std::size_t heapAllocs = 0;  ///< observed buffer-growth events
};

/// The order-independent half of an INORDER / one-port-latency evaluation.
class EvalContext {
 public:
  struct CommRec {
    NodeId from;
    NodeId to;
    double dur;
  };

  /// `cyclic` selects the period regime (wrap-around constraints); false is
  /// the single-data-set latency regime.
  EvalContext(const Application& app, const ExecutionGraph& graph,
              bool cyclic);

  [[nodiscard]] std::size_t nodeCount() const noexcept { return n_; }
  [[nodiscard]] bool cyclic() const noexcept { return cyclic_; }
  /// Variables: calc i -> i, comm c -> nodeCount() + c.
  [[nodiscard]] std::size_t varCount() const noexcept {
    return n_ + comms_.size();
  }
  /// Comm records in (from, to)-key-sorted order — the legacy summation and
  /// extraction order.
  [[nodiscard]] const std::vector<CommRec>& comms() const noexcept {
    return comms_;
  }
  [[nodiscard]] double calcDur(NodeId i) const { return calcDur_[i]; }
  /// max_i (ccomp_i + sum of incident comm durations): a lower bound on any
  /// feasible lambda (and on the one-port latency).
  [[nodiscard]] double busyLowerBound() const noexcept { return busyLB_; }
  [[nodiscard]] double totalDuration() const noexcept { return totalDur_; }

  [[nodiscard]] PeriodicConstraintGraph::Var calcVar(NodeId i) const noexcept {
    return i;
  }
  [[nodiscard]] PeriodicConstraintGraph::Var commVar(
      std::uint32_t c) const noexcept {
    return n_ + c;
  }
  /// Comm id of src -> node (src may be kWorld). Linear scan over the
  /// node's ports — port counts are tiny on the hot path.
  [[nodiscard]] std::uint32_t inCommId(NodeId node, NodeId src) const;
  /// Comm id of node -> dst (dst may be kWorld).
  [[nodiscard]] std::uint32_t outCommId(NodeId node, NodeId dst) const;

  /// Rebuilds s.pcg as the INORDER rule set for `orders` (constraint
  /// insertion order identical to the legacy per-probe construction).
  /// Allocation-free once s.pcg's storage is warmed up.
  void buildSystem(PortOrdersView orders, EvalScratch& s) const;

  /// OperationList from a solution x at lambda, records in the legacy
  /// (calc by index, then comms in key order) layout.
  [[nodiscard]] OperationList extract(const std::vector<double>& x,
                                      double lambda) const;

  /// Latency of a solution: max end time over all communications.
  [[nodiscard]] double latencyOf(const std::vector<double>& x) const;

 private:
  std::size_t n_ = 0;
  bool cyclic_ = true;
  std::vector<double> calcDur_;
  std::vector<CommRec> comms_;  ///< key-sorted
  // CSR lookup: for node i, (neighbor, comm id) pairs of its in/out ports.
  std::vector<std::uint32_t> inAdjOff_, outAdjOff_;
  std::vector<std::pair<NodeId, std::uint32_t>> inAdj_, outAdj_;
  std::size_t constraintBound_ = 0;  ///< reserve hint for buildSystem
  double busyLB_ = 0.0;
  double totalDur_ = 0.0;
};

/// Per-worker scratch slots for one search. Slot 0 belongs to the thread
/// that constructed the pool object (the search owner); slot 1 + k belongs
/// to worker k of `pool`. A thread that is neither — a worker of a
/// *different* ThreadPool draining our tasks while blocked in its own
/// parallelFor — leases from a mutex-guarded overflow list, so scratch is
/// never shared between two concurrently running evaluations.
template <typename T>
class WorkerScratchPool {
 public:
  explicit WorkerScratchPool(ThreadPool* pool)
      : pool_(pool),
        owner_(std::this_thread::get_id()),
        slots_(1 + (pool != nullptr ? pool->threadCount() : 0)) {}

  WorkerScratchPool(const WorkerScratchPool&) = delete;
  WorkerScratchPool& operator=(const WorkerScratchPool&) = delete;

  /// RAII lease of the calling thread's scratch. Keep it for the duration
  /// of one task (an evaluation, a local-search chain, a repair restart);
  /// re-acquiring per task is cheap (two thread_local reads on the fast
  /// path).
  class Lease {
   public:
    Lease(WorkerScratchPool& owner, T* slot, std::unique_ptr<T> overflow)
        : owner_(&owner), overflow_(std::move(overflow)),
          ptr_(slot != nullptr ? slot : overflow_.get()) {}
    ~Lease() {
      if (overflow_ != nullptr) owner_->returnOverflow(std::move(overflow_));
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    T& operator*() const noexcept { return *ptr_; }
    T* operator->() const noexcept { return ptr_; }

   private:
    WorkerScratchPool* owner_;
    std::unique_ptr<T> overflow_;
    T* ptr_;
  };

  [[nodiscard]] Lease lease() {
    if (pool_ != nullptr && ThreadPool::currentPool() == pool_) {
      return Lease(*this, &slots_[1 + ThreadPool::currentWorkerSlot()],
                   nullptr);
    }
    if (ThreadPool::currentPool() == nullptr &&
        std::this_thread::get_id() == owner_) {
      return Lease(*this, &slots_[0], nullptr);
    }
    std::unique_ptr<T> s;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!overflow_.empty()) {
        s = std::move(overflow_.back());
        overflow_.pop_back();
      }
    }
    if (s == nullptr) s = std::make_unique<T>();
    return Lease(*this, nullptr, std::move(s));
  }

  /// Visits every scratch ever handed out. Only valid when no lease is
  /// outstanding (i.e. after the search's parallel sections completed).
  template <typename Fn>
  void forEach(Fn&& fn) {
    for (auto& s : slots_) fn(s);
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : overflow_) fn(*s);
  }

 private:
  void returnOverflow(std::unique_ptr<T> s) {
    const std::lock_guard<std::mutex> lock(mu_);
    overflow_.push_back(std::move(s));
  }

  ThreadPool* pool_;
  std::thread::id owner_;
  std::vector<T> slots_;
  std::mutex mu_;
  std::vector<std::unique_ptr<T>> overflow_;
};

}  // namespace fsw
