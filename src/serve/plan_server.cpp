#include "src/serve/plan_server.hpp"

#include <algorithm>
#include <exception>
#include <span>
#include <stdexcept>

namespace fsw {

PlanServer::PlanServer(ServerConfig config) : config_(std::move(config)) {
  if (config_.maxBatch == 0) config_.maxBatch = 1;
  if (config_.drainThreads == 0) config_.drainThreads = 1;
  if (config_.solver != nullptr) {
    solver_ = config_.solver;
    // The backend may still be an engine — surface it when it is.
    engine_ = dynamic_cast<PlanEngine*>(config_.solver);
  } else if (config_.engine != nullptr) {
    engine_ = config_.engine;
    solver_ = engine_;
  } else {
    ownedEngine_ = std::make_unique<PlanEngine>(config_.engineConfig);
    engine_ = ownedEngine_.get();
    solver_ = engine_;
  }
  drainers_.reserve(config_.drainThreads);
  for (std::size_t i = 0; i < config_.drainThreads; ++i) {
    drainers_.emplace_back([this] { drainLoop(); });
  }
}

PlanServer::~PlanServer() { shutdown(); }

std::size_t PlanServer::inFlightLimit() const noexcept {
  if (config_.maxInFlight != 0) return config_.maxInFlight;
  return config_.drainThreads * config_.maxBatch;
}

std::future<OptimizedPlan> PlanServer::submit(PlanRequest request,
                                              int priority) {
  std::promise<OptimizedPlan> promise;
  std::future<OptimizedPlan> future = promise.get_future();
  // An unservable request fails alone here; in a batch its error would
  // fail every request drained with it.
  try {
    checkRequest(request);
  } catch (const std::invalid_argument&) {
    promise.set_exception(std::current_exception());
    return future;
  }
  // The backend-aware key: requests relying on an engine-level portfolio
  // override must not coalesce with explicit-builtin ones.
  const std::string key = solver_->dedupKey(request);

  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.submitted;
  for (;;) {
    if (stopping_) {
      ++stats_.rejected;
      lock.unlock();
      promise.set_exception(std::make_exception_ptr(
          RejectedSubmit("PlanServer: submit after shutdown")));
      return future;
    }
    // Coalesce onto an identical solve, queued or already in flight: the
    // submit consumes no queue space and spawns no new work — one solve
    // fulfills every attached future.
    if (const auto it = inFlight_.find(key); it != inFlight_.end()) {
      it->second.push_back(std::move(promise));
      ++stats_.coalesced;
      return future;
    }
    if (const auto it = queued_.find(key); it != queued_.end()) {
      Solve& solve = it->second;
      if (priority > solve.priority) {
        // The urgent duplicate drags the queued solve forward.
        order_.erase({-solve.priority, solve.seq});
        solve.priority = priority;
        order_.emplace(std::make_pair(-priority, solve.seq), key);
      }
      solve.waiters.push_back(std::move(promise));
      ++stats_.coalesced;
      return future;
    }
    if (config_.maxQueueDepth == 0 || queued_.size() < config_.maxQueueDepth) {
      break;  // space: admit below
    }
    if (config_.admission == AdmissionPolicy::Reject) {
      ++stats_.rejected;
      lock.unlock();
      promise.set_exception(std::make_exception_ptr(RejectedSubmit(
          "PlanServer: queue full (depth " +
          std::to_string(config_.maxQueueDepth) + ")")));
      return future;
    }
    // Block: wait for space, then re-examine from scratch — the key may
    // meanwhile have become coalescible or the server may be stopping.
    cvSpace_.wait(lock);
  }

  Solve solve;
  solve.request = std::move(request);
  solve.priority = priority;
  solve.seq = nextSeq_++;
  solve.waiters.push_back(std::move(promise));
  order_.emplace(std::make_pair(-priority, solve.seq), key);
  liveSeqs_.insert(solve.seq);
  queued_.emplace(key, std::move(solve));
  ++stats_.admitted;
  cvWork_.notify_all();
  return future;
}

void PlanServer::drainLoop() {
  for (;;) {
    std::vector<std::string> keys;
    std::vector<std::uint64_t> seqs;
    std::vector<PlanRequest> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cvWork_.wait(lock, [&] {
        return (!order_.empty() && inFlightCount_ < inFlightLimit()) ||
               (stopping_ && order_.empty());
      });
      if (order_.empty()) return;  // stopping, and nothing left to drain

      const std::size_t take =
          std::min({config_.maxBatch, inFlightLimit() - inFlightCount_,
                    order_.size()});
      keys.reserve(take);
      seqs.reserve(take);
      batch.reserve(take);
      for (std::size_t k = 0; k < take; ++k) {
        const auto it = order_.begin();
        const std::string key = it->second;
        order_.erase(it);
        const auto qit = queued_.find(key);
        // The solve moves from queued to in flight; late duplicates of it
        // now attach through inFlight_.
        inFlight_.emplace(key, std::move(qit->second.waiters));
        batch.push_back(std::move(qit->second.request));
        keys.push_back(key);
        seqs.push_back(qit->second.seq);
        queued_.erase(qit);
      }
      inFlightCount_ += take;
      ++stats_.batches;
      cvSpace_.notify_all();
    }

    std::vector<OptimizedPlan> results;
    std::exception_ptr failure;
    try {
      results = solver_->optimizeBatch(
          std::span<const PlanRequest>(batch.data(), batch.size()));
    } catch (...) {
      failure = std::current_exception();
    }

    for (std::size_t i = 0; i < keys.size(); ++i) {
      std::vector<std::promise<OptimizedPlan>> waiters;
      {
        std::unique_lock<std::mutex> lock(mu_);
        const auto it = inFlight_.find(keys[i]);
        waiters = std::move(it->second);
        inFlight_.erase(it);
        // inFlightCount_ stays up through delivery: drain()/shutdown must
        // not observe "completed" before the stream callback has run and
        // every attached future is fulfilled. (An identical submit landing
        // right now queues a fresh solve — the key is gone from inFlight_,
        // so no waiter can be lost.)
      }
      std::exception_ptr delivery = failure;
      if (delivery == nullptr && config_.onResult) {
        // A throwing stream callback must not unwind the drain thread
        // (std::terminate) or leave futures forever unfulfilled — it
        // fails this solve's futures with its exception instead.
        try {
          config_.onResult(batch[i], results[i]);
        } catch (...) {
          delivery = std::current_exception();
        }
      }
      if (delivery == nullptr) {
        for (auto& waiter : waiters) waiter.set_value(results[i]);
      } else {
        for (auto& waiter : waiters) waiter.set_exception(delivery);
      }
      {
        std::unique_lock<std::mutex> lock(mu_);
        --inFlightCount_;
        liveSeqs_.erase(seqs[i]);
        ++stats_.completed;
      }
      // In-flight room freed: another drainer may proceed — and the
      // oldest live solve may have advanced past a drain() cutoff.
      cvWork_.notify_all();
      cvIdle_.notify_all();
    }
  }
}

void PlanServer::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  // Snapshot semantics: only solves admitted before this call (seq below
  // the cutoff) are waited on, so drain() returns under continuous
  // traffic once its snapshot has completed.
  const std::uint64_t cutoff = nextSeq_;
  cvIdle_.wait(lock, [&] {
    return liveSeqs_.empty() || *liveSeqs_.begin() >= cutoff;
  });
}

void PlanServer::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cvSpace_.notify_all();  // blocked submitters wake up and get rejected
  cvWork_.notify_all();
  const std::lock_guard<std::mutex> join(joinMu_);
  for (auto& drainer : drainers_) {
    if (drainer.joinable()) drainer.join();
  }
}

PlanServer::Stats PlanServer::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t PlanServer::queueDepth() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queued_.size();
}

std::size_t PlanServer::inFlight() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return inFlightCount_;
}

}  // namespace fsw
