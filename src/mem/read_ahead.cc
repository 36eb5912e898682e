#include "mem/read_ahead.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "util/logging.h"

namespace angelptm::mem {

ReadAheadExecutor::ReadAheadExecutor(HierarchicalMemory* memory,
                                     CopyEngine* engine,
                                     PrefetchPlanner* planner,
                                     const Options& options)
    : memory_(memory), engine_(engine), planner_(planner), options_(options) {
  ANGEL_CHECK(options_.window > 0) << "read-ahead window must be positive";
  ANGEL_CHECK(options_.max_resident > 0) << "frame budget must be positive";
  obs::Registry& registry = obs::Registry::Instance();
  metric_hits_ = registry.GetCounter("readahead/hits");
  metric_waits_ = registry.GetCounter("readahead/waits");
  metric_covered_ = registry.GetCounter("readahead/covered");
  metric_evictions_ = registry.GetCounter("readahead/evictions");
}

void ReadAheadExecutor::Bind(uint64_t key, Page* page) {
  ANGEL_CHECK(page != nullptr) << "binding null page";
  entries_[key].page = page;
}

void ReadAheadExecutor::BeginStep() {
  planner_->BeginStep();
  SettleMoves(/*block=*/false);
  TopUp();
}

bool ReadAheadExecutor::OccupiesFetchTier(const Entry& entry) const {
  // A fetching page holds its target frame from submission; an evicting page
  // holds its source frame until the write-back lands.
  return entry.op != OpState::kIdle ||
         entry.page->device() == options_.fetch_device;
}

size_t ReadAheadExecutor::OccupiedCount() const {
  size_t count = 0;
  for (const auto& [key, entry] : entries_) {
    if (OccupiesFetchTier(entry)) ++count;
  }
  return count;
}

void ReadAheadExecutor::SettleMoves(bool block) {
  for (auto& [key, entry] : entries_) {
    if (entry.op == OpState::kIdle) continue;
    if (!block && entry.move.wait_for(std::chrono::seconds(0)) !=
                      std::future_status::ready) {
      continue;
    }
    const util::Status status = entry.move.get();
    if (!status.ok()) {
      // A failed fetch left the page on the backing tier (Acquire recovers
      // on demand); a failed eviction left it resident (harmless).
      ++stats_.failed_moves;
      ANGEL_LOG(Warning) << "read-ahead move for key " << key << " failed: "
                         << status.ToString();
    }
    entry.op = OpState::kIdle;
  }
}

util::Status ReadAheadExecutor::EvictOneSync(uint64_t protect) {
  std::vector<uint64_t> candidates;
  for (const auto& [key, entry] : entries_) {
    if (key != protect && entry.op == OpState::kIdle &&
        entry.page->device() == options_.fetch_device) {
      candidates.push_back(key);
    }
  }
  if (candidates.empty()) {
    return util::Status::ResourceExhausted(
        "no evictable page on the fetch tier");
  }
  uint64_t victim = planner_->trained()
                        ? planner_->PickEvictionVictim(candidates)
                        : candidates.front();
  ANGEL_RETURN_IF_ERROR(
      memory_->MovePageSync(entries_[victim].page, options_.backing_device));
  ++stats_.evictions;
  metric_evictions_->Increment();
  return util::Status::OK();
}

util::Result<Page*> ReadAheadExecutor::Acquire(uint64_t key) {
  const auto it = entries_.find(key);
  if (it == entries_.end() || it->second.page == nullptr) {
    return util::Status::NotFound("no page bound for key " +
                                  std::to_string(key));
  }
  Entry& entry = it->second;
  SettleMoves(/*block=*/false);
  planner_->OnUse(key);

  bool need_sync_fetch = false;
  if (entry.op == OpState::kFetching) {
    // Prefetch was issued but has not landed: covered, but we block.
    ++stats_.covered;
    metric_covered_->Increment();
    ++stats_.waits;
    metric_waits_->Increment();
    const util::Status status = entry.move.get();
    entry.op = OpState::kIdle;
    if (!status.ok()) {
      ++stats_.failed_moves;
      need_sync_fetch = true;
    }
  } else if (entry.op == OpState::kEvicting) {
    // The planner mispredicted badly enough that this page is being written
    // back right as it is needed; wait out the eviction, then refetch.
    const util::Status status = entry.move.get();
    entry.op = OpState::kIdle;
    if (!status.ok()) ++stats_.failed_moves;
    ++stats_.waits;
    metric_waits_->Increment();
    need_sync_fetch = entry.page->device() != options_.fetch_device;
  } else if (entry.page->device() == options_.fetch_device) {
    ++stats_.hits;
    metric_hits_->Increment();
    ++stats_.covered;
    metric_covered_->Increment();
  } else {
    // No prefetch was ever issued: plain miss.
    ++stats_.waits;
    metric_waits_->Increment();
    need_sync_fetch = true;
  }

  if (need_sync_fetch) {
    ++stats_.sync_fetches;
    for (;;) {
      const util::Status status =
          memory_->MovePageSync(entry.page, options_.fetch_device);
      if (status.ok()) break;
      if (!status.IsResourceExhausted()) return status;
      // Fetch tier full: settle in-flight moves (they may be releasing
      // frames), then force out a victim and retry.
      SettleMoves(/*block=*/true);
      if (entry.page->device() == options_.fetch_device) break;
      ANGEL_RETURN_IF_ERROR(EvictOneSync(key));
    }
  }

  // The page just acquired is the caller's until the next Acquire, but the
  // planner has moved past it: in a sawtooth order it is the farthest next
  // use, the natural Belady victim. Protect it from this top-up's
  // write-backs.
  TopUp(key);
  return entry.page;
}

void ReadAheadExecutor::TopUp(std::optional<uint64_t> acquired) {
  if (!planner_->trained()) return;
  const std::vector<uint64_t> lookahead =
      planner_->LookaheadKeys(options_.window);
  std::unordered_set<uint64_t> protected_keys(lookahead.begin(),
                                              lookahead.end());
  if (acquired.has_value()) protected_keys.insert(*acquired);
  size_t occupied = OccupiedCount();
  for (const uint64_t key : lookahead) {
    const auto it = entries_.find(key);
    if (it == entries_.end() || it->second.page == nullptr) continue;
    Entry& entry = it->second;
    if (OccupiesFetchTier(entry)) continue;
    if (occupied >= options_.max_resident) {
      // Budget exhausted: start write-backs of the farthest-next-use
      // residents. Their frames free asynchronously; the window refills on
      // the next Acquire.
      std::vector<uint64_t> candidates;
      for (const auto& [candidate_key, candidate] : entries_) {
        if (candidate.op == OpState::kIdle &&
            candidate.page->device() == options_.fetch_device &&
            protected_keys.find(candidate_key) == protected_keys.end()) {
          candidates.push_back(candidate_key);
        }
      }
      const uint64_t victim = planner_->PickEvictionVictim(candidates);
      if (victim == PrefetchPlanner::kNoVictim) break;
      Entry& victim_entry = entries_[victim];
      victim_entry.move =
          engine_->MoveAsync(victim_entry.page, options_.backing_device);
      victim_entry.op = OpState::kEvicting;
      ++stats_.evictions;
      metric_evictions_->Increment();
      break;
    }
    entry.move = engine_->MoveAsync(entry.page, options_.fetch_device);
    entry.op = OpState::kFetching;
    ++occupied;
  }
}

util::Status ReadAheadExecutor::Drain() {
  util::Status first_error;
  for (auto& [key, entry] : entries_) {
    if (entry.op == OpState::kIdle) continue;
    const util::Status status = entry.move.get();
    entry.op = OpState::kIdle;
    if (!status.ok()) {
      ++stats_.failed_moves;
      if (first_error.ok()) first_error = status;
    }
  }
  return first_error;
}

}  // namespace angelptm::mem
