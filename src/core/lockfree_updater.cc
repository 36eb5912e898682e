#include "core/lockfree_updater.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <unordered_map>

#include "obs/trace.h"
#include "train/simd/half_codec.h"
#include "util/fault_injector.h"
#include "util/logging.h"

namespace angelptm::core {
namespace {

/// fp16 words per seqlock payload word (two halves packed per uint32_t).
size_t MirrorWords(size_t count) { return (count + 1) / 2; }

}  // namespace

LockFreeUpdater::LockFreeUpdater(Allocator* allocator, const Options& options)
    : allocator_(allocator), options_(options) {
  obs::Registry& registry = obs::Registry::Instance();
  metric_updates_applied_ = registry.GetCounter("updater/updates_applied");
  metric_grad_batches_offloaded_ =
      registry.GetCounter("updater/grad_batches_offloaded");
  metric_pending_batches_ = registry.GetGauge("updater/pending_batches");
  metric_staleness_ = registry.GetHistogram("updater/staleness");
  metric_read_ahead_hits_ = registry.GetCounter("updater/read_ahead_hits");
  metric_read_ahead_waits_ = registry.GetCounter("updater/read_ahead_waits");
  if (options_.master_device == mem::DeviceKind::kSsd) {
    master_io_ = std::make_unique<util::ThreadPool>(1);
  }

  auto optimizer = Optimizer::Create(options_.optimizer);
  if (optimizer.ok()) {
    optimizer_ = std::move(optimizer).value();
  } else {
    // Constructors cannot fail; poisoning makes the configuration error
    // surface on the first AddLayer / FetchParams instead of crashing.
    Poison(optimizer.status());
  }
}

LockFreeUpdater::~LockFreeUpdater() {
  Stop();  // Settles every master transfer too.
  for (auto& layer : layers_) {
    for (Tensor* tensor : {layer->p32, layer->buffered_params,
                           layer->buffered_grads}) {
      if (tensor != nullptr) (void)allocator_->Release(tensor);
    }
    for (Tensor* tensor : layer->slots) {
      if (tensor != nullptr) (void)allocator_->Release(tensor);
    }
  }
}

const std::string& LockFreeUpdater::optimizer_rule() const {
  return optimizer_ != nullptr ? optimizer_->name() : options_.optimizer.rule;
}

util::Result<int> LockFreeUpdater::AddLayer(
    const std::vector<float>& initial_params) {
  if (poisoned_.load(std::memory_order_acquire)) return status();
  if (running_.load()) {
    return util::Status::FailedPrecondition(
        "cannot add layers while the updater is running");
  }
  if (initial_params.empty()) {
    return util::Status::InvalidArgument("layer with no parameters");
  }
  auto layer = std::make_unique<Layer>();
  layer->count = initial_params.size();
  layer->slot_layout = optimizer_->SlotLayout(layer->count);
  const std::vector<size_t> shape = {layer->count};
  // Masters and fp16 buffers get distinct groups: grouped tensors share
  // tail pages and therefore co-migrate, and the buffers must stay on the
  // CPU tier while the masters move to the master device.
  const uint64_t group = 1000 + 2 * layers_.size();
  const uint64_t buffer_group = group + 1;

  // Master states start on the CPU tier so they can be initialized, then
  // migrate to the configured master device (a real file write for SSD).
  ANGEL_ASSIGN_OR_RETURN(
      layer->p32,
      allocator_->Allocate(shape, DType::kFp32, mem::DeviceKind::kCpu, group));
  for (const SlotSpec& spec : layer->slot_layout) {
    ANGEL_ASSIGN_OR_RETURN(
        Tensor * slot,
        allocator_->Allocate({spec.count}, spec.dtype, mem::DeviceKind::kCpu,
                             group));
    layer->slots.push_back(slot);
  }
  ANGEL_ASSIGN_OR_RETURN(
      layer->buffered_params,
      allocator_->Allocate(shape, DType::kFp16, mem::DeviceKind::kCpu,
                           buffer_group));
  ANGEL_ASSIGN_OR_RETURN(
      layer->buffered_grads,
      allocator_->Allocate(shape, DType::kFp16, mem::DeviceKind::kCpu,
                           buffer_group));

  ANGEL_RETURN_IF_ERROR(layer->p32->WriteFloats(initial_params));
  for (size_t s = 0; s < layer->slots.size(); ++s) {
    const std::vector<float> slot_zeros(layer->slot_layout[s].count, 0.0f);
    ANGEL_RETURN_IF_ERROR(layer->slots[s]->WriteFloats(slot_zeros));
  }
  const std::vector<float> zeros(layer->count, 0.0f);
  ANGEL_RETURN_IF_ERROR(layer->buffered_grads->WriteFloats(zeros));
  layer->param_mirror.Reset(MirrorWords(layer->count));
  {
    util::MutexLock lock(layer->buffer_mutex);
    ANGEL_RETURN_IF_ERROR(InstallParams(*layer, initial_params));
  }

  ANGEL_RETURN_IF_ERROR(MoveMasters(*layer, options_.master_device));
  {
    util::MutexLock lock(backpressure_mutex_);
    inflight_batches_.push_back(0);
  }
  layers_.push_back(std::move(layer));
  return static_cast<int>(layers_.size()) - 1;
}

std::vector<Tensor*> LockFreeUpdater::Masters(const Layer& layer) {
  std::vector<Tensor*> masters = {layer.p32};
  masters.insert(masters.end(), layer.slots.begin(), layer.slots.end());
  return masters;
}

util::Status LockFreeUpdater::MoveMasters(Layer& layer,
                                          mem::DeviceKind device) {
  return allocator_->Move(Masters(layer), device);
}

bool LockFreeUpdater::MastersOnSsd(const Layer& layer) {
  for (const Tensor* tensor : Masters(layer)) {
    for (const mem::Page* page : tensor->pages()) {
      if (page->device() == mem::DeviceKind::kSsd) return true;
    }
  }
  return false;
}

void LockFreeUpdater::IssueMasterIo(Layer& layer, mem::DeviceKind device) {
  const bool is_read = device != mem::DeviceKind::kSsd;
  auto done = std::make_shared<std::promise<util::Status>>();
  layer.master_io = done->get_future();
  layer.master_io_is_read = is_read;
  Layer* target = &layer;
  const bool submitted = master_io_->Submit([this, target, device, is_read,
                                             done] {
    // Once poisoned, queued transfers are dropped: their masters stay
    // intact where they are.
    if (poisoned_.load(std::memory_order_acquire)) {
      done->set_value(status());
      return;
    }
    util::Status moved;
    {
      ANGEL_SPAN("updater", is_read ? "master_read" : "master_write");
      moved = MoveMasters(*target, device);
    }
    // Poison before resolving, so a write-behind nobody settles still
    // stops the updater and surfaces at the next barrier.
    if (!moved.ok()) Poison(moved);
    done->set_value(moved);
  });
  if (!submitted) {
    done->set_value(
        util::Status::FailedPrecondition("master I/O thread shut down"));
  }
}

util::Status LockFreeUpdater::SettleMasterIo(Layer& layer) {
  if (!layer.master_io.valid()) return util::Status::OK();
  return layer.master_io.get();  // get() leaves the future empty.
}

void LockFreeUpdater::SettleAllMasterIo() {
  for (auto& layer : layers_) {
    util::MutexLock master_lock(layer->master_mutex);
    // A failed transfer has poisoned the updater already.
    (void)SettleMasterIo(*layer);
  }
}

void LockFreeUpdater::ReadAhead(int layer_index) {
  Layer& layer = *layers_[size_t(layer_index)];
  util::MutexLock master_lock(layer.master_mutex);
  if (layer.master_io.valid() && layer.master_io_is_read) return;
  // A write-behind still pending is settled first: one transfer per layer.
  // In a sweep of more than two layers it was issued a full sweep ago.
  if (!SettleMasterIo(layer).ok()) return;
  if (MastersOnSsd(layer)) IssueMasterIo(layer, mem::DeviceKind::kCpu);
}

util::Status LockFreeUpdater::FetchMasters(Layer& layer) {
  if (layer.master_io.valid() && layer.master_io_is_read &&
      layer.master_io.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
    read_ahead_waits_.fetch_add(1);
    metric_read_ahead_waits_->Increment();
  }
  ANGEL_RETURN_IF_ERROR(SettleMasterIo(layer));
  if (MastersOnSsd(layer)) {
    // A miss: the first update, or a write-behind still pending.
    return MoveMasters(layer, mem::DeviceKind::kCpu);
  }
  // Read ahead: settled just now, or earlier by a snapshot or master read.
  read_ahead_hits_.fetch_add(1);
  metric_read_ahead_hits_->Increment();
  return util::Status::OK();
}

util::Status LockFreeUpdater::ReadMastersInPlace(
    const Layer& layer, std::vector<float>* params,
    std::vector<std::vector<float>>* slots) {
  const std::vector<Tensor*> masters =
      slots != nullptr ? Masters(layer) : std::vector<Tensor*>{layer.p32};
  // Stage every distinct SSD page (grouped tensors share tail pages) in
  // ascending file order, so the queue coalesces adjacent frames.
  std::vector<const mem::Page*> on_ssd;
  for (const Tensor* tensor : masters) {
    for (const mem::Page* page : tensor->pages()) {
      if (page->device() == mem::DeviceKind::kSsd &&
          std::find(on_ssd.begin(), on_ssd.end(), page) == on_ssd.end()) {
        on_ssd.push_back(page);
      }
    }
  }
  std::sort(on_ssd.begin(), on_ssd.end(),
            [](const mem::Page* a, const mem::Page* b) {
              return a->ssd_offset() < b->ssd_offset();
            });
  std::unordered_map<const mem::Page*, const std::byte*> staged;
  std::vector<std::byte> staging;
  if (!on_ssd.empty()) {
    mem::SsdTier* ssd = allocator_->memory()->ssd();
    const size_t page_bytes = allocator_->memory()->page_bytes();
    staging.resize(on_ssd.size() * page_bytes);
    std::vector<std::future<util::Status>> reads;
    reads.reserve(on_ssd.size());
    for (size_t i = 0; i < on_ssd.size(); ++i) {
      reads.push_back(ssd->ReadFrameAsync(on_ssd[i]->ssd_offset(),
                                          staging.data() + i * page_bytes,
                                          on_ssd[i]->total_bytes()));
      staged.emplace(on_ssd[i], staging.data() + i * page_bytes);
    }
    // Settle every read before returning: each one points into `staging`.
    util::Status first_error;
    for (auto& read : reads) {
      const util::Status status = read.get();
      if (first_error.ok()) first_error = status;
    }
    ANGEL_RETURN_IF_ERROR(first_error);
  }
  const Tensor::PageBytes bytes_of =
      [&staged](const mem::Page& page) -> const std::byte* {
    if (page.device() != mem::DeviceKind::kSsd) return page.data_ptr();
    const auto it = staged.find(&page);
    return it == staged.end() ? nullptr : it->second;
  };
  ANGEL_RETURN_IF_ERROR(layer.p32->ReadFloats(bytes_of, params));
  if (slots != nullptr) {
    slots->resize(layer.slots.size());
    for (size_t s = 0; s < layer.slots.size(); ++s) {
      ANGEL_RETURN_IF_ERROR(layer.slots[s]->ReadFloats(bytes_of, &(*slots)[s]));
    }
  }
  return util::Status::OK();
}

util::Status LockFreeUpdater::InstallParams(
    Layer& layer, const std::vector<float>& values) {
  // One encode feeds both copies, so p'16 and the mirror hold the same
  // bits. The halves are padded to whole mirror words and copied into them
  // with memcpy (no aliasing cast over the words).
  std::vector<uint16_t> halves(2 * MirrorWords(layer.count), 0);
  simd::FloatsToHalfBits(values.data(), halves.data(), layer.count);
  ANGEL_RETURN_IF_ERROR(layer.buffered_params->CopyIn(
      reinterpret_cast<const std::byte*>(halves.data()),
      layer.count * sizeof(uint16_t)));
  std::vector<uint32_t> words(MirrorWords(layer.count));
  std::memcpy(words.data(), halves.data(), words.size() * sizeof(uint32_t));
  layer.param_mirror.Write(words.data());
  return util::Status::OK();
}

util::Status LockFreeUpdater::FetchParams(int layer_index,
                                          std::vector<float>* out) const {
  std::vector<uint16_t> bits;
  ANGEL_RETURN_IF_ERROR(FetchParamBits(layer_index, &bits));
  out->resize(bits.size());
  simd::HalfBitsToFloats(bits.data(), out->data(), bits.size());
  return util::Status::OK();
}

util::Status LockFreeUpdater::FetchParamBits(
    int layer_index, std::vector<uint16_t>* out) const {
  if (poisoned_.load(std::memory_order_acquire)) return status();
  if (layer_index < 0 || layer_index >= num_layers()) {
    return util::Status::InvalidArgument("bad layer index");
  }
  ANGEL_SPAN("updater", "fetch_params");
  const Layer& layer = *layers_[layer_index];
  // Lockless read (DESIGN.md §13): a consistent seqlock snapshot of the
  // published fp16 bits, never contending with the buffering thread.
  std::vector<uint32_t> words(layer.param_mirror.num_words());
  layer.param_mirror.Read(words.data());
  out->resize(layer.count);
  std::memcpy(out->data(), words.data(), layer.count * sizeof(uint16_t));
  return util::Status::OK();
}

util::Result<uint64_t> LockFreeUpdater::ParamsVersion(int layer_index) const {
  if (layer_index < 0 || layer_index >= num_layers()) {
    return util::Status::InvalidArgument("bad layer index");
  }
  return layers_[layer_index]->param_mirror.version();
}

util::Status LockFreeUpdater::OffloadGrads(int layer_index,
                                           const std::vector<float>& grads) {
  // Fail fast once poisoned: accepting more gradients would only grow the
  // queue behind a dead updating thread.
  if (poisoned_.load(std::memory_order_acquire)) return status();
  if (layer_index < 0 || layer_index >= num_layers()) {
    return util::Status::InvalidArgument("bad layer index");
  }
  if (grads.size() != layers_[layer_index]->count) {
    return util::Status::InvalidArgument("gradient size mismatch");
  }
  ANGEL_SPAN("updater", "offload_grads");
  if (running_.load()) {
    // Staleness valve (see the class comment): wait while this layer is at
    // the in-flight bound so an oversubscribed compute loop cannot run
    // unboundedly ahead of the updating thread. The timed wait is only a
    // backstop; UpdateLayer notifies after taking the layer's batches, and
    // poison / Stop are re-checked so a dead updater never wedges us here.
    {
      util::MutexLock lock(backpressure_mutex_);
      const size_t bound = options_.max_pending_batches_per_layer;
      bool waited = false;
      while (bound > 0 &&
             inflight_batches_[size_t(layer_index)] >= bound &&
             running_.load() &&
             !poisoned_.load(std::memory_order_acquire)) {
        waited = true;
        (void)backpressure_cv_.WaitFor(backpressure_mutex_,
                                       std::chrono::milliseconds(10));
      }
      if (poisoned_.load(std::memory_order_acquire)) return status();
      inflight_batches_[size_t(layer_index)] += 1;
      if (waited) backpressure_waits_.fetch_add(1);
    }
    grad_batches_offloaded_.fetch_add(1);
    metric_grad_batches_offloaded_->Increment();
    metric_pending_batches_->Set(
        static_cast<int64_t>(pending_grad_batches()));
    {
      util::MutexLock lock(queue_mutex_);
      buffer_queue_.push_back(BufferTask{layer_index, false, grads});
      queue_cv_.NotifyOne();
    }
    // Wake the updating thread (it re-checks after the buffering thread
    // actually accumulates, so a wakeup that arrives early is harmless).
    SignalWork();
    return util::Status::OK();
  }
  // Synchronous mode: accumulate inline (the buffering thread's job). No
  // valve — UpdateOnce applies inline, so nothing can run ahead.
  grad_batches_offloaded_.fetch_add(1);
  metric_grad_batches_offloaded_->Increment();
  metric_pending_batches_->Set(
      static_cast<int64_t>(pending_grad_batches()));
  Layer& layer = *layers_[layer_index];
  util::MutexLock lock(layer.buffer_mutex);
  std::vector<float> accumulated;
  ANGEL_RETURN_IF_ERROR(layer.buffered_grads->ReadFloats(&accumulated));
  for (size_t i = 0; i < accumulated.size(); ++i) accumulated[i] += grads[i];
  ANGEL_RETURN_IF_ERROR(layer.buffered_grads->WriteFloats(accumulated));
  layer.pending_batches += 1;
  return util::Status::OK();
}

void LockFreeUpdater::Start() {
  if (running_.exchange(true)) return;
  buffering_thread_ = std::thread([this] { BufferingThreadLoop(); });
  updating_thread_ = std::thread([this] { UpdatingThreadLoop(); });
}

void LockFreeUpdater::Stop() {
  if (running_.exchange(false)) {
    WakeQueueWaiters();
    backpressure_cv_.NotifyAll();
    SignalWork();
    // The updating thread may still be queueing an install; the buffering
    // thread drains the queue before it exits, so join them in that order.
    if (updating_thread_.joinable()) updating_thread_.join();
    if (buffering_thread_.joinable()) buffering_thread_.join();
  }
  // Transfers outlive the update that issued them, inline ones included.
  SettleAllMasterIo();
}

void LockFreeUpdater::WakeQueueWaiters() {
  util::MutexLock lock(queue_mutex_);
  queue_cv_.NotifyAll();
  drain_cv_.NotifyAll();
}

void LockFreeUpdater::SignalWork() {
  {
    util::MutexLock lock(work_mutex_);
    work_epoch_ += 1;
  }
  work_cv_.NotifyAll();
}

util::Result<bool> LockFreeUpdater::UpdateLayer(int layer_index) {
  Layer* layer = layers_[layer_index].get();
  // Snapshot-and-clear the accumulated fp16 gradients (see class comment).
  std::vector<float> grads;
  uint64_t batches_taken = 0;
  {
    util::MutexLock lock(layer->buffer_mutex);
    if (layer->pending_batches == 0) return false;
    ANGEL_RETURN_IF_ERROR(layer->buffered_grads->ReadFloats(&grads));
    const std::vector<float> zeros(layer->count, 0.0f);
    ANGEL_RETURN_IF_ERROR(layer->buffered_grads->WriteFloats(zeros));
    batches_taken = layer->pending_batches;
    layer->pending_batches = 0;
  }
  // Traced from here on: the updating thread probes every layer per sweep,
  // and the idle probes (returned above) would outnumber real updates.
  ANGEL_SPAN("updater", "update_layer");
  {
    // Taken: no later batch can fold into this update (AwaitStepStart).
    util::MutexLock lock(queue_mutex_);
    grad_batches_taken_ += batches_taken;
    drain_cv_.NotifyAll();
  }
  {
    // Release the staleness valve: these batches are no longer in flight.
    // Saturating, because batches offloaded in synchronous mode (no valve
    // accounting) may be taken here after a Stop().
    util::MutexLock lock(backpressure_mutex_);
    uint64_t& inflight = inflight_batches_[size_t(layer_index)];
    inflight -= std::min(inflight, batches_taken);
  }
  backpressure_cv_.NotifyAll();
  // Average the accumulated gradient batches.
  if (batches_taken > 1) {
    const float inv = 1.0f / float(batches_taken);
    for (float& g : grads) g *= inv;
  }

  // Fetch fp32 states from the master device (Algorithm 2 line 4; a real
  // SSD read when the master tier is the SSD). The master mutex quiesces
  // this one layer against concurrent checkpoint snapshots. With SSD
  // masters the next layer of the sweep (cyclic, so layer 0 is followed by
  // the last one, ready for the next step) is read ahead first, under its
  // own master mutex alone: never two at once.
  const bool on_ssd = options_.master_device == mem::DeviceKind::kSsd;
  if (on_ssd) {
    ReadAhead(layer_index > 0 ? layer_index - 1 : num_layers() - 1);
  }
  {
    util::MutexLock master_lock(layer->master_mutex);
    if (on_ssd) ANGEL_RETURN_IF_ERROR(FetchMasters(*layer));
    std::vector<float> p;
    ANGEL_RETURN_IF_ERROR(layer->p32->ReadFloats(&p));
    std::vector<std::vector<float>> slot_values(layer->slots.size());
    std::vector<SlotView> views(layer->slots.size());
    for (size_t s = 0; s < layer->slots.size(); ++s) {
      ANGEL_RETURN_IF_ERROR(layer->slots[s]->ReadFloats(&slot_values[s]));
      views[s] = SlotView{slot_values[s].data(), slot_values[s].size()};
    }

    layer->step += 1;
    ANGEL_RETURN_IF_ERROR(optimizer_->Update(p.data(), grads.data(),
                                             layer->count, views,
                                             layer->step));

    ANGEL_RETURN_IF_ERROR(layer->p32->WriteFloats(p));
    for (size_t s = 0; s < layer->slots.size(); ++s) {
      ANGEL_RETURN_IF_ERROR(layer->slots[s]->WriteFloats(slot_values[s]));
    }

    // Hand the fresh parameters to the buffering side (line 6), overlapping
    // with the SSD write-back (line 7), which is issued behind it.
    if (running_.load()) {
      util::MutexLock lock(queue_mutex_);
      buffer_queue_.push_back(BufferTask{layer_index, true, p});
      installs_queued_ += 1;
      queue_cv_.NotifyOne();
    } else {
      util::MutexLock lock(layer->buffer_mutex);
      ANGEL_RETURN_IF_ERROR(InstallParams(*layer, p));
    }

    if (on_ssd) IssueMasterIo(*layer, mem::DeviceKind::kSsd);
  }
  updates_applied_.fetch_add(1);
  {
    // Under queue_mutex_, so a DrainUpdates waiter that just found the
    // count short is already waiting when the notify lands.
    util::MutexLock lock(queue_mutex_);
    grad_batches_applied_.fetch_add(batches_taken);
    drain_cv_.NotifyAll();
  }
  metric_updates_applied_->Increment();
  metric_staleness_->Record(batches_taken);
  metric_pending_batches_->Set(
      static_cast<int64_t>(pending_grad_batches()));
  {
    util::MutexLock lock(staleness_mutex_);
    staleness_.Record(batches_taken);
  }
  return true;
}

void LockFreeUpdater::UpdatingThreadLoop() {
  while (running_.load() && !poisoned_.load(std::memory_order_acquire)) {
    uint64_t epoch_seen;
    {
      util::MutexLock lock(work_mutex_);
      epoch_seen = work_epoch_;
    }
    bool any = false;
    // Algorithm 2 line 3: walk layers in reverse (gradients arrive in
    // backward order, so the last layers are dirty first).
    for (int i = num_layers() - 1; i >= 0 && running_.load(); --i) {
      auto updated = UpdateLayer(i);
      if (!updated.ok()) {
        // An error here (e.g. an SSD failure that survived the retry
        // policy) is unrecoverable for this thread: poison the updater so
        // the compute side and DrainUpdates observe it instead of hanging.
        Poison(updated.status());
        return;
      }
      any = any || *updated;
    }
    if (!any) {
      // Idle: sleep until SignalWork bumps the epoch (grads offloaded /
      // accumulated, poison, Stop). A signal that fired mid-scan shows as
      // a changed epoch, so no wakeup is ever lost. The timed backstop
      // only bounds the cost of a hypothetical missed signal.
      bool woken_by_work = false;
      {
        util::MutexLock lock(work_mutex_);
        while (work_epoch_ == epoch_seen && running_.load() &&
               !poisoned_.load(std::memory_order_acquire)) {
          if (!work_cv_.WaitFor(work_mutex_, std::chrono::milliseconds(10))) {
            break;
          }
        }
        woken_by_work = work_epoch_ != epoch_seen;
      }
      if (woken_by_work && options_.updater_coalesce_us > 0 &&
          running_.load() && !poisoned_.load(std::memory_order_acquire)) {
        // Coalescing window (see the class comment): the signal was the
        // first gradient of a backward pass; give the rest of the pass a
        // moment to land so the sweep folds them into one update instead
        // of degenerating into per-gradient single-batch updates.
        std::this_thread::sleep_for(
            std::chrono::microseconds(options_.updater_coalesce_us));
      }
    }
  }
}

void LockFreeUpdater::BufferingThreadLoop() {
  for (;;) {
    BufferTask task;
    {
      util::MutexLock lock(queue_mutex_);
      while (buffer_queue_.empty() && running_.load() &&
             !poisoned_.load(std::memory_order_acquire)) {
        queue_cv_.Wait(queue_mutex_);
      }
      if (poisoned_.load(std::memory_order_acquire)) return;
      if (buffer_queue_.empty()) {
        if (!running_.load()) return;
        continue;
      }
      task = std::move(buffer_queue_.front());
      buffer_queue_.pop_front();
    }
    Layer& layer = *layers_[task.layer];
    ANGEL_SPAN("updater",
               task.is_params ? "buffer_install" : "buffer_accumulate");
    util::Status status;
    if (task.is_params) {
      // Install updated parameters into p'16 (Algorithm 2 line 13) and
      // publish the new version through the seqlock mirror.
      {
        util::MutexLock lock(layer.buffer_mutex);
        status =
            util::FaultInjector::Instance().Check("updater.buffer_install");
        if (status.ok()) status = InstallParams(layer, task.data);
      }
      if (!status.ok()) {
        // A failed install leaves the compute side reading stale (but
        // consistent) parameters forever; that is silent divergence, so
        // treat it as fatal rather than logging and moving on.
        Poison(status);
        return;
      }
      // Counted only now that FetchParams can see it: this, not the empty
      // queue, is what releases the DrainUpdates barrier.
      util::MutexLock lock(queue_mutex_);
      installs_published_ += 1;
      drain_cv_.NotifyAll();
      continue;
    }
    {
      // Accumulate into g'16 (line 15).
      util::MutexLock lock(layer.buffer_mutex);
      std::vector<float> accumulated;
      status =
          util::FaultInjector::Instance().Check("updater.buffer_accumulate");
      if (status.ok()) status = layer.buffered_grads->ReadFloats(&accumulated);
      if (status.ok()) {
        for (size_t i = 0; i < accumulated.size(); ++i) {
          accumulated[i] += task.data[i];
        }
        status = layer.buffered_grads->WriteFloats(accumulated);
      }
      // A lost batch must not be marked pending: the updater would apply a
      // zero (or partial) gradient and report it drained.
      if (status.ok()) layer.pending_batches += 1;
    }
    if (!status.ok()) {
      Poison(status);
      return;
    }
    // The gradient is now visible to UpdateLayer: wake the updating thread.
    SignalWork();
  }
}

util::Status LockFreeUpdater::UpdateOnce() {
  if (poisoned_.load(std::memory_order_acquire)) return status();
  if (running_.load()) {
    return util::Status::FailedPrecondition(
        "UpdateOnce is the synchronous path; Stop() the threads first");
  }
  for (int i = num_layers() - 1; i >= 0; --i) {
    const util::Status layer_status = UpdateLayer(i).status();
    if (!layer_status.ok()) {
      Poison(layer_status);
      return layer_status;
    }
  }
  return util::Status::OK();
}

util::Status LockFreeUpdater::DrainUpdates(std::chrono::milliseconds deadline) {
  const auto deadline_at = std::chrono::steady_clock::now() + deadline;
  for (;;) {
    {
      util::MutexLock lock(queue_mutex_);
      for (;;) {
        if (poisoned_.load(std::memory_order_acquire)) return status();
        // Applied *and* published: an install popped off the queue is not
        // yet visible to FetchParams (see installs_published_).
        if (installs_published_ == installs_queued_ &&
            grad_batches_applied_.load() == grad_batches_offloaded_.load()) {
          return util::Status::OK();
        }
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline_at) {
          return util::Status::DeadlineExceeded(
              "DrainUpdates: " + std::to_string(pending_grad_batches()) +
              " gradient batches still pending after " +
              std::to_string(deadline.count()) + "ms");
        }
        if (!running_.load()) break;
        (void)drain_cv_.WaitFor(queue_mutex_, deadline_at - now);
      }
    }
    // No threads to make progress; apply inline.
    ANGEL_RETURN_IF_ERROR(UpdateOnce());
  }
}

util::Status LockFreeUpdater::AwaitStepStart(
    std::chrono::milliseconds deadline) {
  ANGEL_SPAN("updater", "await_step_start");
  const auto deadline_at = std::chrono::steady_clock::now() + deadline;
  util::MutexLock lock(queue_mutex_);
  for (;;) {
    if (poisoned_.load(std::memory_order_acquire)) return status();
    if (!running_.load()) return util::Status::OK();
    // Applied *and* published, as in DrainUpdates: the layers outside the
    // bound must start the step with their fresh parameters visible. And
    // taken: a batch still waiting for its update would fold with the
    // same layer's batch of the new step.
    if (pending_grad_batches() <= kStepStartPendingBatches &&
        grad_batches_taken_ == grad_batches_offloaded_.load() &&
        installs_published_ == installs_queued_) {
      return util::Status::OK();
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline_at) {
      return util::Status::DeadlineExceeded(
          "AwaitStepStart: " + std::to_string(pending_grad_batches()) +
          " gradient batches still pending after " +
          std::to_string(deadline.count()) + "ms");
    }
    (void)drain_cv_.WaitFor(queue_mutex_, deadline_at - now);
  }
}

util::Status LockFreeUpdater::status() const {
  // Lockless fast path and slow path alike: the acquire load pairs with
  // Poison's release store, after which poison_status_ is immutable.
  if (!poisoned_.load(std::memory_order_acquire)) return util::Status::OK();
  return poison_status_;
}

void LockFreeUpdater::Poison(const util::Status& status) {
  {
    util::MutexLock lock(poison_mutex_);
    // Keep the first (root-cause) error; later failures are usually
    // downstream of it. The mutex serializes racing Poison calls only —
    // readers never take it (see the poison_status_ comment in the header).
    if (poisoned_.load(std::memory_order_relaxed)) return;
    poison_status_ = status;
    poisoned_.store(true, std::memory_order_release);
  }
  ANGEL_LOG(Error) << "lock-free updater poisoned: " << status.ToString();
  // Wake both background threads, DrainUpdates waiters and any compute
  // thread blocked on the staleness valve so they observe the state
  // promptly.
  WakeQueueWaiters();
  backpressure_cv_.NotifyAll();
  SignalWork();
}

util::Status LockFreeUpdater::ReadMasterParams(int layer_index,
                                               std::vector<float>* out) {
  if (poisoned_.load(std::memory_order_acquire)) return status();
  if (layer_index < 0 || layer_index >= num_layers()) {
    return util::Status::InvalidArgument("bad layer index");
  }
  Layer& layer = *layers_[layer_index];
  util::MutexLock master_lock(layer.master_mutex);
  ANGEL_RETURN_IF_ERROR(SettleMasterIo(layer));
  return ReadMastersInPlace(layer, out, nullptr);
}

util::Status LockFreeUpdater::SnapshotLayerState(int layer_index,
                                                 LayerState* out) {
  if (layer_index < 0 || layer_index >= num_layers()) {
    return util::Status::InvalidArgument("bad layer index");
  }
  ANGEL_SPAN("updater", "snapshot_layer");
  Layer& layer = *layers_[layer_index];
  // The per-layer quiesce: while held, the updating thread cannot start or
  // finish this layer's master update, so params/slots/step are a
  // consistent cut. Everything else (other layers, the compute side, the
  // buffering thread) keeps running.
  util::MutexLock master_lock(layer.master_mutex);
  // A failed transfer left every unmoved page intact on its source, so the
  // in-place read below is exact either way; the poison reports it.
  (void)SettleMasterIo(layer);
  std::vector<std::vector<float>> slot_values;
  ANGEL_RETURN_IF_ERROR(
      ReadMastersInPlace(layer, &out->params, &slot_values));
  out->slots.clear();
  out->slots.resize(layer.slots.size());
  for (size_t s = 0; s < layer.slots.size(); ++s) {
    out->slots[s].name = layer.slot_layout[s].name;
    out->slots[s].values = std::move(slot_values[s]);
  }
  out->step = layer.step;
  return util::Status::OK();
}

util::Status LockFreeUpdater::ImportLayerState(int layer_index,
                                               const LayerState& state) {
  if (layer_index < 0 || layer_index >= num_layers()) {
    return util::Status::InvalidArgument("bad layer index");
  }
  if (running_.load()) {
    return util::Status::FailedPrecondition(
        "Stop() the updater before importing state");
  }
  Layer& layer = *layers_[layer_index];
  if (state.params.size() != layer.count) {
    return util::Status::InvalidArgument("checkpoint state size mismatch");
  }
  if (state.slots.size() != layer.slot_layout.size()) {
    return util::Status::InvalidArgument(
        "checkpoint has " + std::to_string(state.slots.size()) +
        " optimizer slots but rule '" + optimizer_rule() + "' declares " +
        std::to_string(layer.slot_layout.size()));
  }
  for (size_t s = 0; s < state.slots.size(); ++s) {
    if (state.slots[s].name != layer.slot_layout[s].name ||
        state.slots[s].values.size() != layer.slot_layout[s].count) {
      return util::Status::InvalidArgument(
          "checkpoint slot '" + state.slots[s].name + "' (" +
          std::to_string(state.slots[s].values.size()) +
          " elements) does not match rule '" + optimizer_rule() +
          "' slot '" + layer.slot_layout[s].name + "' (" +
          std::to_string(layer.slot_layout[s].count) + " elements)");
    }
  }
  util::MutexLock master_lock(layer.master_mutex);
  ANGEL_RETURN_IF_ERROR(SettleMasterIo(layer));
  const bool on_ssd = MastersOnSsd(layer);
  if (on_ssd) ANGEL_RETURN_IF_ERROR(MoveMasters(layer, mem::DeviceKind::kCpu));
  ANGEL_RETURN_IF_ERROR(layer.p32->WriteFloats(state.params));
  for (size_t s = 0; s < layer.slots.size(); ++s) {
    ANGEL_RETURN_IF_ERROR(layer.slots[s]->WriteFloats(state.slots[s].values));
  }
  layer.step = state.step;
  if (on_ssd) ANGEL_RETURN_IF_ERROR(MoveMasters(layer, mem::DeviceKind::kSsd));
  // Refresh the compute-side fp16 view and drop stale gradients.
  uint64_t dropped = 0;
  {
    util::MutexLock lock(layer.buffer_mutex);
    ANGEL_RETURN_IF_ERROR(InstallParams(layer, state.params));
    const std::vector<float> zeros(layer.count, 0.0f);
    ANGEL_RETURN_IF_ERROR(layer.buffered_grads->WriteFloats(zeros));
    dropped = layer.pending_batches;
    layer.pending_batches = 0;
  }
  // A dropped batch is settled as far as the barriers and the valve are
  // concerned; left counted, DrainUpdates and AwaitStepStart would wait
  // for it until their deadline.
  {
    util::MutexLock lock(backpressure_mutex_);
    uint64_t& inflight = inflight_batches_[size_t(layer_index)];
    inflight -= std::min(inflight, dropped);
  }
  util::MutexLock lock(queue_mutex_);
  grad_batches_taken_ += dropped;
  grad_batches_applied_.fetch_add(dropped);
  drain_cv_.NotifyAll();
  return util::Status::OK();
}

LockFreeUpdater::Stats LockFreeUpdater::Snapshot() const {
  Stats stats;
  stats.updates_applied = updates_applied_.load();
  stats.grad_batches_offloaded = grad_batches_offloaded_.load();
  stats.grad_batches_applied = grad_batches_applied_.load();
  stats.pending_grad_batches = pending_grad_batches();
  stats.backpressure_waits = backpressure_waits_.load();
  stats.read_ahead_hits = read_ahead_hits_.load();
  stats.read_ahead_waits = read_ahead_waits_.load();
  {
    util::MutexLock lock(staleness_mutex_);
    stats.staleness = staleness_;
  }
  return stats;
}

uint64_t LockFreeUpdater::pending_grad_batches() const {
  const uint64_t offloaded = grad_batches_offloaded_.load();
  const uint64_t applied = grad_batches_applied_.load();
  return offloaded > applied ? offloaded - applied : 0;
}

}  // namespace angelptm::core
