#include "src/core/coding_pipeline.h"

#include <atomic>

#include "src/util/logging.h"
#include "src/util/sync.h"

namespace cdstore {

namespace {
// Secrets per worker task: amortizes queue overhead against ~8KB secrets.
constexpr size_t kBatch = 32;
}  // namespace

CodingPipeline::CodingPipeline(SecretSharing* scheme, int num_threads)
    : scheme_(scheme), pool_(num_threads) {
  CHECK(scheme != nullptr);
}

Status CodingPipeline::EncodeAll(const std::vector<Bytes>& secrets,
                                 std::vector<std::vector<Bytes>>* shares_per_secret) {
  shares_per_secret->assign(secrets.size(), {});
  Mutex err_mu;
  Status first_error;
  for (size_t base = 0; base < secrets.size(); base += kBatch) {
    size_t end = std::min(secrets.size(), base + kBatch);
    pool_.Submit([this, &secrets, shares_per_secret, &err_mu, &first_error, base, end]() {
      for (size_t i = base; i < end; ++i) {
        Status st = scheme_->Encode(secrets[i], &(*shares_per_secret)[i]);
        if (!st.ok()) {
          MutexLock lock(err_mu);
          if (first_error.ok()) {
            first_error = st;
          }
          return;
        }
      }
    });
  }
  pool_.Wait();
  return first_error;
}

// ------------------------------------------------------------- streaming --

std::unique_ptr<CodingPipeline::Stream> CodingPipeline::OpenStream(BundleSink sink,
                                                                   size_t queue_depth,
                                                                   Tracer* tracer,
                                                                   TraceContext trace_ctx) {
  return std::unique_ptr<Stream>(
      new Stream(this, std::move(sink), queue_depth, tracer, trace_ctx));
}

CodingPipeline::Stream::Stream(CodingPipeline* parent, BundleSink sink, size_t queue_depth,
                               Tracer* tracer, TraceContext trace_ctx)
    : parent_(parent),
      sink_(std::move(sink)),
      tracer_(tracer),
      trace_ctx_(trace_ctx),
      input_(queue_depth) {
  CHECK(sink_ != nullptr);
  int workers = parent_->pool_.num_threads();
  {
    MutexLock lock(mu_);
    active_workers_ = workers;
  }
  for (int i = 0; i < workers; ++i) {
    parent_->pool_.Submit([this]() { WorkerLoop(); });
  }
}

CodingPipeline::Stream::~Stream() {
  // Destruction discards the error deliberately: an abandoned stream only
  // needs its workers joined. Callers that care about the result call
  // Finish() themselves first.
  (void)Finish();
}

Status CodingPipeline::Stream::Submit(ConstByteSpan secret) {
  Task task;
  task.view = secret;
  return SubmitTask(std::move(task));
}

Status CodingPipeline::Stream::Submit(Bytes secret) {
  Task task;
  task.owned = std::move(secret);
  task.view = task.owned;  // vector moves keep the heap buffer stable
  return SubmitTask(std::move(task));
}

Status CodingPipeline::Stream::SubmitTask(Task task) {
  {
    MutexLock lock(mu_);
    if (!first_error_.ok()) {
      return first_error_;
    }
    if (finished_) {
      return Status::Internal("Submit after Finish");
    }
  }
  task.seq = next_submit_seq_;
  if (!input_.Push(std::move(task))) {
    return Status::Internal("stream input closed");
  }
  ++next_submit_seq_;
  return Status::Ok();
}

Status CodingPipeline::Stream::Finish() {
  {
    MutexLock lock(mu_);
    if (finished_) {
      return first_error_;
    }
    finished_ = true;
  }
  input_.Close();
  MutexLock lock(mu_);
  done_cv_.Wait(mu_, [this]() REQUIRES(mu_) {
    return active_workers_ == 0 && !delivering_ && reorder_.empty();
  });
  return first_error_;
}

void CodingPipeline::Stream::WorkerLoop() {
  // One span per worker per stream, covering the whole loop: its duration
  // next to the secrets encoded shows whether the worker computed or sat
  // blocked on input (chunker-bound) / delivery (uploader-bound). The span
  // scope closes (recording the span) BEFORE the active_workers_ decrement
  // below: once Finish() observes the drained state a dump must already
  // contain this span, or its reorder children would dangle.
  {
    ScopedSpan worker_span(tracer_, "encode_worker", trace_ctx_);
    uint64_t encoded = 0;
    while (auto task = input_.Pop()) {
      EncodedSecret bundle;
      bundle.seq = task->seq;
      bundle.secret_size = static_cast<uint32_t>(task->view.size());
      bool healthy;
      {
        MutexLock lock(mu_);
        healthy = first_error_.ok();
      }
      if (healthy) {
        ++encoded;
        Status st = parent_->scheme_->Encode(task->view, &bundle.shares);
        if (st.ok()) {
          // Fingerprinting here (not in the sink) keeps the SHA-256 over
          // each share on the parallel workers.
          bundle.fps.reserve(bundle.shares.size());
          for (const Bytes& s : bundle.shares) {
            bundle.fps.push_back(FingerprintOf(s));
          }
        } else {
          bundle.shares.clear();
          MutexLock lock(mu_);
          if (first_error_.ok()) {
            first_error_ = st;
          }
        }
      }
      Deliver(std::move(bundle));
    }
    worker_span.AnnotateKV("secrets", encoded);
  }
  {
    MutexLock lock(mu_);
    --active_workers_;
    // Notify under mu_: Finish() can only observe the decrement after the
    // notify returns, so ~Stream never destroys the cv mid-notify.
    done_cv_.SignalAll();
  }
}

void CodingPipeline::Stream::Deliver(EncodedSecret bundle) {
  MutexLock lock(mu_);
  reorder_.emplace(bundle.seq, std::move(bundle));
  if (delivering_) {
    // Another worker owns the gap-free prefix; it will pick this one up.
    return;
  }
  delivering_ = true;
  {
    // Spans one drain of the gap-free prefix: how long the delivering
    // worker was pinned to the sink instead of encoding. Nests under this
    // worker's encode_worker span (the thread-current context). Scoped so
    // the span records before delivering_ clears — Finish() may return the
    // moment it does, and a dump then must already hold the span.
    ScopedSpan reorder_span(tracer_, "reorder");
    uint64_t delivered = 0;
    auto it = reorder_.find(next_deliver_seq_);
    while (it != reorder_.end()) {
      EncodedSecret ready = std::move(it->second);
      reorder_.erase(it);
      bool deliver = first_error_.ok();
      lock.Unlock();
      if (deliver) {
        sink_(std::move(ready));
        ++delivered;
      }
      lock.Lock();
      ++next_deliver_seq_;
      it = reorder_.find(next_deliver_seq_);
    }
    reorder_span.AnnotateKV("bundles", delivered);
  }
  delivering_ = false;
  // Only Finish waits on done_cv_, and only for the fully-drained state.
  // Notified under mu_ so the waiter cannot finish and destroy the cv
  // while this thread is still inside notify_all.
  if (finished_ && reorder_.empty()) {
    done_cv_.SignalAll();
  }
}

Status CodingPipeline::DecodeAll(const std::vector<std::vector<int>>& ids,
                                 const std::vector<std::vector<ConstByteSpan>>& shares,
                                 const std::vector<size_t>& secret_sizes,
                                 std::vector<Bytes>* secrets) {
  if (ids.size() != shares.size() || shares.size() != secret_sizes.size()) {
    return Status::InvalidArgument("decode input arity mismatch");
  }
  secrets->assign(shares.size(), {});
  Mutex err_mu;
  Status first_error;
  for (size_t base = 0; base < shares.size(); base += kBatch) {
    size_t end = std::min(shares.size(), base + kBatch);
    pool_.Submit([this, &ids, &shares, &secret_sizes, secrets, &err_mu, &first_error, base,
                  end]() {
      for (size_t i = base; i < end; ++i) {
        Status st = scheme_->DecodeSpans(ids[i], shares[i], secret_sizes[i], &(*secrets)[i]);
        if (!st.ok()) {
          MutexLock lock(err_mu);
          if (first_error.ok()) {
            first_error = st;
          }
          return;
        }
      }
    });
  }
  pool_.Wait();
  return first_error;
}

}  // namespace cdstore
