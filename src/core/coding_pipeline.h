// Multi-threaded CAONT-RS encode/decode at secret granularity (§4.6): each
// secret from the chunking module is dispatched to a worker; results keep
// the input order.
//
// Two modes:
//  - EncodeAll/DecodeAll: one batch over a materialized list. DecodeAll
//    decodes each download batch of the pipelined restore; EncodeAll serves
//    the encode benchmarks and stands as the reference the streaming
//    encoder is tested against.
//  - Stream: a streaming encode session for the upload pipeline. Submit()
//    feeds secrets (zero-copy spans where the caller's buffer outlives the
//    stream); workers encode and fingerprint concurrently; the sink receives
//    per-secret share bundles in submission order as soon as the gap-free
//    prefix completes, so uploaders start transferring while later secrets
//    are still being chunked and encoded. Backpressure: Submit blocks when
//    the bounded input queue is full, and a sink that blocks (e.g. on a full
//    per-cloud queue) stalls delivery, which in turn fills the input queue.
#ifndef CDSTORE_SRC_CORE_CODING_PIPELINE_H_
#define CDSTORE_SRC_CORE_CODING_PIPELINE_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/dedup/fingerprint.h"
#include "src/dispersal/secret_sharing.h"
#include "src/obs/trace.h"
#include "src/util/bounded_queue.h"
#include "src/util/sync.h"
#include "src/util/thread_pool.h"

namespace cdstore {

class CodingPipeline {
 public:
  // One encoded secret: n shares plus their fingerprints, tagged with the
  // submission index.
  struct EncodedSecret {
    uint64_t seq = 0;
    uint32_t secret_size = 0;
    std::vector<Bytes> shares;
    std::vector<Fingerprint> fps;
  };
  // Receives bundles in seq order. Called from worker threads, one call at
  // a time; may block to exert backpressure.
  using BundleSink = std::function<void(EncodedSecret)>;

  // `scheme` must be safe for concurrent Encode/Decode calls (all schemes
  // in this library are: their only shared state is the thread-safe DRBG).
  CodingPipeline(SecretSharing* scheme, int num_threads);

  // Encodes secrets[i] -> shares_per_secret[i] (n shares each).
  Status EncodeAll(const std::vector<Bytes>& secrets,
                   std::vector<std::vector<Bytes>>* shares_per_secret);

  // Decodes per-secret share subsets. ids[i] names the clouds that
  // produced shares[i]; secret_sizes[i] strips padding. The shares view
  // caller-owned reply frames, which must stay alive for the duration of
  // the call (zero-copy decode path of the pipelined download).
  Status DecodeAll(const std::vector<std::vector<int>>& ids,
                   const std::vector<std::vector<ConstByteSpan>>& shares,
                   const std::vector<size_t>& secret_sizes, std::vector<Bytes>* secrets);

  class Stream {
   public:
    ~Stream();  // joins workers (discarding undelivered work) if not Finished

    Stream(const Stream&) = delete;
    Stream& operator=(const Stream&) = delete;

    // Zero-copy submission: `secret` must stay valid until its bundle has
    // been delivered to the sink (e.g. a slice of the caller's upload
    // buffer). Blocks when the pipeline is at capacity. Returns the first
    // encode error once one has occurred.
    Status Submit(ConstByteSpan secret);
    // Owning submission for buffers that die after the call (chunker
    // internals).
    Status Submit(Bytes secret);

    // Ends the input, drains every in-flight secret through the sink, stops
    // the workers, and returns the first encode error (if any).
    Status Finish();

   private:
    friend class CodingPipeline;
    struct Task {
      uint64_t seq = 0;
      Bytes owned;         // empty for zero-copy submissions
      ConstByteSpan view;  // the secret bytes (into `owned` or caller memory)
    };

    Stream(CodingPipeline* parent, BundleSink sink, size_t queue_depth, Tracer* tracer,
           TraceContext trace_ctx);
    Status SubmitTask(Task task);
    void WorkerLoop();
    void Deliver(EncodedSecret bundle);

    CodingPipeline* parent_;
    BundleSink sink_;
    // Trace identity of the request this stream encodes for (set before the
    // workers start, read-only afterwards): each worker's encode_worker span
    // and the reorder-buffer delivery spans parent under it.
    Tracer* tracer_;
    TraceContext trace_ctx_;
    BoundedQueue<Task> input_;
    // Touched only by the submitting thread (Submit/Finish are documented
    // single-caller), so it needs no lock.
    uint64_t next_submit_seq_ = 0;

    Mutex mu_;
    CondVar done_cv_;
    std::map<uint64_t, EncodedSecret> reorder_ GUARDED_BY(mu_);
    uint64_t next_deliver_seq_ GUARDED_BY(mu_) = 0;
    bool delivering_ GUARDED_BY(mu_) = false;
    int active_workers_ GUARDED_BY(mu_) = 0;
    Status first_error_ GUARDED_BY(mu_);
    bool finished_ GUARDED_BY(mu_) = false;
  };

  // Starts a streaming encode session. `queue_depth` bounds the number of
  // in-flight secrets (backpressure). The stream borrows this pipeline's
  // worker pool: no EncodeAll/DecodeAll/OpenStream call may overlap it.
  // `tracer`/`trace_ctx` (both optional) attach the stream to a request
  // trace: workers record encode_worker/reorder spans under `trace_ctx`.
  std::unique_ptr<Stream> OpenStream(BundleSink sink, size_t queue_depth = 64,
                                     Tracer* tracer = nullptr, TraceContext trace_ctx = {});

  int num_threads() const { return pool_.num_threads(); }

 private:
  SecretSharing* scheme_;
  ThreadPool pool_;
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_CORE_CODING_PIPELINE_H_
