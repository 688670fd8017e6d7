// Benchmark harness: an in-memory span log plus thin wrappers around the
// public entry points of each layer the benchmark attributes time to —
// Transport::Call (client <-> cloud wire), the ServerService handler
// (CdstoreServer::Handle), StorageBackend Put/Get/Delete/List/Exists, and
// ByteSink::Append. The program's own Tracer and MetricRegistry are not
// used here; with the span log disabled every wrapper is a plain forward.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/server.h"
#include "src/net/message.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/storage/backend.h"
#include "src/util/byte_sink.h"

namespace perfbench {

using cdstore::Bytes;
using cdstore::ConstByteSpan;
using cdstore::Result;
using cdstore::Status;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// The phases of one pass of the workload script. Spans carry the phase
// that was current when they started.
enum Phase : int {
  kSetup = 0,
  kBackupFull,
  kBackupIncr,
  kReopen,
  kRestore,
  kRetention,
  kGc,
  kVerify,  // correctness gates; never timed
  kNumPhases,
};
const char* PhaseName(int phase);

enum class SpanKind : uint8_t { kRpc, kHandler, kBackend, kSink };
enum class BackendOp : uint8_t { kPut, kGet, kDelete, kList, kExists };

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // enclosing span on the same thread, 0 = none
  SpanKind kind = SpanKind::kRpc;
  uint8_t op = 0;  // request MsgType (rpc, handler) or BackendOp
  int cloud = -1;
  int phase = -1;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t bytes_in = 0;   // request / put payload / sink bytes
  uint64_t bytes_out = 0;  // reply / get payload
  uint64_t items = 0;      // FpQuery: fingerprints asked; UploadShares: share bytes
  uint64_t hits = 0;       // FpQuery: fingerprints already stored by the user
};

// Spans kept in memory for the whole traced pass and read out at its end.
// Parenting is per thread: a span opened while another is open on the same
// thread becomes its child (the in-process transport runs the handler, and
// the handler runs the backend, on the caller's thread).
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, SpanKind kind, uint8_t op, int cloud);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    bool active() const { return log_ != nullptr; }
    Span& span() { return span_; }

   private:
    SpanLog* log_;
    Span span_;
    uint64_t saved_parent_ = 0;
  };

  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_phase(int phase) { phase_.store(phase); }
  int phase() const { return phase_.load(std::memory_order_relaxed); }

  std::vector<Span> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<int> phase_{kSetup};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// Simulated per-cloud link, charged the way bench_generations' DelayTransport
// does: latency + request bytes / rate before the handler, reply bytes /
// rate after it. A zero rate means no wire cost at all.
struct WireLink {
  double latency_s = 0;
  double bytes_per_s = 0;
  bool limited() const { return bytes_per_s > 0; }
};

// Wraps one cloud's ServerService handler behind Transport::Call. The
// server is rebound on reopen; calls must not be in flight then.
class CloudTransport : public cdstore::Transport {
 public:
  // Sees every request/reply pair (frame capture for replay workloads).
  using Recorder = std::function<void(int cloud, ConstByteSpan request, const Bytes& reply)>;

  CloudTransport(int cloud, WireLink link, SpanLog* log) : cloud_(cloud), link_(link), log_(log) {}

  void Bind(cdstore::CdstoreServer* server) { server_.store(server); }
  // Correctness gates run with the simulated link switched off: they are
  // never timed, and skipping the wire leaves more of a run for passes.
  void set_wire(bool on) { wire_on_.store(on); }
  void set_recorder(Recorder recorder) { recorder_ = std::move(recorder); }

  Result<Bytes> Call(ConstByteSpan request) override;

  uint64_t request_bytes() const { return request_bytes_.load(); }
  // The most recent PutFile request frame (it carries this cloud's path key).
  Bytes last_put_file() const;

 private:
  Bytes Handle(ConstByteSpan request);  // the server handler span

  const int cloud_;
  const WireLink link_;
  SpanLog* const log_;
  std::atomic<cdstore::CdstoreServer*> server_{nullptr};
  std::atomic<bool> wire_on_{true};
  Recorder recorder_;
  std::atomic<uint64_t> request_bytes_{0};
  mutable std::mutex mu_;
  Bytes last_put_file_;
};

// One cloud's object store: a MemBackend behind span-recording forwards.
class CloudBackend : public cdstore::StorageBackend {
 public:
  CloudBackend(int cloud, SpanLog* log) : cloud_(cloud), log_(log) {}

  Status Put(const std::string& name, ConstByteSpan data) override;
  Result<Bytes> Get(const std::string& name) override;
  Status Delete(const std::string& name) override;
  Result<std::vector<std::string>> List() override;
  bool Exists(const std::string& name) override;

  uint64_t total_bytes() const { return mem_.total_bytes(); }

 private:
  const int cloud_;
  SpanLog* const log_;
  cdstore::MemBackend mem_;
};

// Restore sink that compares the restored stream with the generator's
// bytes as it arrives, so a restore is byte-verified without buffering it.
class VerifySink : public cdstore::ByteSink {
 public:
  VerifySink(ConstByteSpan expected, SpanLog* log) : expected_(expected), log_(log) {}

  Status Append(ConstByteSpan data) override;
  bool matched() const { return !mismatch_ && offset_ == expected_.size(); }

 private:
  ConstByteSpan expected_;
  SpanLog* log_;
  size_t offset_ = 0;
  bool mismatch_ = false;
};

struct DeploymentOptions {
  int n = 4;
  WireLink link;
  size_t container_cache_bytes = 32 << 20;
  std::string dir;  // index directories live under here
  SpanLog* log = nullptr;
  cdstore::MetricRegistry* metrics = nullptr;  // program metrics (traced pass only)
};

// n clouds: backend + CDStore server + transport each. The backends (the
// cloud object stores) outlive server reopens; the index directories are
// removed with the deployment.
class Deployment {
 public:
  static Result<std::unique_ptr<Deployment>> Create(const DeploymentOptions& options);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Closes every server (sealing open containers) and re-creates all n on
  // the populated store.
  Status Reopen();
  void SetWire(bool on);

  int n() const { return opts_.n; }
  std::vector<cdstore::Transport*> transports() const;
  CloudTransport* transport(int i) const { return transports_[i].get(); }
  cdstore::CdstoreServer* server(int i) const { return servers_[i].get(); }

  uint64_t BackendBytes() const;
  uint64_t PhysicalShareBytes() const;
  uint64_t RequestBytes() const;
  // Bytes and file count of every server's index (kvstore) directory.
  void IndexDirUsage(uint64_t* bytes, uint64_t* files) const;

 private:
  explicit Deployment(const DeploymentOptions& options) : opts_(options) {}
  Status OpenServers();
  void CloseServers();

  DeploymentOptions opts_;
  std::vector<std::unique_ptr<CloudBackend>> backends_;
  std::vector<std::unique_ptr<CloudTransport>> transports_;
  std::vector<std::unique_ptr<cdstore::CdstoreServer>> servers_;
};

// Process high-water resident set, MiB.
double PeakRssMiB();
// Returns freed heap to the kernel and restarts the high-water mark from the
// current resident set, so PeakRssMiB then covers only what follows.
void ResetPeakRss();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
