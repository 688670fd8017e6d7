// Workload definitions, per-pass results, and the metric derivations shared
// by the benchmark's entry point.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/obs/metrics.h"
#include "src/trace/synthetic.h"

namespace perfbench {

struct WorkloadConfig {
  std::string name;
  int n = 4;
  int k = 3;
  int users = 1;
  int weeks = 8;
  double scale = 8;  // SyntheticDataset size factor (1.0 = 4 MiB per user-week)
  uint32_t keep_last = 2;
  WireLink link;
  size_t container_cache_bytes = 32 << 20;
  bool replay = false;  // server_ingest: replay captured client frames
  // Reopen + cold restore rounds per pass: the restore is the shortest phase,
  // so it is measured several times per pass (fewer where the wire makes
  // each round long).
  int cold_restores = 5;
  // Full backups per untraced pass: the phase script's own, plus stand-alone
  // ones into fresh deployments, so the one-off first generation gets as
  // many samples per run as the other phases.
  int full_rounds = 3;
};

// Returns false for an unknown workload name. `selftest` shrinks the inputs.
bool MakeWorkload(const std::string& name, bool selftest, WorkloadConfig* out);
cdstore::SyntheticDatasetOptions DatasetOptions(const WorkloadConfig& cfg, uint64_t seed);

// Correctness gates: every check is one attempted operation.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool Expect(bool ok, const std::string& what);
  bool ExpectOk(const Status& st, const std::string& what) {
    return Expect(st.ok(), what + ": " + st.ToString());
  }
};

using Window = std::pair<uint64_t, uint64_t>;  // [start_ns, end_ns)

// One pass of the phase script: set up, full backup, incremental backups,
// server reopen + cold restore (cold_restores times), retention, GC — then
// the gates.
struct PassResult {
  double setup_s = 0;
  double full_s = 0;
  double incr_s = 0;
  double reopen_s = 0;  // mean over the pass's reopens
  double restore_s = 0;
  double retention_s = 0;
  double gc_s = 0;
  uint64_t full_bytes = 0;
  uint64_t incr_bytes = 0;
  uint64_t restore_bytes = 0;  // all cold restores of the pass
  uint64_t backend_bytes_after_backup = 0;
  uint64_t backup_request_bytes = 0;

  // The parts of the phases, timed one by one for the end-to-end medians:
  // one entry per full-backup round, per incremental week, per reopen +
  // cold restore round, and per cloud (retention, GC).
  std::vector<double> full_round_s;
  std::vector<double> incr_week_s;
  std::vector<uint64_t> incr_week_bytes;
  std::vector<double> reopen_round_s;
  std::vector<double> restore_round_s;
  uint64_t restore_round_bytes = 0;
  std::vector<double> retention_cloud_s;
  std::vector<double> gc_cloud_s;
  double peak_rss_mib = 0;  // the pass's resident-set high-water mark

  // Traced pass only.
  std::vector<Span> spans;
  std::array<std::vector<Window>, kNumPhases> windows;
  uint64_t physical_after_backup = 0;  // share bytes stored, all clouds
  uint64_t kv_bytes_after_backup = 0;
  uint64_t kv_files_after_backup = 0;
  uint64_t kv_bytes_after_gc = 0;
  uint64_t kv_files_after_gc = 0;
  std::vector<cdstore::MetricSample> registry;

  double TimedSeconds() const {
    return full_s + incr_s + reopen_s + restore_s + retention_s + gc_s;
  }
};

// Everything a pass needs besides its config.
struct PassEnv {
  std::string dir;  // scratch for this pass's index directories
  SpanLog* log = nullptr;
  cdstore::MetricRegistry* metrics = nullptr;  // set on the traced pass only
  bool traced = false;
};

// Runs `fn` as a timed phase: the span log's phase is set for its duration
// and the wall-clock window is recorded. Returns seconds.
template <typename Fn>
double TimePhase(const PassEnv& env, PassResult* r, int phase, Fn&& fn) {
  env.log->set_phase(phase);
  uint64_t start = NowNs();
  fn();
  uint64_t end = NowNs();
  env.log->set_phase(kVerify);
  r->windows[phase].push_back({start, end});
  return static_cast<double>(end - start) / 1e9;
}

// --- series_cpu / series_wan ------------------------------------------------
void RunSeriesPass(const WorkloadConfig& cfg, const cdstore::SyntheticDataset& data,
                   const PassEnv& env, PassResult* r, Checks* checks);
// One stand-alone, untraced full backup of the first generation into a
// fresh deployment under `dir`; returns its seconds.
double SeriesFullRound(const WorkloadConfig& cfg, ConstByteSpan week0, const std::string& dir,
                       Checks* checks);

// --- server_ingest ----------------------------------------------------------
struct CapturedFrame {
  int cloud = 0;
  int tag = 0;  // week index, or kRestoreTag
  Bytes request;
  Bytes reply;
};
inline constexpr int kRestoreTag = -1;

struct CapturedUser {
  uint64_t user = 0;
  std::vector<CapturedFrame> frames;  // in the order the client issued them
  std::vector<Bytes> path_keys;       // per cloud, from the PutFile frames
};

// Captures every user's RPC frames from real clients on a scratch deployment
// (benchmark input preparation, not timed).
std::vector<CapturedUser> CaptureIngest(const WorkloadConfig& cfg,
                                        const cdstore::SyntheticDataset& data,
                                        const std::string& dir, Checks* checks);
void RunIngestPass(const WorkloadConfig& cfg, const cdstore::SyntheticDataset& data,
                   const std::vector<CapturedUser>& users, const PassEnv& env, PassResult* r,
                   Checks* checks);
double IngestFullRound(const WorkloadConfig& cfg, const std::vector<CapturedUser>& users,
                       const std::string& dir, Checks* checks);

// --- shared gate helpers ----------------------------------------------------
inline const std::string kSeriesPath = "/fsl/home";
std::string UserPath(int user_index);
Result<Bytes> PathKeyOf(const Bytes& put_file_frame);
Result<std::vector<cdstore::VersionInfo>> ListVersionsOn(cdstore::Transport* t, uint64_t user,
                                                         const Bytes& path_key);
Status GcOn(cdstore::Transport* t);
Status RetentionOn(cdstore::Transport* t, uint64_t user, const Bytes& path_key,
                   uint32_t keep_last);
inline uint64_t WeekTimestampMs(int week) {
  return static_cast<uint64_t>(week + 1) * 7ull * 24 * 3600 * 1000;
}

// --- per-layer metrics --------------------------------------------------------
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Standalone replays of the client-side kernels over the workload's bytes,
// plus the primitive ceilings they are compared against.
struct KernelReplay {
  double chunk_ns_per_mib = 0;
  double avg_chunk_bytes = 0;
  double encode_ns_per_mib_1t = 0;
  double encode_ns_per_mib_mt = 0;
  double decode_ns_per_mib = 0;
  double fingerprint_ns_per_mib = 0;  // per MiB of share bytes
  double sha256_mibps = 0;
  double aes_ctr_mibps = 0;
  double rs_encode_mibps = 0;
};
KernelReplay ReplayKernels(const WorkloadConfig& cfg, ConstByteSpan data, Checks* checks);

// `full_mibps` / `restore_mibps` are the untraced medians, set against the
// wire ceiling.
std::vector<Metric> LayerMetrics(const WorkloadConfig& cfg, const PassResult& traced,
                                 const KernelReplay& kernels, double full_mibps,
                                 double restore_mibps, double trace_overhead_frac);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
