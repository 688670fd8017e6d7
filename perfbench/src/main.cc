// CDStore end-to-end benchmark. Runs one workload's phase script (set up,
// full backup, incremental backups, server reopen, cold restore, retention,
// GC) repeatedly for --seconds, gates every pass on correctness, and prints
// the end-to-end metrics (--trace 0, medians over passes) or the per-layer
// breakdown of a traced pass (--trace 1) as the last line of stdout:
//
//   perfbench --workload series_cpu --seed 1 --seconds 50 --trace 0 --workdir DIR
//
// See perfbench/README.md for the metric definitions and workloads.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/crypto/aes256.h"
#include "src/crypto/sha256.h"
#include "src/gf256/gf256.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kSetupRepsPerPass = 32;
constexpr size_t kSetupBatch = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string workdir;
  std::string command;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--selftest") {
      a->selftest = val == "1";
    } else if (key == "--workdir") {
      a->workdir = val;
    } else if (key == "--command") {
      a->command = val;
    } else if (key == "--git-sha") {
      a->git_sha = val;
    } else if (key == "--src-digest") {
      a->src_digest = val;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  return !a->workload.empty() && !a->workdir.empty() && a->seconds > 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

template <typename Fn>
double MedianOver(const std::vector<PassResult>& passes, Fn&& fn) {
  std::vector<double> v;
  for (const PassResult& p : passes) {
    v.push_back(fn(p));
  }
  return Median(v);
}

double MiBps(uint64_t bytes, double s) {
  return s <= 0 ? 0 : static_cast<double>(bytes) / kMiB / s;
}

// A phase made of distinct parts (one per week, one per cloud) takes the
// sum over its parts of each part's median across passes, so a burst of
// host load spoils one sample of one part, not the phase of a whole pass.
double SumOfPartMedians(const std::vector<PassResult>& passes,
                        std::vector<double> PassResult::*parts) {
  double sum = 0;
  for (size_t i = 0; i < (passes.front().*parts).size(); ++i) {
    std::vector<double> v;
    for (const PassResult& p : passes) {
      if (i < (p.*parts).size()) {  // a pass cut short by a failed gate lacks parts
        v.push_back((p.*parts)[i]);
      }
    }
    sum += Median(v);
  }
  return sum;
}

// Interchangeable parts (full-backup rounds, cold restores) pool their
// samples across passes into one median.
double PooledMedian(const std::vector<PassResult>& passes,
                    std::vector<double> PassResult::*parts) {
  std::vector<double> v;
  for (const PassResult& p : passes) {
    v.insert(v.end(), (p.*parts).begin(), (p.*parts).end());
  }
  return Median(v);
}

// Writes back the index directories' dirty pages (and the removal of the
// previous pass's) before the next timed work, so kernel writeback of one
// pass never runs during another's phases or set-up samples.
void FlushWorkdir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

// Mean reopen of a pass. The first reopen also seals the backup's open
// containers and flushes its memtables; the later ones reopen a sealed store
// (a cold restore only reads). Each kind gets its own median, weighted by
// how often it happens in a pass, so the mix does not move the median.
double MeanReopen(const std::vector<PassResult>& passes) {
  std::vector<double> first;
  std::vector<double> later;
  for (const PassResult& p : passes) {
    for (size_t i = 0; i < p.reopen_round_s.size(); ++i) {
      (i == 0 ? first : later).push_back(p.reopen_round_s[i]);
    }
  }
  const double rounds = static_cast<double>(passes.front().reopen_round_s.size());
  return rounds == 0 ? 0 : (Median(first) + (rounds - 1) * Median(later)) / rounds;
}

// The samples of one part of a pass, for the per-pass log line.
std::string Samples(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof(buf), "%.3f", x);
    out += (out.empty() ? "" : " ") + std::string(buf);
  }
  return out;
}

// JSON string escaping for the provenance line (command lines may hold quotes).
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::vector<Metric> EndToEnd(const std::vector<PassResult>& passes,
                             const std::vector<double>& setup_samples) {
  auto logical = [](const PassResult& p) {
    return static_cast<double>(p.full_bytes + p.incr_bytes);
  };
  return {
      {"setup_s", Median(setup_samples), "s"},
      {"backup_full_mibps",
       MiBps(passes.front().full_bytes, PooledMedian(passes, &PassResult::full_round_s)),
       "MiB/s"},
      {"backup_incr_mibps",
       MiBps(passes.front().incr_bytes, SumOfPartMedians(passes, &PassResult::incr_week_s)),
       "MiB/s"},
      {"restore_mibps",
       MiBps(passes.front().restore_round_bytes,
             PooledMedian(passes, &PassResult::restore_round_s)),
       "MiB/s"},
      {"retention_s", SumOfPartMedians(passes, &PassResult::retention_cloud_s), "s"},
      {"gc_s", SumOfPartMedians(passes, &PassResult::gc_cloud_s), "s"},
      {"reopen_s", MeanReopen(passes), "s"},
      {"stored_per_logical",
       MedianOver(passes,
                  [&](const PassResult& p) {
                    return static_cast<double>(p.backend_bytes_after_backup) / logical(p);
                  }),
       "ratio"},
      {"wire_per_logical",
       MedianOver(passes,
                  [&](const PassResult& p) {
                    return static_cast<double>(p.backup_request_bytes) / logical(p);
                  }),
       "ratio"},
      {"peak_rss_mib", MedianOver(passes, [](const PassResult& p) { return p.peak_rss_mib; }),
       "MiB"},
  };
}

void PrintResult(const Checks& checks, const std::vector<Metric>& metrics) {
  std::printf("\n%-46s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-46s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double failed_frac = checks.attempted == 0 ? 1.0
                                                   : static_cast<double>(checks.failed) /
                                                         static_cast<double>(checks.attempted);
  std::printf("%-46s %16.6g  %s\n", "failed_ops_frac", failed_frac, "ratio");
  std::string json = "{\"correct\": ";
  json += checks.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.attempted);
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  WorkloadConfig cfg;
  if (!MakeWorkload(args.workload, args.selftest, &cfg)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  cdstore::SyntheticDataset data(DatasetOptions(cfg, args.seed));
  const std::string dir = args.workdir;
  std::filesystem::create_directories(dir);

  std::printf("provenance: {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
              "\"selftest\": %d, \"nproc\": %u, \"sha_ni\": %d, \"avx2\": %d, \"ssse3\": %d, "
              "\"aes_ni\": %d, \"build_type\": %s, \"git_sha\": %s, \"src_digest\": %s, "
              "\"command\": %s}\n",
              JsonString(cfg.name).c_str(), static_cast<unsigned long long>(args.seed),
              JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0, args.selftest ? 1 : 0,
              std::thread::hardware_concurrency(), cdstore::internal::ShaNiAvailable() ? 1 : 0,
              cdstore::internal::Avx2Available() ? 1 : 0,
              cdstore::internal::SimdAvailable() ? 1 : 0, cdstore::Aes256::HasAesni() ? 1 : 0,
              JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(args.git_sha).c_str(),
              JsonString(args.src_digest).c_str(), JsonString(args.command).c_str());
  std::printf("workload %s: n=%d k=%d users=%d weeks=%d ~%.1f MiB/user-week keep-last-%u "
              "link=%s container_cache=%zu MiB\n",
              cfg.name.c_str(), cfg.n, cfg.k, cfg.users, cfg.weeks,
              static_cast<double>(data.FileSize(0, 0)) / kMiB, cfg.keep_last,
              cfg.link.limited() ? "24MB/s+2ms per cloud" : "unlimited",
              cfg.container_cache_bytes >> 20);
  std::fflush(stdout);

  Checks checks;
  std::vector<CapturedUser> captured;
  if (cfg.replay) {
    captured = CaptureIngest(cfg, data, dir + "/capture", &checks);
  }

  // Stand-alone deployment set-ups, taken after each measured pass (a warm
  // process), so setup_s is a median of many samples rather than of the few
  // passes that fit in a run. A batch is torn down only after its last
  // sample, so no sample overlaps another's directory removal, and is kept
  // small, so no sample pays for many live deployments.
  std::vector<double> setup_samples;
  auto sample_setups = [&] {
    SpanLog off;
    std::vector<std::unique_ptr<Deployment>> batch;
    for (int i = 0; i < kSetupRepsPerPass; ++i) {
      if (batch.size() == kSetupBatch) {
        batch.clear();
        FlushWorkdir(dir);
      }
      DeploymentOptions o;
      o.n = cfg.n;
      o.container_cache_bytes = cfg.container_cache_bytes;
      o.dir = dir + "/setup" + std::to_string(setup_samples.size());
      o.log = &off;
      uint64_t start = NowNs();
      auto d = Deployment::Create(o);
      setup_samples.push_back(static_cast<double>(NowNs() - start) / 1e9);
      if (checks.ExpectOk(d.status(), "setup deployment")) {
        batch.push_back(std::move(d.value()));
      }
    }
  };

  // Pass 0 warms the process up (allocator, page faults, code paths) and is
  // left out of every median; its gates still count. Another pass starts
  // while it is expected to end within half a pass of --seconds, so a run
  // lasts --seconds give or take half a pass. With --trace 1 they alternate
  // untraced/traced, so the tracing overhead is measured within the run;
  // only the first traced pass keeps its spans. Untraced passes add
  // stand-alone full-backup rounds and set-up samples after their gates.
  SpanLog log;
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  Bytes week0 = cfg.replay ? Bytes() : data.FileFor(0, 0);
  const uint64_t start = NowNs();
  double last_pass_s = 0;
  for (int i = 0;; ++i) {
    double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    bool have_all = !untraced.empty() && (!args.trace || !traced.empty());
    if (checks.failed > 0 || (have_all && elapsed + last_pass_s / 2 > args.seconds)) {
      break;
    }
    const bool warmup = i == 0;
    const bool is_traced = args.trace && i > 0 && i % 2 == 0;
    FlushWorkdir(dir);
    cdstore::MetricRegistry registry;
    PassEnv env;
    env.dir = dir + "/pass" + std::to_string(i);
    env.log = &log;
    env.traced = is_traced;
    env.metrics = is_traced ? &registry : nullptr;
    log.set_enabled(is_traced);
    PassResult r;
    ResetPeakRss();
    uint64_t pass_start = NowNs();
    if (cfg.replay) {
      RunIngestPass(cfg, data, captured, env, &r, &checks);
    } else {
      RunSeriesPass(cfg, data, env, &r, &checks);
    }
    log.set_enabled(false);
    log.Take();
    r.peak_rss_mib = PeakRssMiB();
    if (!is_traced) {
      for (int k = 1; k < cfg.full_rounds && checks.failed == 0; ++k) {
        // Each round starts from a trimmed heap, as the pass's own does.
        FlushWorkdir(dir);
        ResetPeakRss();
        const std::string round_dir = dir + "/full" + std::to_string(k);
        r.full_round_s.push_back(cfg.replay ? IngestFullRound(cfg, captured, round_dir, &checks)
                                            : SeriesFullRound(cfg, week0, round_dir, &checks));
      }
    }
    last_pass_s = static_cast<double>(NowNs() - pass_start) / 1e9;
    std::printf("pass %d%s: setup %.4fs full %s s incr %.1f MiB/s reopen %s s restore "
                "%.1f MiB/s retention %.3fs gc %.3fs peak %.0f MiB (wall %.2fs)\n",
                i, warmup ? " [warm-up]" : is_traced ? " [traced]" : "", r.setup_s,
                Samples(r.full_round_s).c_str(), MiBps(r.incr_bytes, r.incr_s),
                Samples(r.reopen_round_s).c_str(),
                MiBps(r.restore_bytes, r.restore_s), r.retention_s, r.gc_s, r.peak_rss_mib,
                last_pass_s);
    std::fflush(stdout);
    if (warmup) {
      continue;
    }
    if (!is_traced) {
      setup_samples.push_back(r.setup_s);
      FlushWorkdir(dir);
      sample_setups();
      r.spans.clear();
      untraced.push_back(std::move(r));
    } else {
      if (!traced.empty()) {
        r.spans.clear();
      }
      traced.push_back(std::move(r));
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  if (untraced.empty() || (args.trace && traced.empty())) {
    PrintResult(checks, {});  // a gate failed before any pass completed
    return 1;
  }
  const PassResult& first = untraced.front();
  std::printf("sizing: one cloud stores %.1f MiB of shares = %.2fx the container cache\n",
              static_cast<double>(first.physical_after_backup) / cfg.n / kMiB,
              static_cast<double>(first.physical_after_backup) / cfg.n /
                  static_cast<double>(cfg.container_cache_bytes));

  std::vector<Metric> e2e = EndToEnd(untraced, setup_samples);
  if (!args.trace) {
    PrintResult(checks, e2e);
    return checks.failed == 0 ? 0 : 1;
  }

  // Traced run: kernel replays over the workload's own bytes, the traced
  // pass's layer breakdown, and the overhead against the untraced passes.
  Bytes sample = data.FileFor(0, 0);
  KernelReplay kernels = ReplayKernels(cfg, sample, &checks);
  const double overhead =
      MedianOver(traced, [](const PassResult& p) { return p.TimedSeconds(); }) /
          MedianOver(untraced, [](const PassResult& p) { return p.TimedSeconds(); }) -
      1;
  std::printf("traced pass end to end (tracing overhead %.1f%% of timed phases):\n",
              overhead * 100);
  for (const Metric& m : EndToEnd(traced, {traced.front().setup_s})) {
    std::printf("  traced %-36s %14.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  auto value = [&](const char* name) {
    for (const Metric& m : e2e) {
      if (m.name == name) {
        return m.value;
      }
    }
    return 0.0;
  };
  PrintResult(checks, LayerMetrics(cfg, traced.front(), kernels, value("backup_full_mibps"),
                                   value("restore_mibps"), overhead));
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--workdir DIR [--selftest 0|1] [--command STR] [--git-sha STR] "
                 "[--src-digest STR]\n");
    return 2;
  }
  return perfbench::Run(args);
}
