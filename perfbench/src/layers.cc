// Per-layer metrics: standalone kernel replays over the workload's own bytes,
// and the breakdown of one traced pass's spans by layer and phase.
#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "perfbench/src/bench.h"
#include "src/chunking/chunker.h"
#include "src/core/client.h"
#include "src/core/coding_pipeline.h"
#include "src/crypto/aes256.h"
#include "src/crypto/ctr.h"
#include "src/crypto/sha256.h"
#include "src/dedup/fingerprint.h"
#include "src/dispersal/aont_rs.h"
#include "src/rs/reed_solomon.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kReps = 3;
constexpr size_t kMaxReplayBytes = 16 << 20;

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

template <typename Fn>
double MedianSeconds(Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < kReps; ++i) {
    uint64_t start = NowNs();
    fn();
    s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  return Median(s);
}

double NsPerMiB(double seconds, uint64_t bytes) {
  return bytes == 0 ? 0 : seconds * 1e9 / (static_cast<double>(bytes) / kMiB);
}

double MiBps(uint64_t bytes, double seconds) {
  return seconds <= 0 ? 0 : static_cast<double>(bytes) / kMiB / seconds;
}

}  // namespace

KernelReplay ReplayKernels(const WorkloadConfig& cfg, ConstByteSpan all, Checks* checks) {
  KernelReplay k;
  ConstByteSpan data = all.first(std::min(all.size(), kMaxReplayBytes));
  const uint64_t bytes = data.size();

  // Chunking: RabinChunker::Update/Finish.
  std::vector<cdstore::Bytes> chunks;
  {
    cdstore::RabinChunker c;
    auto sink = [&](ConstByteSpan chunk) { chunks.emplace_back(chunk.begin(), chunk.end()); };
    c.Update(data, sink);
    c.Finish(sink);
  }
  k.avg_chunk_bytes = chunks.empty() ? 0 : static_cast<double>(bytes) / chunks.size();
  size_t count = 0;
  k.chunk_ns_per_mib = NsPerMiB(MedianSeconds([&] {
                                  cdstore::RabinChunker c;
                                  auto sink = [&](ConstByteSpan) { ++count; };
                                  c.Update(data, sink);
                                  c.Finish(sink);
                                }),
                                bytes);

  // CAONT-RS (the client's scheme) through CodingPipeline::EncodeAll at one
  // thread and at the client's encode_threads, then SecretSharing::DecodeSpans
  // from the first k shares, then FingerprintOf over every share.
  cdstore::AontRsScheme scheme(cdstore::AontKind::kOaep, cdstore::AontKeySource::kConvergent,
                               cfg.n, cfg.k);
  std::vector<std::vector<cdstore::Bytes>> shares;
  cdstore::CodingPipeline one(&scheme, 1);
  cdstore::CodingPipeline many(&scheme, cdstore::ClientOptions().encode_threads);
  k.encode_ns_per_mib_1t =
      NsPerMiB(MedianSeconds([&] { checks->ExpectOk(one.EncodeAll(chunks, &shares), "encode"); }),
               bytes);
  k.encode_ns_per_mib_mt = NsPerMiB(
      MedianSeconds([&] { checks->ExpectOk(many.EncodeAll(chunks, &shares), "encode mt"); }),
      bytes);
  std::vector<int> ids(cfg.k);
  for (int i = 0; i < cfg.k; ++i) {
    ids[i] = i;
  }
  std::vector<cdstore::Bytes> decoded(chunks.size());
  Status decode_status;
  k.decode_ns_per_mib = NsPerMiB(MedianSeconds([&] {
                                   std::vector<ConstByteSpan> spans(cfg.k);
                                   for (size_t s = 0; s < chunks.size(); ++s) {
                                     for (int i = 0; i < cfg.k; ++i) {
                                       spans[i] = shares[s][i];
                                     }
                                     Status st = scheme.DecodeSpans(ids, spans, chunks[s].size(),
                                                                    &decoded[s]);
                                     if (!st.ok()) {
                                       decode_status = st;
                                     }
                                   }
                                 }),
                                 bytes);
  checks->Expect(decode_status.ok() && decoded == chunks,
                 "standalone decode reproduces every chunk");
  uint64_t share_bytes = 0;
  for (const auto& s : shares) {
    for (const auto& share : s) {
      share_bytes += share.size();
    }
  }
  volatile uint64_t fold = 0;  // keeps the digests observable
  k.fingerprint_ns_per_mib = NsPerMiB(MedianSeconds([&] {
                                        for (const auto& s : shares) {
                                          for (const auto& share : s) {
                                            fold = fold + cdstore::FingerprintOf(share)[0];
                                          }
                                        }
                                      }),
                                      share_bytes);

  // Primitive ceilings over 1 MiB blocks of the same bytes.
  const size_t block = std::min<size_t>(1 << 20, bytes);
  const size_t blocks = block == 0 ? 0 : bytes / block;
  uint8_t digest[32];
  k.sha256_mibps = MiBps(blocks * block, MedianSeconds([&] {
                           for (size_t b = 0; b < blocks; ++b) {
                             cdstore::Sha256::Hash(data.subspan(b * block, block), digest);
                           }
                         }));
  cdstore::Aes256 aes(data.first(cdstore::Aes256::kKeySize));
  cdstore::Bytes stream(block);
  k.aes_ctr_mibps = MiBps(blocks * block, MedianSeconds([&] {
                            for (size_t b = 0; b < blocks; ++b) {
                              cdstore::Aes256CtrKeystreamZeroIv(aes, stream);
                            }
                          }));
  cdstore::ReedSolomon rs(cfg.n, cfg.k);
  const size_t shard = 16 << 10;
  const size_t stripes = bytes / (shard * cfg.k);
  std::vector<std::vector<cdstore::Bytes>> data_shards(stripes);
  for (size_t s = 0; s < stripes; ++s) {
    for (int i = 0; i < cfg.k; ++i) {
      ConstByteSpan part = data.subspan((s * cfg.k + i) * shard, shard);
      data_shards[s].emplace_back(part.begin(), part.end());
    }
  }
  std::vector<cdstore::Bytes> coded;
  k.rs_encode_mibps = MiBps(stripes * shard * cfg.k, MedianSeconds([&] {
                              for (const auto& d : data_shards) {
                                (void)rs.Encode(d, &coded);
                              }
                            }));
  return k;
}

// ------------------------------------------------------------ traced pass --

namespace {

struct RpcType {
  const char* name;
  cdstore::MsgType type;
};
constexpr RpcType kRpcTypes[] = {
    {"fpquery", cdstore::MsgType::kFpQueryRequest},
    {"upload_shares", cdstore::MsgType::kUploadSharesRequest},
    {"put_file", cdstore::MsgType::kPutFileRequest},
    {"get_file", cdstore::MsgType::kGetFileRequest},
    {"get_shares", cdstore::MsgType::kGetSharesRequest},
    {"apply_retention", cdstore::MsgType::kApplyRetentionRequest},
    {"gc", cdstore::MsgType::kGcRequest},
};

bool Timed(int phase) { return phase > kSetup && phase < kVerify; }
bool Backup(int phase) { return phase == kBackupFull || phase == kBackupIncr; }

double Dur(const Span& s) { return static_cast<double>(s.end_ns - s.start_ns) / 1e9; }

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// Length of `w` not covered by any of `intervals` (sorted by start).
double Uncovered(const Window& w, const std::vector<Window>& intervals) {
  uint64_t covered = 0;
  uint64_t cursor = w.first;
  for (const Window& iv : intervals) {
    uint64_t a = std::max(iv.first, cursor);
    uint64_t b = std::min(iv.second, w.second);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return static_cast<double>(w.second - w.first - covered) / 1e9;
}

uint64_t RegistryTotal(const std::vector<cdstore::MetricSample>& samples, const char* name) {
  uint64_t total = 0;
  for (const auto& s : samples) {
    if (s.name == name) {
      total += static_cast<uint64_t>(s.value);
    }
  }
  return total;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

std::vector<Metric> LayerMetrics(const WorkloadConfig& cfg, const PassResult& p,
                                 const KernelReplay& k, double full_mibps, double restore_mibps,
                                 double trace_overhead_frac) {
  std::vector<Metric> m;
  auto add = [&](std::string name, double value, std::string unit) {
    m.push_back({std::move(name), value, std::move(unit)});
  };
  const double backup_bytes = static_cast<double>(p.full_bytes + p.incr_bytes);

  // Handler time under each RPC span (the server's share of the call).
  std::unordered_map<uint64_t, double> handler_s;
  for (const Span& s : p.spans) {
    if (s.kind == SpanKind::kHandler && s.parent != 0) {
      handler_s[s.parent] += Dur(s);
    }
  }

  // --- net + core.server, per RPC type -------------------------------------
  double wire_wait = 0;
  double req_bytes = 0;
  double reply_bytes_restore = 0;
  double fps = 0;
  double dup_fps = 0;
  double uploaded_share_bytes = 0;
  std::map<uint8_t, std::vector<double>> rpc_us;
  std::map<uint8_t, double> busy;
  for (const Span& s : p.spans) {
    if (!Timed(s.phase)) {
      continue;
    }
    if (s.kind == SpanKind::kRpc) {
      rpc_us[s.op].push_back(Dur(s) * 1e6);
      auto h = handler_s.find(s.id);
      wire_wait += Dur(s) - (h == handler_s.end() ? 0 : h->second);
      if (Backup(s.phase)) {
        req_bytes += static_cast<double>(s.bytes_in);
        if (s.op == static_cast<uint8_t>(cdstore::MsgType::kFpQueryRequest)) {
          fps += static_cast<double>(s.items);
          dup_fps += static_cast<double>(s.hits);
        } else if (s.op == static_cast<uint8_t>(cdstore::MsgType::kUploadSharesRequest)) {
          uploaded_share_bytes += static_cast<double>(s.items);
        }
      }
      if (s.phase == kRestore) {
        reply_bytes_restore += static_cast<double>(s.bytes_out);
      }
    } else if (s.kind == SpanKind::kHandler) {
      busy[s.op] += Dur(s);
    }
  }
  for (const RpcType& t : kRpcTypes) {
    const auto& lat = rpc_us[static_cast<uint8_t>(t.type)];
    std::string base = std::string("net.") + t.name;
    add(base + ".calls", static_cast<double>(lat.size()), "count");
    add(base + ".p50_us", Percentile(lat, 0.50), "us");
    add(base + ".p99_us", Percentile(lat, 0.99), "us");
  }
  add("net.req_bytes_per_logical", Ratio(req_bytes, backup_bytes), "ratio");
  add("net.reply_bytes_per_logical",
      Ratio(reply_bytes_restore, static_cast<double>(p.restore_bytes)), "ratio");
  add("net.wire_wait_s", wire_wait, "s");

  for (const RpcType& t : kRpcTypes) {
    add(std::string("core.server.") + t.name + ".busy_s", busy[static_cast<uint8_t>(t.type)],
        "s");
  }
  const double fpquery_busy = busy[static_cast<uint8_t>(cdstore::MsgType::kFpQueryRequest)];
  const double upload_busy = busy[static_cast<uint8_t>(cdstore::MsgType::kUploadSharesRequest)];
  add("core.server.fpquery_ns_per_fp", Ratio(fpquery_busy * 1e9, fps), "ns");
  add("core.server.upload_ns_per_share_byte", Ratio(upload_busy * 1e9, uploaded_share_bytes),
      "ns");
  add("core.server.upload_pct_of_sha256",
      100 * Ratio(Ratio(uploaded_share_bytes / kMiB, upload_busy), k.sha256_mibps), "%");

  // --- core.client: phase time with no RPC or sink call in flight ----------
  std::vector<Window> calls;
  double sink_s = 0;
  for (const Span& s : p.spans) {
    if (s.kind == SpanKind::kRpc || s.kind == SpanKind::kSink) {
      calls.push_back({s.start_ns, s.end_ns});
    }
    if (s.kind == SpanKind::kSink && s.phase == kRestore) {
      sink_s += Dur(s);
    }
  }
  std::sort(calls.begin(), calls.end());
  // The client stage that no wrapper sees, modelled from the standalone
  // replays: the serial chunker on backup, decode workers on restore. A
  // replayed workload has no client compute.
  const double chunk_s_per_byte = cfg.replay ? 0 : k.chunk_ns_per_mib / 1e9 / kMiB;
  const double decode_s_per_byte =
      cfg.replay ? 0 : k.decode_ns_per_mib / 1e9 / kMiB / cdstore::ClientOptions().decode_threads;
  const struct {
    int phase;
    double modelled_s;
  } client_phases[] = {
      {kBackupFull, chunk_s_per_byte * static_cast<double>(p.full_bytes)},
      {kBackupIncr, chunk_s_per_byte * static_cast<double>(p.incr_bytes)},
      {kRestore, decode_s_per_byte * static_cast<double>(p.restore_bytes)},
  };
  for (const auto& cp : client_phases) {
    double self = 0;
    for (const Window& w : p.windows[cp.phase]) {
      self += Uncovered(w, calls);
    }
    std::string base = std::string("core.client.") + PhaseName(cp.phase);
    add(base + ".self_s", self, "s");
    add(base + ".residual_s", self - cp.modelled_s, "s");
  }
  add("core.client.sink_s", sink_s, "s");

  // --- dedup ------------------------------------------------------------------
  add("dedup.intra_dup_frac", Ratio(dup_fps, fps), "ratio");
  add("dedup.inter_dup_frac",
      uploaded_share_bytes == 0
          ? 0
          : 1 - static_cast<double>(p.physical_after_backup) / uploaded_share_bytes,
      "ratio");
  const double bloom_negative =
      static_cast<double>(RegistryTotal(p.registry, "cdstore_dedup_bloom_negative_total"));
  const double bloom_maybe =
      static_cast<double>(RegistryTotal(p.registry, "cdstore_dedup_bloom_maybe_total"));
  const double cache_hits =
      static_cast<double>(RegistryTotal(p.registry, "cdstore_dedup_cache_hits_total"));
  add("dedup.accel_absorbed_frac", Ratio(bloom_negative + cache_hits, bloom_negative + bloom_maybe),
      "ratio");
  add("dedup.fingerprint_ns_per_mib", k.fingerprint_ns_per_mib, "ns/MiB");
  add("dedup.fingerprint_pct_of_sha256",
      100 * Ratio(Ratio(1e9, k.fingerprint_ns_per_mib), k.sha256_mibps), "%");

  // --- storage, per phase -------------------------------------------------------
  const struct {
    const char* name;
    bool (*in)(int);
  } storage_phases[] = {
      {"backup", [](int ph) { return Backup(ph); }},
      {"restore", [](int ph) { return ph == kRestore; }},
      {"retention", [](int ph) { return ph == kRetention; }},
      {"gc", [](int ph) { return ph == kGc; }},
      {"reopen", [](int ph) { return ph == kReopen; }},
  };
  for (const auto& sp : storage_phases) {
    double put_calls = 0, put_bytes = 0, get_calls = 0, get_bytes = 0, delete_calls = 0;
    double busy_s = 0;
    for (const Span& s : p.spans) {
      if (s.kind != SpanKind::kBackend || !sp.in(s.phase)) {
        continue;
      }
      busy_s += Dur(s);
      switch (static_cast<BackendOp>(s.op)) {
        case BackendOp::kPut:
          put_calls += 1;
          put_bytes += static_cast<double>(s.bytes_in);
          break;
        case BackendOp::kGet:
          get_calls += 1;
          get_bytes += static_cast<double>(s.bytes_out);
          break;
        case BackendOp::kDelete:
          delete_calls += 1;
          break;
        default:
          break;
      }
    }
    std::string base = std::string("storage.") + sp.name;
    add(base + ".put_calls", put_calls, "count");
    add(base + ".put_bytes", put_bytes, "bytes");
    add(base + ".get_calls", get_calls, "count");
    add(base + ".get_bytes", get_bytes, "bytes");
    add(base + ".delete_calls", delete_calls, "count");
    add(base + ".busy_s", busy_s, "s");
    if (std::string(sp.name) == "restore") {
      add("storage.restore.read_amp", Ratio(get_bytes, reply_bytes_restore), "ratio");
    }
  }

  // --- kvstore --------------------------------------------------------------------
  add("kvstore.dir_bytes_per_logical.after_backup",
      Ratio(static_cast<double>(p.kv_bytes_after_backup), backup_bytes), "ratio");
  add("kvstore.files.after_backup", static_cast<double>(p.kv_files_after_backup), "count");
  add("kvstore.dir_bytes_per_logical.after_gc",
      Ratio(static_cast<double>(p.kv_bytes_after_gc), backup_bytes), "ratio");
  add("kvstore.files.after_gc", static_cast<double>(p.kv_files_after_gc), "count");

  // --- client kernels and their ceilings ----------------------------------------
  add("chunking.ns_per_mib", k.chunk_ns_per_mib, "ns/MiB");
  add("chunking.avg_chunk_bytes", k.avg_chunk_bytes, "bytes");
  add("dispersal.encode_ns_per_mib_1t", k.encode_ns_per_mib_1t, "ns/MiB");
  add("dispersal.encode_ns_per_mib_mt", k.encode_ns_per_mib_mt, "ns/MiB");
  add("dispersal.decode_ns_per_mib", k.decode_ns_per_mib, "ns/MiB");
  // CAONT-RS (OAEP) per secret byte: two SHA-256 passes (key, package
  // hash), one AES-CTR mask, one RS encode.
  const double primitive_ns =
      1e9 * (2 * Ratio(1, k.sha256_mibps) + Ratio(1, k.aes_ctr_mibps) +
             Ratio(1, k.rs_encode_mibps));
  add("dispersal.encode_pct_of_primitives", 100 * Ratio(primitive_ns, k.encode_ns_per_mib_1t),
      "%");
  add("crypto.sha256_mibps", k.sha256_mibps, "MiB/s");
  add("crypto.aes_ctr_mibps", k.aes_ctr_mibps, "MiB/s");
  add("rs.encode_mibps", k.rs_encode_mibps, "MiB/s");

  // --- wire ceiling: each cloud carries 1/k of the data -------------------------
  const double ceiling = cfg.link.limited() ? cfg.k * cfg.link.bytes_per_s / kMiB : 0;
  add("wire.ceiling_mibps", ceiling, "MiB/s");
  add("wire.backup_full_pct_of_ceiling", 100 * Ratio(full_mibps, ceiling), "%");
  add("wire.restore_pct_of_ceiling", 100 * Ratio(restore_mibps, ceiling), "%");

  add("trace.overhead_frac", trace_overhead_frac, "ratio");
  return m;
}

}  // namespace perfbench
