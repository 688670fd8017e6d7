// The three workloads' phase scripts and their correctness gates.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "perfbench/src/bench.h"
#include "src/core/client.h"
#include "src/dedup/fingerprint.h"

namespace perfbench {

using cdstore::CdstoreClient;
using cdstore::ClientOptions;
using cdstore::SyntheticDataset;
using cdstore::VersionInfo;

bool MakeWorkload(const std::string& name, bool selftest, WorkloadConfig* out) {
  WorkloadConfig c;
  c.name = name;
  if (name == "series_cpu" || name == "series_wan") {
    // 32 MiB/week x 8 weeks. One cloud stores ~14 MiB of shares, so a 4 MiB
    // container cache is < 1/2 of it and the cold restore reads the backend.
    c.users = 1;
    c.scale = selftest ? 1 : 8;
    c.weeks = selftest ? 4 : 8;
    c.container_cache_bytes = selftest ? (1 << 20) : (4 << 20);
    if (name == "series_wan") {
      c.link.latency_s = 0.002;
      c.link.bytes_per_s = 24e6;
      c.cold_restores = 3;
    }
  } else if (name == "server_ingest") {
    // 4 users x 16 MiB/week x 4 weeks; every user's restore set (~5 MiB of
    // shares per cloud) fits the default 32 MiB container cache. Short
    // passes: four replay threads saturate the cores, so this workload's
    // phases move most with host load and need the most passes per run.
    c.users = selftest ? 2 : 4;
    c.scale = selftest ? 0.5 : 4;
    c.weeks = selftest ? 3 : 4;
    c.cold_restores = 3;
    c.replay = true;
  } else {
    return false;
  }
  *out = c;
  return true;
}

cdstore::SyntheticDatasetOptions DatasetOptions(const WorkloadConfig& cfg, uint64_t seed) {
  cdstore::SyntheticDatasetOptions o = cfg.replay ? SyntheticDataset::FslDefaults(cfg.scale)
                                                  : SyntheticDataset::GenerationSeriesDefaults(
                                                        cfg.scale);
  o.num_users = cfg.users;
  o.num_weeks = cfg.weeks;
  // The workload seed reaches the program only through the generated bytes.
  o.seed ^= (seed + 1) * 0x9E3779B97F4A7C15ull;
  return o;
}

bool Checks::Expect(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    if (failed < 20) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
    ++failed;
  }
  return ok;
}

std::string UserPath(int user_index) { return "/fsl/user" + std::to_string(user_index); }

Result<Bytes> PathKeyOf(const Bytes& put_file_frame) {
  cdstore::PutFileRequest req;
  RETURN_IF_ERROR(cdstore::Decode(put_file_frame, &req));
  return req.path_key;
}

Result<std::vector<VersionInfo>> ListVersionsOn(cdstore::Transport* t, uint64_t user,
                                                const Bytes& path_key) {
  cdstore::ListVersionsRequest req;
  req.user = user;
  req.path_key = path_key;
  auto reply = t->Call(cdstore::Encode(req));
  if (!reply.ok()) {
    return reply.status();
  }
  RETURN_IF_ERROR(cdstore::DecodeIfError(reply.value()));
  cdstore::ListVersionsReply r;
  RETURN_IF_ERROR(cdstore::Decode(reply.value(), &r));
  return r.versions;
}

Status GcOn(cdstore::Transport* t) {
  auto reply = t->Call(cdstore::Encode(cdstore::GcRequest{}));
  if (!reply.ok()) {
    return reply.status();
  }
  RETURN_IF_ERROR(cdstore::DecodeIfError(reply.value()));
  cdstore::GcReply r;
  return cdstore::Decode(reply.value(), &r);
}

// The request CdstoreClient::ApplyRetention sends to each cloud in turn.
Status RetentionOn(cdstore::Transport* t, uint64_t user, const Bytes& path_key,
                   uint32_t keep_last) {
  cdstore::ApplyRetentionRequest req;
  req.user = user;
  req.path_key = path_key;
  req.policy.keep_last_n = keep_last;
  auto reply = t->Call(cdstore::Encode(req));
  if (!reply.ok()) {
    return reply.status();
  }
  RETURN_IF_ERROR(cdstore::DecodeIfError(reply.value()));
  cdstore::ApplyRetentionReply r;
  return cdstore::Decode(reply.value(), &r);
}

namespace {

ClientOptions MakeClientOptions(const WorkloadConfig& cfg) {
  ClientOptions o;
  o.n = cfg.n;
  o.k = cfg.k;
  return o;
}

std::vector<uint64_t> Ids(const std::vector<VersionInfo>& versions) {
  std::vector<uint64_t> ids;
  for (const VersionInfo& v : versions) {
    ids.push_back(v.generation_id);
  }
  return ids;
}

// Per-cloud generation listings of one path; `keys[c]` is cloud c's path key.
std::vector<std::vector<VersionInfo>> ListAllClouds(const Deployment& dep, uint64_t user,
                                                    const std::vector<Bytes>& keys,
                                                    Checks* checks) {
  std::vector<std::vector<VersionInfo>> out(dep.n());
  for (int c = 0; c < dep.n(); ++c) {
    auto v = ListVersionsOn(dep.transport(c), user, keys[c]);
    if (checks->ExpectOk(v.status(), "ListVersions cloud " + std::to_string(c))) {
      out[c] = std::move(v.value());
    }
  }
  return out;
}

// After backups: every generation is listed on every cloud under the same
// ids, and per cloud the generations' unique_bytes sum to the cloud's
// physical share bytes. `listings[u][c]` covers user u on cloud c.
void CheckAfterBackup(const Deployment& dep,
                      const std::vector<std::vector<std::vector<VersionInfo>>>& listings,
                      int weeks, Checks* checks) {
  for (int c = 0; c < dep.n(); ++c) {
    uint64_t unique_sum = 0;
    for (size_t u = 0; u < listings.size(); ++u) {
      const auto& versions = listings[u][c];
      checks->Expect(versions.size() == static_cast<size_t>(weeks),
                     "user " + std::to_string(u) + " cloud " + std::to_string(c) + " lists " +
                         std::to_string(versions.size()) + " generations");
      checks->Expect(Ids(versions) == Ids(listings[u][0]),
                     "generation ids agree across clouds (user " + std::to_string(u) + ")");
      for (const VersionInfo& v : versions) {
        unique_sum += v.unique_bytes;
      }
    }
    checks->Expect(unique_sum == dep.server(c)->physical_share_bytes(),
                   "cloud " + std::to_string(c) + " unique_bytes sum " +
                       std::to_string(unique_sum) + " == physical share bytes " +
                       std::to_string(dep.server(c)->physical_share_bytes()));
  }
}

// After retention + GC: every cloud lists exactly the newest keep_last of
// the generations it listed before, and each restores byte-identically.
void CheckAfterRetention(const WorkloadConfig& cfg, const SyntheticDataset& data,
                         const Deployment& dep, CdstoreClient& client, int user_index,
                         const std::string& path, const std::vector<Bytes>& keys,
                         const std::vector<uint64_t>& ids_before, Checks* checks) {
  const size_t keep = std::min<size_t>(cfg.keep_last, ids_before.size());
  std::vector<uint64_t> expect(ids_before.end() - static_cast<std::ptrdiff_t>(keep),
                               ids_before.end());
  auto listings = ListAllClouds(dep, client.user(), keys, checks);
  for (int c = 0; c < dep.n(); ++c) {
    checks->Expect(Ids(listings[c]) == expect,
                   path + " cloud " + std::to_string(c) + " keeps exactly the last " +
                       std::to_string(keep) + " generations");
  }
  for (size_t i = 0; i < keep; ++i) {
    int week = cfg.weeks - static_cast<int>(keep) + static_cast<int>(i);
    Bytes expected = data.FileFor(user_index, week);
    VerifySink sink(expected, nullptr);
    Status st = client.Download(path, sink, nullptr, expect[i]);
    checks->Expect(st.ok() && sink.matched(),
                   path + " retained generation " + std::to_string(expect[i]) +
                       " restores identically: " + st.ToString());
  }
}

void SnapshotRegistry(const PassEnv& env, PassResult* r) {
  if (env.metrics != nullptr) {
    r->registry = env.metrics->Snapshot();
  }
}

}  // namespace

// ------------------------------------------------------------ series --

void RunSeriesPass(const WorkloadConfig& cfg, const SyntheticDataset& data, const PassEnv& env,
                   PassResult* r, Checks* checks) {
  DeploymentOptions dopts;
  dopts.n = cfg.n;
  dopts.link = cfg.link;
  dopts.container_cache_bytes = cfg.container_cache_bytes;
  dopts.dir = env.dir;
  dopts.log = env.log;
  dopts.metrics = env.metrics;
  std::unique_ptr<Deployment> dep;
  r->setup_s = TimePhase(env, r, kSetup, [&] {
    auto d = Deployment::Create(dopts);
    if (checks->ExpectOk(d.status(), "deployment create")) {
      dep = std::move(d.value());
    }
  });
  if (dep == nullptr) {
    return;
  }
  CdstoreClient client(dep->transports(), /*user=*/1, MakeClientOptions(cfg));

  // Full backup (week 0), then the incremental weeks through one session.
  auto session = client.OpenBackupSession();
  if (!checks->ExpectOk(session.status(), "open backup session")) {
    return;
  }
  for (int w = 0; w < cfg.weeks; ++w) {
    Bytes week = data.FileFor(0, w);
    cdstore::UploadFileOptions fopts;
    fopts.mode = cdstore::PutFileMode::kNewGeneration;
    fopts.timestamp_ms = WeekTimestampMs(w);
    Status st;
    double s = TimePhase(env, r, w == 0 ? kBackupFull : kBackupIncr, [&] {
      st = session.value()->Upload(kSeriesPath, week, nullptr, fopts);
    });
    checks->ExpectOk(st, "backup week " + std::to_string(w));
    (w == 0 ? r->full_s : r->incr_s) += s;
    (w == 0 ? r->full_bytes : r->incr_bytes) += week.size();
    if (w == 0) {
      r->full_round_s.push_back(s);
    } else {
      r->incr_week_s.push_back(s);
      r->incr_week_bytes.push_back(week.size());
    }
  }
  checks->ExpectOk(session.value()->Close(), "close backup session");
  r->backup_request_bytes = dep->RequestBytes();

  std::vector<Bytes> keys(cfg.n);
  for (int c = 0; c < cfg.n; ++c) {
    auto key = PathKeyOf(dep->transport(c)->last_put_file());
    if (checks->ExpectOk(key.status(), "path key from PutFile")) {
      keys[c] = key.value();
    }
  }
  dep->SetWire(false);
  auto listings = ListAllClouds(*dep, client.user(), keys, checks);
  CheckAfterBackup(*dep, {listings}, cfg.weeks, checks);
  dep->SetWire(true);
  r->physical_after_backup = dep->PhysicalShareBytes();
  if (env.traced) {
    dep->IndexDirUsage(&r->kv_bytes_after_backup, &r->kv_files_after_backup);
  }

  // Cold restores of the latest generation, each right after a reopen,
  // verified as they stream.
  Status st;
  Bytes latest = data.FileFor(0, cfg.weeks - 1);
  r->restore_round_bytes = latest.size();
  for (int rep = 0; rep < cfg.cold_restores; ++rep) {
    double reopen = TimePhase(env, r, kReopen, [&] { st = dep->Reopen(); });
    r->reopen_round_s.push_back(reopen);
    r->reopen_s += reopen / cfg.cold_restores;
    if (!checks->ExpectOk(st, "reopen servers")) {
      return;
    }
    if (rep == 0) {
      r->backend_bytes_after_backup = dep->BackendBytes();
    }
    VerifySink sink(latest, env.log);
    double restore =
        TimePhase(env, r, kRestore, [&] { st = client.Download(kSeriesPath, sink); });
    r->restore_round_s.push_back(restore);
    r->restore_s += restore;
    checks->Expect(st.ok() && sink.matched(), "restore latest matches: " + st.ToString());
    r->restore_bytes += latest.size();
  }
  latest = Bytes();

  // Retention and GC go to one cloud at a time, as CdstoreClient does, each
  // call timed on its own.
  for (int c = 0; c < cfg.n; ++c) {
    double s = TimePhase(env, r, kRetention, [&] {
      st = RetentionOn(dep->transport(c), client.user(), keys[c], cfg.keep_last);
    });
    checks->ExpectOk(st, "apply retention cloud " + std::to_string(c));
    r->retention_cloud_s.push_back(s);
    r->retention_s += s;
  }
  for (int c = 0; c < cfg.n; ++c) {
    double s = TimePhase(env, r, kGc, [&] { st = GcOn(dep->transport(c)); });
    checks->ExpectOk(st, "gc cloud " + std::to_string(c));
    r->gc_cloud_s.push_back(s);
    r->gc_s += s;
  }
  if (env.traced) {
    dep->IndexDirUsage(&r->kv_bytes_after_gc, &r->kv_files_after_gc);
  }
  dep->SetWire(false);
  CheckAfterRetention(cfg, data, *dep, client, 0, kSeriesPath, keys, Ids(listings[0]), checks);
  r->spans = env.log->Take();
  SnapshotRegistry(env, r);
}

double SeriesFullRound(const WorkloadConfig& cfg, ConstByteSpan week0, const std::string& dir,
                       Checks* checks) {
  SpanLog off;
  DeploymentOptions dopts;
  dopts.n = cfg.n;
  dopts.link = cfg.link;
  dopts.container_cache_bytes = cfg.container_cache_bytes;
  dopts.dir = dir;
  dopts.log = &off;
  auto dep = Deployment::Create(dopts);
  if (!checks->ExpectOk(dep.status(), "full round deployment")) {
    return 0;
  }
  CdstoreClient client(dep.value()->transports(), /*user=*/1, MakeClientOptions(cfg));
  auto session = client.OpenBackupSession();
  if (!checks->ExpectOk(session.status(), "full round session")) {
    return 0;
  }
  cdstore::UploadFileOptions fopts;
  fopts.mode = cdstore::PutFileMode::kNewGeneration;
  fopts.timestamp_ms = WeekTimestampMs(0);
  Status st;
  uint64_t start = NowNs();
  st = session.value()->Upload(kSeriesPath, week0, nullptr, fopts);
  double s = static_cast<double>(NowNs() - start) / 1e9;
  checks->ExpectOk(st, "full round backup");
  checks->ExpectOk(session.value()->Close(), "full round session close");
  return s;
}

// ------------------------------------------------------------ ingest --

std::vector<CapturedUser> CaptureIngest(const WorkloadConfig& cfg, const SyntheticDataset& data,
                                        const std::string& dir, Checks* checks) {
  std::vector<CapturedUser> users(cfg.users);
  SpanLog off;
  DeploymentOptions dopts;
  dopts.n = cfg.n;
  dopts.container_cache_bytes = 4 << 20;  // input preparation: keep memory low
  dopts.dir = dir;
  dopts.log = &off;
  auto dep = Deployment::Create(dopts);
  if (!checks->ExpectOk(dep.status(), "capture deployment")) {
    return {};
  }
  std::mutex mu;
  CapturedUser* current = nullptr;
  int tag = 0;
  for (int c = 0; c < cfg.n; ++c) {
    dep.value()->transport(c)->set_recorder(
        [&](int cloud, ConstByteSpan request, const Bytes& reply) {
          std::lock_guard<std::mutex> lock(mu);
          current->frames.push_back(
              {cloud, tag, Bytes(request.begin(), request.end()), reply});
        });
  }
  for (int u = 0; u < cfg.users; ++u) {
    CapturedUser& cu = users[u];
    cu.user = static_cast<uint64_t>(u) + 1;
    {
      std::lock_guard<std::mutex> lock(mu);
      current = &cu;
    }
    CdstoreClient client(dep.value()->transports(), cu.user, MakeClientOptions(cfg));
    auto session = client.OpenBackupSession();
    if (!checks->ExpectOk(session.status(), "capture session")) {
      break;
    }
    for (int w = 0; w < cfg.weeks; ++w) {
      {
        std::lock_guard<std::mutex> lock(mu);
        tag = w;
      }
      cdstore::UploadFileOptions fopts;
      fopts.mode = cdstore::PutFileMode::kNewGeneration;
      fopts.timestamp_ms = WeekTimestampMs(w);
      checks->ExpectOk(session.value()->Upload(UserPath(u), data.FileFor(u, w), nullptr, fopts),
                       "capture backup");
    }
    checks->ExpectOk(session.value()->Close(), "capture session close");
    for (int c = 0; c < cfg.n; ++c) {
      auto key = PathKeyOf(dep.value()->transport(c)->last_put_file());
      cu.path_keys.push_back(key.ok() ? key.value() : Bytes());
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      tag = kRestoreTag;
    }
    Bytes latest = data.FileFor(u, cfg.weeks - 1);
    VerifySink sink(latest, nullptr);
    Status st = client.Download(UserPath(u), sink);
    checks->Expect(st.ok() && sink.matched(), "capture restore matches: " + st.ToString());
  }
  for (int c = 0; c < cfg.n; ++c) {
    dep.value()->transport(c)->set_recorder(nullptr);
  }

  // Captured GetShares replies must hash to the fingerprints requested; the
  // replayed replies are then compared byte for byte with these.
  for (const CapturedUser& cu : users) {
    for (const CapturedFrame& f : cu.frames) {
      if (cdstore::PeekType(f.request) != cdstore::MsgType::kGetSharesRequest) {
        continue;
      }
      cdstore::GetSharesRequest req;
      std::vector<ConstByteSpan> shares;
      bool ok = cdstore::Decode(f.request, &req).ok() &&
                cdstore::DecodeShareSpans(f.reply, &shares).ok() &&
                shares.size() == req.fps.size();
      for (size_t i = 0; ok && i < shares.size(); ++i) {
        ok = cdstore::FingerprintOf(shares[i]) == req.fps[i];
      }
      checks->Expect(ok, "captured GetShares reply hashes to the requested fingerprints");
    }
  }
  return users;
}

namespace {

// Frame types whose replies do not depend on how users interleave: intra-user
// dedup answers, generation binding, recipes and shares.
bool DeterministicReply(cdstore::MsgType t) {
  using cdstore::MsgType;
  return t == MsgType::kFpQueryRequest || t == MsgType::kPutFileRequest ||
         t == MsgType::kGetFileRequest || t == MsgType::kGetSharesRequest;
}

// Runs fn(u) for every user u, each user's stream in order, on at most
// half of nproc threads (user u on thread u mod threads): replay threads that
// fill every core would measure the host's scheduler as much as the servers.
template <typename Fn>
void ForEachUser(size_t users, Fn fn) {
  const size_t threads =
      std::max<size_t>(1, std::min<size_t>(users, std::thread::hardware_concurrency() / 2));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t u = t; u < users; u += threads) {
        fn(u);
      }
    });
  }
  for (auto& th : pool) {
    th.join();
  }
}

// Replays, for every user at once, the frames whose tag satisfies `want`.
// Each reply is checked as it arrives, so no reply is kept: the call
// succeeded, and a reply that does not depend on how users interleave equals
// the captured one byte for byte. The check is the replay client's sink,
// traced like ByteSink::Append.
template <typename Pred>
void ReplayUsers(const Deployment& dep, const std::vector<CapturedUser>& users, SpanLog* log,
                 Pred want, Checks* checks) {
  std::vector<Checks> per_user(users.size());
  ForEachUser(users.size(), [&](size_t u) {
    for (const CapturedFrame& f : users[u].frames) {
      if (!want(f.tag)) {
        continue;
      }
      Result<Bytes> reply = dep.transport(f.cloud)->Call(f.request);
      SpanLog::Scope sink(log, SpanKind::kSink, 0, -1);
      cdstore::MsgType type = cdstore::PeekType(f.request);
      bool ok = reply.ok() && cdstore::DecodeIfError(reply.value()).ok();
      if (ok && DeterministicReply(type)) {
        ok = reply.value() == f.reply;
      }
      if (!ok) {
        per_user[u].Expect(false, std::string("replayed ") + cdstore::RpcName(type) +
                                      " reply matches the captured one");
      } else {
        ++per_user[u].attempted;
      }
    }
  });
  for (const Checks& c : per_user) {
    checks->attempted += c.attempted;
    checks->failed += c.failed;
  }
}

}  // namespace

void RunIngestPass(const WorkloadConfig& cfg, const SyntheticDataset& data,
                   const std::vector<CapturedUser>& users, const PassEnv& env, PassResult* r,
                   Checks* checks) {
  DeploymentOptions dopts;
  dopts.n = cfg.n;
  dopts.link = cfg.link;
  dopts.container_cache_bytes = cfg.container_cache_bytes;
  dopts.dir = env.dir;
  dopts.log = env.log;
  dopts.metrics = env.metrics;
  std::unique_ptr<Deployment> dep;
  r->setup_s = TimePhase(env, r, kSetup, [&] {
    auto d = Deployment::Create(dopts);
    if (checks->ExpectOk(d.status(), "deployment create")) {
      dep = std::move(d.value());
    }
  });
  if (dep == nullptr) {
    return;
  }
  r->incr_week_bytes.assign(cfg.weeks - 1, 0);
  for (int u = 0; u < cfg.users; ++u) {
    r->full_bytes += data.FileSize(u, 0);
    for (int w = 1; w < cfg.weeks; ++w) {
      r->incr_week_bytes[w - 1] += data.FileSize(u, w);
    }
    r->restore_round_bytes += data.FileSize(u, cfg.weeks - 1);
  }
  for (uint64_t b : r->incr_week_bytes) {
    r->incr_bytes += b;
  }
  r->restore_bytes = r->restore_round_bytes * cfg.cold_restores;

  r->full_s = TimePhase(env, r, kBackupFull, [&] {
    ReplayUsers(*dep, users, env.log, [](int tag) { return tag == 0; }, checks);
  });
  r->full_round_s.push_back(r->full_s);
  // Every user's week w, all users at once, then week w + 1.
  for (int w = 1; w < cfg.weeks; ++w) {
    double s = TimePhase(env, r, kBackupIncr, [&] {
      ReplayUsers(*dep, users, env.log, [w](int tag) { return tag == w; }, checks);
    });
    r->incr_week_s.push_back(s);
    r->incr_s += s;
  }
  r->backup_request_bytes = dep->RequestBytes();

  std::vector<std::vector<std::vector<VersionInfo>>> listings;
  for (const CapturedUser& cu : users) {
    listings.push_back(ListAllClouds(*dep, cu.user, cu.path_keys, checks));
  }
  CheckAfterBackup(*dep, listings, cfg.weeks, checks);
  r->physical_after_backup = dep->PhysicalShareBytes();
  if (env.traced) {
    dep->IndexDirUsage(&r->kv_bytes_after_backup, &r->kv_files_after_backup);
  }

  Status st;
  for (int rep = 0; rep < cfg.cold_restores; ++rep) {
    double reopen = TimePhase(env, r, kReopen, [&] { st = dep->Reopen(); });
    r->reopen_round_s.push_back(reopen);
    r->reopen_s += reopen / cfg.cold_restores;
    if (!checks->ExpectOk(st, "reopen servers")) {
      return;
    }
    if (rep == 0) {
      r->backend_bytes_after_backup = dep->BackendBytes();
    }
    double restore = TimePhase(env, r, kRestore, [&] {
      ReplayUsers(*dep, users, env.log, [](int tag) { return tag == kRestoreTag; }, checks);
    });
    r->restore_round_s.push_back(restore);
    r->restore_s += restore;
  }

  // Retention one cloud at a time (every user's request to that cloud at
  // once), then GC one cloud at a time; each cloud's part timed on its own.
  std::vector<Status> results(users.size());
  for (int c = 0; c < cfg.n; ++c) {
    double s = TimePhase(env, r, kRetention, [&] {
      ForEachUser(users.size(), [&](size_t u) {
        results[u] = RetentionOn(dep->transport(c), users[u].user, users[u].path_keys[c],
                                 cfg.keep_last);
      });
    });
    for (const Status& rs : results) {
      checks->ExpectOk(rs, "apply retention cloud " + std::to_string(c));
    }
    r->retention_cloud_s.push_back(s);
    r->retention_s += s;
  }
  for (int c = 0; c < cfg.n; ++c) {
    double s = TimePhase(env, r, kGc, [&] { st = GcOn(dep->transport(c)); });
    checks->ExpectOk(st, "gc cloud " + std::to_string(c));
    r->gc_cloud_s.push_back(s);
    r->gc_s += s;
  }
  if (env.traced) {
    dep->IndexDirUsage(&r->kv_bytes_after_gc, &r->kv_files_after_gc);
  }
  for (size_t u = 0; u < users.size(); ++u) {
    CdstoreClient client(dep->transports(), users[u].user, MakeClientOptions(cfg));
    CheckAfterRetention(cfg, data, *dep, client, static_cast<int>(u),
                        UserPath(static_cast<int>(u)), users[u].path_keys,
                        Ids(listings[u][0]), checks);
  }
  r->spans = env.log->Take();
  SnapshotRegistry(env, r);
}

double IngestFullRound(const WorkloadConfig& cfg, const std::vector<CapturedUser>& users,
                       const std::string& dir, Checks* checks) {
  SpanLog off;
  DeploymentOptions dopts;
  dopts.n = cfg.n;
  dopts.link = cfg.link;
  dopts.container_cache_bytes = cfg.container_cache_bytes;
  dopts.dir = dir;
  dopts.log = &off;
  auto dep = Deployment::Create(dopts);
  if (!checks->ExpectOk(dep.status(), "full round deployment")) {
    return 0;
  }
  uint64_t start = NowNs();
  ReplayUsers(*dep.value(), users, &off, [](int tag) { return tag == 0; }, checks);
  return static_cast<double>(NowNs() - start) / 1e9;
}

}  // namespace perfbench
