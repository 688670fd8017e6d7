// Session/sink API tests: a multi-file BackupSession must be observably
// identical to per-file one-shot uploads (chunk boundaries, dedup, server
// state), incremental UploadWriter writes must reproduce whole-buffer
// chunking exactly (the Rabin window carries across Write calls), the
// pipelined sink-driven download must reproduce golden bytes and stats,
// writer abuse must fail cleanly, a fetch lane whose cloud dies
// mid-download must fail over to a spare cloud, and a corrupted share must
// be recovered by brute force over the spare cloud's copy.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/client.h"
#include "src/core/server.h"
#include "src/net/message.h"
#include "src/net/transport.h"
#include "src/storage/backend.h"
#include "src/util/byte_sink.h"
#include "src/util/fs_util.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

constexpr int kN = 4;
constexpr int kK = 3;

struct Deployment {
  TempDir dir;
  std::vector<std::unique_ptr<MemBackend>> backends;
  std::vector<std::unique_ptr<CdstoreServer>> servers;
  std::vector<std::unique_ptr<InProcTransport>> transports;

  std::vector<Transport*> TransportPtrs() {
    std::vector<Transport*> out;
    for (auto& t : transports) {
      out.push_back(t.get());
    }
    return out;
  }

  StatsReply ServerStats(int i) {
    Bytes frame = servers[i]->Handle(Encode(StatsRequest{}));
    StatsReply reply;
    EXPECT_TRUE(Decode(frame, &reply).ok());
    return reply;
  }
};

std::unique_ptr<Deployment> MakeDeployment() {
  auto d = std::make_unique<Deployment>();
  for (int i = 0; i < kN; ++i) {
    d->backends.push_back(std::make_unique<MemBackend>());
    ServerOptions so;
    so.index_dir = d->dir.Sub("server" + std::to_string(i));
    auto server = CdstoreServer::Create(d->backends.back().get(), so);
    EXPECT_TRUE(server.ok()) << server.status();
    d->servers.push_back(std::move(server.value()));
    d->transports.push_back(std::make_unique<InProcTransport>(d->servers.back()->AsHandler()));
  }
  return d;
}

ClientOptions SmallOptions() {
  ClientOptions o;
  o.n = kN;
  o.k = kK;
  o.encode_threads = 3;
  o.decode_threads = 2;
  o.rabin.min_size = 512;
  o.rabin.avg_size = 2048;
  o.rabin.max_size = 8192;
  o.pipeline_queue_depth = 8;
  // Small batches force several RPCs per cloud so pipelining is exercised.
  o.download_batch_bytes = 64 * 1024;
  o.stream_batch_bytes = 32 * 1024;
  return o;
}

// Files with cross-file duplication so session dedup behavior is visible.
std::vector<Bytes> MakeBackupFiles(uint64_t seed) {
  Rng rng(seed);
  Bytes shared_block = rng.RandomBytes(120000);
  std::vector<Bytes> files;
  for (int f = 0; f < 3; ++f) {
    Bytes data = rng.RandomBytes(150000 + 40000 * f);
    // Splice the shared block into every file: later session files dedup
    // against earlier ones.
    data.insert(data.end(), shared_block.begin(), shared_block.end());
    files.push_back(std::move(data));
  }
  return files;
}

void ExpectSameUploadStats(const UploadStats& a, const UploadStats& b,
                           const std::string& label) {
  EXPECT_EQ(a.logical_bytes, b.logical_bytes) << label;
  EXPECT_EQ(a.num_secrets, b.num_secrets) << label;
  EXPECT_EQ(a.logical_share_bytes, b.logical_share_bytes) << label;
  EXPECT_EQ(a.transferred_share_bytes, b.transferred_share_bytes) << label;
  EXPECT_EQ(a.intra_duplicate_shares, b.intra_duplicate_shares) << label;
  ASSERT_EQ(a.per_cloud.size(), b.per_cloud.size()) << label;
  for (size_t c = 0; c < a.per_cloud.size(); ++c) {
    EXPECT_EQ(a.per_cloud[c].transferred_share_bytes, b.per_cloud[c].transferred_share_bytes)
        << label << " cloud " << c;
    EXPECT_EQ(a.per_cloud[c].intra_duplicate_shares, b.per_cloud[c].intra_duplicate_shares)
        << label << " cloud " << c;
    EXPECT_EQ(a.per_cloud[c].rpcs, b.per_cloud[c].rpcs) << label << " cloud " << c;
  }
}

// ------------------------------------------------ session vs one-shot --

TEST(BackupSessionTest, MultiFileSessionMatchesOneShotUploads) {
  std::vector<Bytes> files = MakeBackupFiles(91);

  auto oneshot_world = MakeDeployment();
  auto session_world = MakeDeployment();
  CdstoreClient oneshot_client(oneshot_world->TransportPtrs(), 1, SmallOptions());
  CdstoreClient session_client(session_world->TransportPtrs(), 1, SmallOptions());

  std::vector<UploadStats> oneshot_stats(files.size());
  for (size_t f = 0; f < files.size(); ++f) {
    ASSERT_TRUE(
        oneshot_client.Upload("/f" + std::to_string(f), files[f], &oneshot_stats[f]).ok());
  }

  std::vector<UploadStats> session_stats(files.size());
  {
    auto session = session_client.OpenBackupSession();
    ASSERT_TRUE(session.ok()) << session.status();
    for (size_t f = 0; f < files.size(); ++f) {
      ASSERT_TRUE(session.value()
                      ->Upload("/f" + std::to_string(f), files[f], &session_stats[f])
                      .ok());
    }
    ASSERT_TRUE(session.value()->Close().ok());
  }

  // Per-file accounting identical: same chunk boundaries, same dedup
  // decisions, same per-cloud traffic.
  for (size_t f = 0; f < files.size(); ++f) {
    ExpectSameUploadStats(session_stats[f], oneshot_stats[f], "file " + std::to_string(f));
  }
  EXPECT_GT(session_stats[1].intra_duplicate_shares, 0u)
      << "cross-file duplication must dedup within the session";

  // Identical server-side state on every cloud.
  for (int i = 0; i < kN; ++i) {
    StatsReply a = oneshot_world->ServerStats(i);
    StatsReply b = session_world->ServerStats(i);
    EXPECT_EQ(b.unique_shares, a.unique_shares) << "cloud " << i;
    EXPECT_EQ(b.stored_bytes, a.stored_bytes) << "cloud " << i;
    EXPECT_EQ(b.file_count, a.file_count) << "cloud " << i;
  }

  // Cross-reads: each world restores every file.
  for (size_t f = 0; f < files.size(); ++f) {
    EXPECT_EQ(session_client.Download("/f" + std::to_string(f)).value(), files[f]);
    EXPECT_EQ(oneshot_client.Download("/f" + std::to_string(f)).value(), files[f]);
  }
}

TEST(BackupSessionTest, IncrementalWritesMatchWholeBufferChunking) {
  Bytes data = Rng(92).RandomBytes(400000);

  auto whole_world = MakeDeployment();
  auto inc_world = MakeDeployment();
  CdstoreClient whole_client(whole_world->TransportPtrs(), 1, SmallOptions());
  CdstoreClient inc_client(inc_world->TransportPtrs(), 1, SmallOptions());

  UploadStats whole_stats;
  ASSERT_TRUE(whole_client.Upload("/file", data, &whole_stats).ok());

  // Same bytes dribbled in as odd-sized writes: the Rabin window carries
  // across Write calls, so chunk boundaries — and with them every dedup and
  // transfer number — must come out identical.
  UploadStats inc_stats;
  {
    auto session = inc_client.OpenBackupSession();
    ASSERT_TRUE(session.ok());
    auto writer = session.value()->OpenUpload("/file");
    ASSERT_TRUE(writer.ok()) << writer.status();
    size_t off = 0;
    size_t step = 1;
    while (off < data.size()) {
      size_t len = std::min(step, data.size() - off);
      ASSERT_TRUE(writer.value()->Write(ConstByteSpan(data.data() + off, len)).ok());
      off += len;
      step = step * 3 + 7;  // 1, 10, 37, ... irregular split points
    }
    ASSERT_TRUE(writer.value()->Finish(&inc_stats).ok());
    ASSERT_TRUE(session.value()->Close().ok());
  }

  ExpectSameUploadStats(inc_stats, whole_stats, "incremental");
  for (int i = 0; i < kN; ++i) {
    StatsReply a = whole_world->ServerStats(i);
    StatsReply b = inc_world->ServerStats(i);
    EXPECT_EQ(b.unique_shares, a.unique_shares) << "cloud " << i;
    EXPECT_EQ(b.stored_bytes, a.stored_bytes) << "cloud " << i;
  }
  EXPECT_EQ(inc_client.Download("/file").value(), data);
}

// ------------------------------------------------------- writer abuse --

TEST(BackupSessionTest, WriterAbuseCases) {
  auto world = MakeDeployment();
  CdstoreClient client(world->TransportPtrs(), 1, SmallOptions());
  auto session = client.OpenBackupSession();
  ASSERT_TRUE(session.ok());

  // Only one writer at a time.
  {
    auto w1 = session.value()->OpenUpload("/a");
    ASSERT_TRUE(w1.ok());
    auto w2 = session.value()->OpenUpload("/b");
    EXPECT_FALSE(w2.ok()) << "second concurrent writer must be rejected";
    ASSERT_TRUE(w1.value()->Finish().ok());
  }

  // Write-after-finish and double-finish fail; the committed (empty) file
  // is intact.
  {
    auto w = session.value()->OpenUpload("/empty");
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value()->Finish().ok());
    Bytes some = {1, 2, 3};
    EXPECT_FALSE(w.value()->Write(some).ok());
    EXPECT_FALSE(w.value()->Finish().ok());
  }
  auto empty = client.Download("/empty");
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty.value().empty());

  // An unfinished writer destroyed mid-file commits nothing...
  Bytes data = Rng(93).RandomBytes(100000);
  {
    auto w = session.value()->OpenUpload("/abandoned");
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value()->Write(data).ok());
    // destroyed without Finish
  }
  EXPECT_FALSE(client.Download("/abandoned").ok())
      << "an abandoned upload must not commit a recipe";

  // ...and the session remains fully usable afterwards.
  ASSERT_TRUE(session.value()->Upload("/after", data).ok());
  EXPECT_EQ(client.Download("/after").value(), data);
  ASSERT_TRUE(session.value()->Close().ok());
  EXPECT_FALSE(session.value()->OpenUpload("/late").ok()) << "closed session must reject opens";
}

// ------------------------------------------- golden download outputs --

// Golden DownloadStats for Rng(94).RandomBytes(700000) uploaded as "/file"
// under SmallOptions(), recorded from the barrier download (fetch every
// share from k clouds, then decode everything). The pipelined download
// batches identically, so it must reproduce every value exactly.
struct GoldenCloudDownload {
  uint64_t received_share_bytes;
  uint64_t rpcs;
};
constexpr uint64_t kGoldenReceivedShareBytes = 708981;
constexpr uint64_t kGoldenDownloadSecrets = 272;
const std::vector<int> kGoldenCloudsUsed = {0, 1, 2};
// GetFile + four 64KB GetShares batches per cloud.
constexpr GoldenCloudDownload kGoldenDownloadClouds[] = {
    {236327, 5},
    {236327, 5},
    {236327, 5},
};

TEST(DownloadTest, PipelinedMatchesGoldenBytesAndStats) {
  auto world = MakeDeployment();
  CdstoreClient client(world->TransportPtrs(), 1, SmallOptions());
  Bytes data = Rng(94).RandomBytes(700000);
  ASSERT_TRUE(client.Upload("/file", data).ok());

  DownloadStats stats;
  auto restored = client.Download("/file", &stats);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value(), data);

  EXPECT_EQ(stats.received_share_bytes, kGoldenReceivedShareBytes);
  EXPECT_EQ(stats.num_secrets, kGoldenDownloadSecrets);
  EXPECT_EQ(stats.brute_force_recoveries, 0);
  EXPECT_EQ(stats.clouds_used, kGoldenCloudsUsed);
  ASSERT_EQ(stats.per_cloud.size(), std::size(kGoldenDownloadClouds));
  uint64_t sum = 0;
  for (size_t c = 0; c < stats.per_cloud.size(); ++c) {
    EXPECT_EQ(stats.per_cloud[c].received_share_bytes,
              kGoldenDownloadClouds[c].received_share_bytes)
        << "cloud " << c;
    EXPECT_EQ(stats.per_cloud[c].rpcs, kGoldenDownloadClouds[c].rpcs) << "cloud " << c;
    sum += stats.per_cloud[c].received_share_bytes;
  }
  EXPECT_EQ(sum, stats.received_share_bytes);
}

TEST(DownloadTest, SinkReceivesBytesInOrderAcrossManyBatches) {
  auto world = MakeDeployment();
  ClientOptions opts = SmallOptions();
  opts.download_batch_bytes = 16 * 1024;  // many small batches
  CdstoreClient client(world->TransportPtrs(), 1, opts);
  Bytes data = Rng(95).RandomBytes(500000);
  ASSERT_TRUE(client.Upload("/file", data).ok());

  Bytes restored;
  BufferByteSink sink(&restored);
  DownloadStats stats;
  ASSERT_TRUE(client.Download("/file", sink, &stats).ok());
  EXPECT_EQ(restored, data);
  EXPECT_GT(stats.num_secrets, 0u);
}

TEST(DownloadTest, FileByteSinkWritesToDisk) {
  auto world = MakeDeployment();
  CdstoreClient client(world->TransportPtrs(), 1, SmallOptions());
  Bytes data = Rng(96).RandomBytes(200000);
  ASSERT_TRUE(client.Upload("/file", data).ok());

  TempDir out_dir;
  std::string path = out_dir.Sub("restored.bin");
  {
    auto sink = FileByteSink::Open(path);
    ASSERT_TRUE(sink.ok()) << sink.status();
    ASSERT_TRUE(client.Download("/file", *sink.value()).ok());
    EXPECT_EQ(sink.value()->bytes_written(), data.size());
    ASSERT_TRUE(sink.value()->Close().ok());
  }
  auto read_back = ReadFileBytes(path);
  ASSERT_TRUE(read_back.ok()) << read_back.status();
  EXPECT_EQ(read_back.value(), data);
}

// A transport that serves GetFile (recipes) but fails GetShares after the
// first `allowed_share_calls`: models a cloud dying mid-restore, after the
// fetch lanes have already been chosen.
class MidStreamFailTransport : public Transport {
 public:
  MidStreamFailTransport(Transport* inner, int allowed_share_calls)
      : inner_(inner), allowed_share_calls_(allowed_share_calls) {}

  Result<Bytes> Call(ConstByteSpan request) override {
    if (PeekType(request) == MsgType::kGetSharesRequest &&
        allowed_share_calls_.fetch_sub(1) <= 0) {
      return Status::Unavailable("cloud link dropped mid-stream");
    }
    return inner_->Call(request);
  }

 private:
  Transport* inner_;
  std::atomic<int> allowed_share_calls_;
};

TEST(DownloadTest, FetchLaneFailsOverToSpareCloudMidStream) {
  auto world = MakeDeployment();
  ClientOptions opts = SmallOptions();
  opts.download_batch_bytes = 32 * 1024;  // several batches per lane
  CdstoreClient uploader(world->TransportPtrs(), 1, opts);
  Bytes data = Rng(97).RandomBytes(600000);
  ASSERT_TRUE(uploader.Upload("/file", data).ok());

  // Cloud 1's link drops after its first share batch; the lane must
  // re-fetch the failed batch from spare cloud 3 and finish the restore.
  std::vector<Transport*> transports = world->TransportPtrs();
  MidStreamFailTransport flaky(transports[1], /*allowed_share_calls=*/1);
  transports[1] = &flaky;
  CdstoreClient restorer(transports, 1, opts);

  DownloadStats stats;
  auto restored = restorer.Download("/file", &stats);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value(), data);
  EXPECT_NE(std::find(stats.clouds_used.begin(), stats.clouds_used.end(), 3),
            stats.clouds_used.end())
      << "the spare cloud must have been recruited";
}

TEST(DownloadTest, FailsCleanlyWhenNoSpareCloudIsLeft) {
  auto world = MakeDeployment();
  ClientOptions opts = SmallOptions();
  opts.download_batch_bytes = 32 * 1024;
  CdstoreClient uploader(world->TransportPtrs(), 1, opts);
  Bytes data = Rng(98).RandomBytes(400000);
  ASSERT_TRUE(uploader.Upload("/file", data).ok());

  // Two clouds die mid-stream: only n - 2 = 2 < k survive, so the restore
  // must fail (and must not hang).
  std::vector<Transport*> transports = world->TransportPtrs();
  MidStreamFailTransport flaky1(transports[0], 1);
  MidStreamFailTransport flaky2(transports[2], 1);
  transports[0] = &flaky1;
  transports[2] = &flaky2;
  CdstoreClient restorer(transports, 1, opts);
  EXPECT_FALSE(restorer.Download("/file").ok());
}

// A transport whose GetShares replies carry the first share with one byte
// flipped: models a cloud returning a corrupted share (§3.2).
class CorruptFirstShareTransport : public Transport {
 public:
  explicit CorruptFirstShareTransport(Transport* inner) : inner_(inner) {}

  Result<Bytes> Call(ConstByteSpan request) override {
    ASSIGN_OR_RETURN(Bytes frame, inner_->Call(request));
    if (PeekType(request) != MsgType::kGetSharesRequest) {
      return frame;
    }
    GetSharesReply reply;
    RETURN_IF_ERROR(Decode(frame, &reply));
    reply.shares[0][0] ^= 0x5a;
    return Encode(reply);
  }

 private:
  Transport* inner_;
};

TEST(DownloadTest, CorruptedShareRecoveredByBruteForceOverSpareCloud) {
  auto world = MakeDeployment();
  CdstoreClient uploader(world->TransportPtrs(), 1, SmallOptions());
  Bytes data = Rng(100).RandomBytes(200000);
  ASSERT_TRUE(uploader.Upload("/file", data).ok());

  // Cloud 0 corrupts the first share of every batch it serves; each such
  // secret must be rebuilt from the spare cloud's copy of its share.
  std::vector<Transport*> transports = world->TransportPtrs();
  CorruptFirstShareTransport corrupt(transports[0]);
  transports[0] = &corrupt;
  CdstoreClient restorer(transports, 1, SmallOptions());

  DownloadStats stats;
  auto restored = restorer.Download("/file", &stats);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value(), data);
  EXPECT_GT(stats.brute_force_recoveries, 0);
}

// ---------------------------------------------------- repair via session --

TEST(RepairTest, StreamedRepairRebuildsLostCloud) {
  auto world = MakeDeployment();
  CdstoreClient client(world->TransportPtrs(), 1, SmallOptions());
  Bytes data = Rng(99).RandomBytes(300000);
  ASSERT_TRUE(client.Upload("/precious", data).ok());

  // Cloud 2 loses everything.
  world->servers[2].reset();
  world->backends[2] = std::make_unique<MemBackend>();
  ServerOptions so;
  so.index_dir = world->dir.Sub("server2-rebuilt");
  auto server = CdstoreServer::Create(world->backends[2].get(), so);
  ASSERT_TRUE(server.ok());
  world->servers[2] = std::move(server.value());
  world->transports[2] = std::make_unique<InProcTransport>(world->servers[2]->AsHandler());

  CdstoreClient fresh(world->TransportPtrs(), 1, SmallOptions());
  ASSERT_TRUE(fresh.RepairFile("/precious", 2).ok());
  EXPECT_GT(world->ServerStats(2).unique_shares, 0u);

  world->transports[0]->set_connected(false);
  EXPECT_EQ(fresh.Download("/precious").value(), data);
  world->transports[0]->set_connected(true);
}

}  // namespace
}  // namespace cdstore
