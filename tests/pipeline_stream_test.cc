// Streaming pipeline tests: CodingPipeline::Stream must produce exactly
// what EncodeAll produces (same shares, same order, correct fingerprints),
// the streaming client upload must reproduce golden recipes, dedup stats
// and server state, and the move-accepting
// ReedSolomon::Encode must match the copying overload.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/core/client.h"
#include "src/core/coding_pipeline.h"
#include "src/core/server.h"
#include "src/crypto/sha256.h"
#include "src/dedup/fingerprint.h"
#include "src/dispersal/aont_rs.h"
#include "src/net/transport.h"
#include "src/rs/reed_solomon.h"
#include "src/storage/backend.h"
#include "src/util/fs_util.h"
#include "src/util/io.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

// --------------------------------------------------- stream vs EncodeAll --

std::vector<Bytes> MakeSecrets(int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> secrets;
  secrets.reserve(count);
  for (int i = 0; i < count; ++i) {
    // Odd sizes included: padding paths must agree too.
    secrets.push_back(rng.RandomBytes(1 + rng.Uniform(6000)));
  }
  return secrets;
}

TEST(CodingStreamTest, MatchesEncodeAllSharesOrderAndFingerprints) {
  auto scheme = MakeCaontRs(4, 3);
  CodingPipeline pipeline(scheme.get(), 3);
  std::vector<Bytes> secrets = MakeSecrets(200, 21);

  std::vector<std::vector<Bytes>> batch_shares;
  ASSERT_TRUE(pipeline.EncodeAll(secrets, &batch_shares).ok());

  std::vector<CodingPipeline::EncodedSecret> bundles;
  {
    auto stream = pipeline.OpenStream(
        [&](CodingPipeline::EncodedSecret b) { bundles.push_back(std::move(b)); },
        /*queue_depth=*/8);
    for (const Bytes& s : secrets) {
      ASSERT_TRUE(stream->Submit(ConstByteSpan(s)).ok());
    }
    ASSERT_TRUE(stream->Finish().ok());
  }

  ASSERT_EQ(bundles.size(), secrets.size());
  for (size_t i = 0; i < secrets.size(); ++i) {
    EXPECT_EQ(bundles[i].seq, i) << "bundles must arrive in submission order";
    EXPECT_EQ(bundles[i].secret_size, secrets[i].size());
    // CAONT-RS is deterministic: streaming shares must equal EncodeAll shares.
    EXPECT_EQ(bundles[i].shares, batch_shares[i]);
    ASSERT_EQ(bundles[i].fps.size(), bundles[i].shares.size());
    for (size_t c = 0; c < bundles[i].shares.size(); ++c) {
      EXPECT_EQ(bundles[i].fps[c], FingerprintOf(bundles[i].shares[c]));
    }
  }
}

TEST(CodingStreamTest, OwnedSubmissionMatchesSpanSubmission) {
  auto scheme = MakeCaontRs(4, 3);
  CodingPipeline pipeline(scheme.get(), 2);
  std::vector<Bytes> secrets = MakeSecrets(50, 22);

  std::vector<std::vector<Bytes>> by_span;
  {
    auto stream = pipeline.OpenStream(
        [&](CodingPipeline::EncodedSecret b) { by_span.push_back(std::move(b.shares)); }, 4);
    for (const Bytes& s : secrets) {
      ASSERT_TRUE(stream->Submit(ConstByteSpan(s)).ok());
    }
    ASSERT_TRUE(stream->Finish().ok());
  }
  std::vector<std::vector<Bytes>> by_owned;
  {
    auto stream = pipeline.OpenStream(
        [&](CodingPipeline::EncodedSecret b) { by_owned.push_back(std::move(b.shares)); }, 4);
    for (const Bytes& s : secrets) {
      ASSERT_TRUE(stream->Submit(Bytes(s)).ok());
    }
    ASSERT_TRUE(stream->Finish().ok());
  }
  EXPECT_EQ(by_span, by_owned);
}

TEST(CodingStreamTest, SlowSinkBackpressureDoesNotDeadlockOrReorder) {
  auto scheme = MakeCaontRs(4, 3);
  CodingPipeline pipeline(scheme.get(), 4);
  std::vector<Bytes> secrets = MakeSecrets(60, 23);

  uint64_t expect_seq = 0;
  std::atomic<int> delivered{0};
  {
    auto stream = pipeline.OpenStream(
        [&](CodingPipeline::EncodedSecret b) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          ASSERT_EQ(b.seq, expect_seq++);
          ++delivered;
        },
        /*queue_depth=*/2);  // tiny queue: Submit must block, not fail
    for (const Bytes& s : secrets) {
      ASSERT_TRUE(stream->Submit(ConstByteSpan(s)).ok());
    }
    ASSERT_TRUE(stream->Finish().ok());
  }
  EXPECT_EQ(delivered.load(), static_cast<int>(secrets.size()));
}

TEST(CodingStreamTest, EmptyStreamFinishesCleanly) {
  auto scheme = MakeCaontRs(4, 3);
  CodingPipeline pipeline(scheme.get(), 2);
  int delivered = 0;
  auto stream = pipeline.OpenStream([&](CodingPipeline::EncodedSecret) { ++delivered; }, 4);
  EXPECT_TRUE(stream->Finish().ok());
  EXPECT_EQ(delivered, 0);
}

// A scheme that fails on every secret whose first byte is the poison value;
// exercises the stream's error path.
class PoisonScheme : public SecretSharing {
 public:
  explicit PoisonScheme(std::unique_ptr<SecretSharing> inner) : inner_(std::move(inner)) {}
  std::string name() const override { return "poison"; }
  int n() const override { return inner_->n(); }
  int k() const override { return inner_->k(); }
  int r() const override { return inner_->r(); }
  bool deterministic() const override { return inner_->deterministic(); }
  Status Encode(ConstByteSpan secret, std::vector<Bytes>* shares) override {
    if (!secret.empty() && secret[0] == 0xEE) {
      return Status::Internal("poisoned secret");
    }
    return inner_->Encode(secret, shares);
  }
  Status Decode(const std::vector<int>& ids, const std::vector<Bytes>& shares,
                size_t secret_size, Bytes* secret) override {
    return inner_->Decode(ids, shares, secret_size, secret);
  }
  size_t ShareSize(size_t secret_size) const override { return inner_->ShareSize(secret_size); }

 private:
  std::unique_ptr<SecretSharing> inner_;
};

TEST(CodingStreamTest, EncodeErrorSurfacesAndStreamStillDrains) {
  PoisonScheme scheme(MakeCaontRs(4, 3));
  CodingPipeline pipeline(&scheme, 3);
  Rng rng(24);
  int delivered = 0;
  auto stream = pipeline.OpenStream([&](CodingPipeline::EncodedSecret) { ++delivered; }, 4);
  Status submit_status;
  for (int i = 0; i < 100; ++i) {
    Bytes secret = rng.RandomBytes(500);
    secret[0] = (i == 40) ? 0xEE : 0x00;
    submit_status = stream->Submit(Bytes(secret));
    if (!submit_status.ok()) {
      break;
    }
  }
  Status finish_status = stream->Finish();
  EXPECT_FALSE(finish_status.ok()) << "poisoned encode must surface from Finish";
  EXPECT_LT(delivered, 100);
}

// ------------------------------------------------ golden upload outputs --

class UploadEquivalenceTest : public ::testing::Test {
 protected:
  static constexpr int kN = 4;
  static constexpr int kK = 3;

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

    // SHA-256 over (fp, secret_size, share_size) of every entry of the
    // recipe cloud `i` returns from GetFile for `path_key`.
    std::string RecipeDigest(int i, UserId user, const Bytes& path_key) {
      GetFileRequest req;
      req.user = user;
      req.path_key = path_key;
      Bytes frame = servers[i]->Handle(Encode(req));
      GetFileReply reply;
      EXPECT_TRUE(Decode(frame, &reply).ok());
      BufferWriter w;
      for (const RecipeEntry& e : reply.recipe) {
        w.PutRaw(e.fp);
        w.PutU32(e.secret_size);
        w.PutU32(e.share_size);
      }
      return HexEncode(Sha256::Hash(w.data()));
    }
  };

  static std::unique_ptr<Deployment> MakeDeployment() {
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

  static ClientOptions Options() {
    ClientOptions o;
    o.n = kN;
    o.k = kK;
    o.encode_threads = 3;
    o.rabin.min_size = 512;
    o.rabin.avg_size = 2048;
    o.rabin.max_size = 8192;
    o.pipeline_queue_depth = 8;
    // ~240KB of shares per cloud over 32KB windows: several FpQuery
    // windows per cloud, so a share already in flight from an earlier
    // window must still count as an intra-upload duplicate.
    o.stream_batch_bytes = 32 * 1024;
    return o;
  }

  // Data with internal duplication so intra-upload dedup fires.
  static Bytes DupHeavyData(size_t size, uint64_t seed) {
    Bytes block = Rng(seed).RandomBytes(size / 4);
    Bytes data;
    data.reserve(size);
    for (int rep = 0; rep < 3; ++rep) {
      data.insert(data.end(), block.begin(), block.end());
    }
    Bytes tail = Rng(seed + 1).RandomBytes(size - data.size());
    data.insert(data.end(), tail.begin(), tail.end());
    return data;
  }
};

// Golden outputs for DupHeavyData(700000, 31) uploaded as "/file" under
// Options(), recorded from the barrier upload the client used to offer next
// to the streaming one (chunk and encode the whole file, then one dedup
// query and batched transfers per cloud). Dedup decisions, recipes and
// server state do not depend on how the upload is windowed, so the
// streaming path must reproduce every value exactly.
struct GoldenCloud {
  uint64_t transferred_share_bytes;
  uint64_t intra_duplicate_shares;
  uint64_t unique_shares;
  uint64_t stored_bytes;
  uint64_t file_count;
  const char* recipe_sha256;
};
constexpr uint64_t kGoldenLogicalBytes = 700000;
constexpr uint64_t kGoldenGenerationId = 1;
constexpr uint64_t kGoldenNumSecrets = 299;
constexpr uint64_t kGoldenLogicalShareBytes = 946492;
constexpr uint64_t kGoldenTransferredShareBytes = 478204;
constexpr uint64_t kGoldenIntraDuplicateShares = 636;
constexpr GoldenCloud kGoldenClouds[] = {
    {119551, 159, 140, 119551, 1,
     "7000ff86c9af66d89e66329dfe5c05852fcc1c3b876e82105ade241785584e90"},
    {119551, 159, 140, 119551, 1,
     "0681b4af287bd76fccde26f1db78839f6fc618674ffca055728a39ee68280e0b"},
    {119551, 159, 140, 119551, 1,
     "856f2dd81d774fd5f014fd56d6374be2fe2ac025286cb5ce45f8710c3e01ca35"},
    {119551, 159, 140, 119551, 1,
     "34a5aa09125a29571af42cfd250090469e192d397cac7c446ce8c975c0899150"},
};

TEST_F(UploadEquivalenceTest, StreamingMatchesGoldenStatsServerStateAndContent) {
  Bytes data = DupHeavyData(700000, 31);
  auto world = MakeDeployment();
  CdstoreClient client(world->TransportPtrs(), 1, Options());
  UploadStats stats;
  ASSERT_TRUE(client.Upload("/file", data, &stats).ok());

  EXPECT_EQ(stats.logical_bytes, kGoldenLogicalBytes);
  EXPECT_EQ(stats.generation_id, kGoldenGenerationId);
  EXPECT_EQ(stats.num_secrets, kGoldenNumSecrets);
  EXPECT_EQ(stats.logical_share_bytes, kGoldenLogicalShareBytes);
  EXPECT_EQ(stats.transferred_share_bytes, kGoldenTransferredShareBytes);
  EXPECT_EQ(stats.intra_duplicate_shares, kGoldenIntraDuplicateShares);
  EXPECT_GT(stats.intra_duplicate_shares, 0u) << "test data must contain dups";

  // Path keys are the CAONT-RS shares of the path name (client.h, §4.3).
  std::vector<Bytes> path_keys;
  ASSERT_TRUE(MakeCaontRs(kN, kK)->Encode(BytesOf("/file"), &path_keys).ok());
  ASSERT_EQ(stats.per_cloud.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    const GoldenCloud& g = kGoldenClouds[i];
    EXPECT_EQ(stats.per_cloud[i].transferred_share_bytes, g.transferred_share_bytes)
        << "cloud " << i;
    EXPECT_EQ(stats.per_cloud[i].intra_duplicate_shares, g.intra_duplicate_shares)
        << "cloud " << i;
    // FpQuery + UploadShares + PutFile is 3 RPCs for one window; more means
    // the cross-window in-flight dedup above was really exercised.
    EXPECT_GT(stats.per_cloud[i].rpcs, 3u) << "cloud " << i;
    StatsReply s = world->ServerStats(i);
    EXPECT_EQ(s.unique_shares, g.unique_shares) << "cloud " << i;
    EXPECT_EQ(s.stored_bytes, g.stored_bytes) << "cloud " << i;
    EXPECT_EQ(s.file_count, g.file_count) << "cloud " << i;
    EXPECT_EQ(world->RecipeDigest(i, 1, path_keys[i]), g.recipe_sha256) << "cloud " << i;
  }

  EXPECT_EQ(client.Download("/file").value(), data);
}

TEST_F(UploadEquivalenceTest, StreamingReuploadFullyDedups) {
  auto world = MakeDeployment();
  CdstoreClient client(world->TransportPtrs(), 1, Options());
  Bytes data = Rng(32).RandomBytes(300000);
  ASSERT_TRUE(client.Upload("/v1", data).ok());
  UploadStats second;
  ASSERT_TRUE(client.Upload("/v2", data, &second).ok());
  EXPECT_EQ(second.transferred_share_bytes, 0u);
  EXPECT_EQ(second.intra_duplicate_shares, second.num_secrets * kN);
}

TEST_F(UploadEquivalenceTest, StreamingUploadFailsCleanlyWhenCloudDisconnected) {
  auto world = MakeDeployment();
  CdstoreClient client(world->TransportPtrs(), 1, Options());
  world->transports[2]->set_connected(false);
  Bytes data = Rng(33).RandomBytes(200000);
  Status st = client.Upload("/doomed", data);
  EXPECT_FALSE(st.ok()) << "upload must report the failed cloud";
  world->transports[2]->set_connected(true);
  // The pipeline must not have wedged: a retry succeeds end to end.
  ASSERT_TRUE(client.Upload("/doomed", data).ok());
  EXPECT_EQ(client.Download("/doomed").value(), data);
}

// --------------------------------------------------- RS move-encode path --

TEST(ReedSolomonMoveTest, MoveEncodeMatchesCopyEncode) {
  ReedSolomon rs(6, 4);
  Rng rng(41);
  for (size_t shard_size : {1ul, 17ul, 1024ul}) {
    std::vector<Bytes> shards;
    for (int i = 0; i < 4; ++i) {
      shards.push_back(rng.RandomBytes(shard_size));
    }
    std::vector<Bytes> copied;
    ASSERT_TRUE(rs.Encode(shards, &copied).ok());  // lvalue: copying overload
    std::vector<Bytes> moved;
    ASSERT_TRUE(rs.Encode(std::move(shards), &moved).ok());
    EXPECT_EQ(moved, copied);
  }
}

}  // namespace
}  // namespace cdstore
