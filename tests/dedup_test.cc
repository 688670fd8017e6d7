#include <gtest/gtest.h>

#include "src/dedup/file_index.h"
#include "src/dedup/fingerprint.h"
#include "src/dedup/share_index.h"
#include "src/kvstore/db.h"
#include "src/util/fs_util.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

class DedupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Db::Open(dir_.Sub("db"), DbOptions{});
    ASSERT_TRUE(db.ok());
    db_ = std::move(db.value());
  }

  TempDir dir_;
  std::unique_ptr<Db> db_;
};

TEST_F(DedupTest, FingerprintIsSha256) {
  Fingerprint fp = FingerprintOf(BytesOf("abc"));
  EXPECT_EQ(HexEncode(fp), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(fp.size(), kFingerprintSize);
}

TEST_F(DedupTest, ShareEntrySerializationRoundTrip) {
  ShareIndexEntry e;
  e.location = {42, 7, 2700};
  e.owners[1] = 3;
  e.owners[9] = 1;
  auto back = ShareIndexEntry::Deserialize(e.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().location.container_id, 42u);
  EXPECT_EQ(back.value().location.index_in_container, 7u);
  EXPECT_EQ(back.value().location.share_size, 2700u);
  EXPECT_EQ(back.value().owners.at(1), 3u);
  EXPECT_EQ(back.value().owners.at(9), 1u);
}

TEST_F(DedupTest, InsertLookupShare) {
  ShareIndex index(db_.get());
  Fingerprint fp = FingerprintOf(BytesOf("share-content"));
  EXPECT_FALSE(index.Lookup(fp).value().has_value());
  ASSERT_TRUE(index.Insert(fp, {1, 0, 100}).ok());
  auto loc = index.Lookup(fp);
  ASSERT_TRUE(loc.ok());
  ASSERT_TRUE(loc.value().has_value());
  EXPECT_EQ(loc.value()->container_id, 1u);
  // Double insert rejected.
  EXPECT_EQ(index.Insert(fp, {2, 0, 100}).code(), StatusCode::kAlreadyExists);
}

TEST_F(DedupTest, PerUserOwnershipIsIsolated) {
  // The crux of the side-channel defence (§3.3): user B must not appear to
  // own user A's share even though it is globally deduplicated.
  ShareIndex index(db_.get());
  Fingerprint fp = FingerprintOf(BytesOf("x"));
  ASSERT_TRUE(index.Insert(fp, {1, 0, 8}).ok());
  ASSERT_TRUE(index.AddReference(fp, /*user=*/1).ok());
  EXPECT_TRUE(index.UserHasShare(fp, 1).value());
  EXPECT_FALSE(index.UserHasShare(fp, 2).value());
}

TEST_F(DedupTest, ReferenceCountingLifecycle) {
  ShareIndex index(db_.get());
  Fingerprint fp = FingerprintOf(BytesOf("y"));
  ASSERT_TRUE(index.Insert(fp, {1, 0, 8}).ok());
  ASSERT_TRUE(index.AddReference(fp, 1).ok());
  ASSERT_TRUE(index.AddReference(fp, 1).ok());  // two refs from user 1
  ASSERT_TRUE(index.AddReference(fp, 2).ok());  // one from user 2

  bool orphaned = true;
  ASSERT_TRUE(index.DropReference(fp, 1, &orphaned).ok());
  EXPECT_FALSE(orphaned);
  ASSERT_TRUE(index.DropReference(fp, 1, &orphaned).ok());
  EXPECT_FALSE(orphaned);
  EXPECT_FALSE(index.UserHasShare(fp, 1).value());  // user 1 fully released
  EXPECT_TRUE(index.UserHasShare(fp, 2).value());
  ASSERT_TRUE(index.DropReference(fp, 2, &orphaned).ok());
  EXPECT_TRUE(orphaned) << "last reference must mark the share collectible";
}

TEST_F(DedupTest, DropWithoutReferenceFails) {
  ShareIndex index(db_.get());
  Fingerprint fp = FingerprintOf(BytesOf("z"));
  ASSERT_TRUE(index.Insert(fp, {1, 0, 8}).ok());
  bool orphaned = false;
  EXPECT_EQ(index.DropReference(fp, 5, &orphaned).code(), StatusCode::kFailedPrecondition);
}

TEST_F(DedupTest, UniqueShareCountTracksInserts) {
  ShareIndex index(db_.get());
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(index.Insert(FingerprintOf(Rng(i).RandomBytes(10)), {1, 0, 10}).ok());
  }
  EXPECT_EQ(index.UniqueShareCount().value(), 25u);
}

TEST_F(DedupTest, EraseRemovesEntry) {
  ShareIndex index(db_.get());
  Fingerprint fp = FingerprintOf(BytesOf("gone"));
  ASSERT_TRUE(index.Insert(fp, {1, 0, 8}).ok());
  ASSERT_TRUE(index.Erase(fp).ok());
  EXPECT_FALSE(index.Lookup(fp).value().has_value());
}

// Paths (not generations) `user` has stored, counted by paging through the
// namespace scan two heads at a time.
uint64_t PathCount(FileIndex& files, UserId user) {
  uint64_t count = 0;
  Bytes cursor;
  do {
    auto page = files.ScanPaths(user, cursor, /*limit=*/2);
    EXPECT_TRUE(page.ok()) << page.status();
    if (!page.ok()) {
      return count;
    }
    count += page.value().entries.size();
    cursor = page.value().next_cursor;
  } while (!cursor.empty());
  return count;
}

TEST_F(DedupTest, FileIndexPutGetDelete) {
  FileIndex files(db_.get());
  GenerationRecord rec;
  rec.file_size = 1000;
  rec.num_secrets = 3;
  rec.recipe_container_id = 12;
  rec.recipe_index = 4;
  Bytes path_key = BytesOf("encoded-path-share");
  bool new_path = false;
  auto stored = files.AppendGeneration(7, path_key, rec, &new_path);
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_TRUE(new_path);
  auto got = files.GetGeneration(7, path_key, /*generation=*/0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().generation_id, stored.value().generation_id);
  EXPECT_EQ(got.value().file_size, 1000u);
  EXPECT_EQ(got.value().recipe_container_id, 12u);
  EXPECT_EQ(got.value().recipe_index, 4u);
  // A different user cannot see the file.
  EXPECT_EQ(files.GetGeneration(8, path_key, 0).status().code(), StatusCode::kNotFound);
  bool path_removed = false;
  ASSERT_TRUE(
      files.DeleteGeneration(7, path_key, stored.value().generation_id, &path_removed).ok());
  EXPECT_TRUE(path_removed);
  EXPECT_EQ(files.GetGeneration(7, path_key, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(PathCount(files, 7), 0u);
}

TEST_F(DedupTest, FileCountPerUser) {
  FileIndex files(db_.get());
  GenerationRecord rec;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        files.AppendGeneration(1, BytesOf("path" + std::to_string(i)), rec, nullptr).ok());
  }
  // A second generation of an existing path is not a new path.
  ASSERT_TRUE(files.AppendGeneration(1, BytesOf("path0"), rec, nullptr).ok());
  ASSERT_TRUE(files.AppendGeneration(2, BytesOf("other"), rec, nullptr).ok());
  EXPECT_EQ(PathCount(files, 1), 5u);
  EXPECT_EQ(PathCount(files, 2), 1u);
  EXPECT_EQ(PathCount(files, 3), 0u);
}

TEST_F(DedupTest, IndicesCoexistInOneDb) {
  // Share and file indices share the Db via key prefixes.
  ShareIndex shares(db_.get());
  FileIndex files(db_.get());
  Fingerprint fp = FingerprintOf(BytesOf("s"));
  ASSERT_TRUE(shares.Insert(fp, {1, 0, 8}).ok());
  ASSERT_TRUE(files.AppendGeneration(1, BytesOf("p"), GenerationRecord{}, nullptr).ok());
  EXPECT_EQ(shares.UniqueShareCount().value(), 1u);
  EXPECT_EQ(PathCount(files, 1), 1u);
  EXPECT_TRUE(shares.Lookup(fp).value().has_value());
}

TEST_F(DedupTest, IndexSurvivesDbReopen) {
  Fingerprint fp = FingerprintOf(BytesOf("durable"));
  {
    ShareIndex index(db_.get());
    ASSERT_TRUE(index.Insert(fp, {3, 1, 99}).ok());
    ASSERT_TRUE(index.AddReference(fp, 11).ok());
  }
  db_.reset();
  auto reopened = Db::Open(dir_.Sub("db"), DbOptions{});
  ASSERT_TRUE(reopened.ok());
  ShareIndex index(reopened.value().get());
  EXPECT_TRUE(index.UserHasShare(fp, 11).value());
  auto loc = index.Lookup(fp);
  ASSERT_TRUE(loc.value().has_value());
  EXPECT_EQ(loc.value()->share_size, 99u);
}

}  // namespace
}  // namespace cdstore
