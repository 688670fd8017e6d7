#include "src/dedup/file_index.h"

#include <algorithm>

#include "src/crypto/sha256.h"
#include "src/util/io.h"
#include "src/util/logging.h"

namespace cdstore {

namespace {
constexpr char kHeadPrefix = 'F';
constexpr char kGenPrefix = 'G';
constexpr uint8_t kPathHeadV1 = 1;

void AppendUserBe(Bytes* key, UserId user) {
  for (int i = 7; i >= 0; --i) {
    key->push_back(static_cast<uint8_t>(user >> (8 * i)));
  }
}

void AppendU64Be(Bytes* key, uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    key->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}
}  // namespace

Bytes GenerationRecord::Serialize() const {
  BufferWriter w;
  w.PutU64(generation_id);
  w.PutU64(file_size);
  w.PutU64(num_secrets);
  w.PutU64(recipe_container_id);
  w.PutU32(recipe_index);
  w.PutU64(unique_bytes);
  w.PutU64(timestamp_ms);
  return w.Take();
}

Result<GenerationRecord> GenerationRecord::Deserialize(ConstByteSpan data) {
  GenerationRecord g;
  BufferReader r(data);
  RETURN_IF_ERROR(r.GetU64(&g.generation_id));
  RETURN_IF_ERROR(r.GetU64(&g.file_size));
  RETURN_IF_ERROR(r.GetU64(&g.num_secrets));
  RETURN_IF_ERROR(r.GetU64(&g.recipe_container_id));
  RETURN_IF_ERROR(r.GetU32(&g.recipe_index));
  RETURN_IF_ERROR(r.GetU64(&g.unique_bytes));
  RETURN_IF_ERROR(r.GetU64(&g.timestamp_ms));
  return g;
}

Bytes PathHead::Serialize() const {
  BufferWriter w;
  w.PutU64(next_generation);
  w.PutU64(latest_generation);
  w.PutU64(generation_count);
  // A head that has acquired any namespace metadata serializes as v1; one
  // that never did stays in the legacy 24-byte layout, so a no-metadata
  // rewrite round-trips byte-identically.
  if (!path_id.empty() || !name_share.empty() || name_len != 0) {
    w.PutU8(kPathHeadV1);
    w.PutBytes(path_id);
    w.PutBytes(name_share);
    w.PutU32(name_len);
  }
  return w.Take();
}

Result<PathHead> PathHead::Deserialize(ConstByteSpan data) {
  PathHead h;
  BufferReader r(data);
  RETURN_IF_ERROR(r.GetU64(&h.next_generation));
  RETURN_IF_ERROR(r.GetU64(&h.latest_generation));
  RETURN_IF_ERROR(r.GetU64(&h.generation_count));
  if (r.remaining() == 0) {
    return h;  // legacy v0 record: counters only, no stored name
  }
  uint8_t version = 0;
  RETURN_IF_ERROR(r.GetU8(&version));
  if (version != kPathHeadV1) {
    return Status::Corruption("unknown PathHead version " + std::to_string(version));
  }
  RETURN_IF_ERROR(r.GetBytes(&h.path_id));
  RETURN_IF_ERROR(r.GetBytes(&h.name_share));
  RETURN_IF_ERROR(r.GetU32(&h.name_len));
  return h;
}

FileIndex::FileIndex(Db* db) : db_(db) { CHECK(db != nullptr); }

Bytes FileIndex::HeadKeyForHash(UserId user, ConstByteSpan path_hash) const {
  // Key: 'F' || user (8B BE, so one user's files are contiguous) ||
  // H(path_key). Hashing bounds key size for arbitrarily long paths.
  Bytes key;
  key.reserve(1 + 8 + path_hash.size());
  key.push_back(kHeadPrefix);
  AppendUserBe(&key, user);
  key.insert(key.end(), path_hash.begin(), path_hash.end());
  return key;
}

Bytes FileIndex::GenKeyForHash(UserId user, ConstByteSpan path_hash,
                               uint64_t generation) const {
  // Big-endian generation suffix: a prefix scan yields ascending ids.
  Bytes key;
  key.reserve(1 + 8 + path_hash.size() + 8);
  key.push_back(kGenPrefix);
  AppendUserBe(&key, user);
  key.insert(key.end(), path_hash.begin(), path_hash.end());
  AppendU64Be(&key, generation);
  return key;
}

Result<std::optional<PathHead>> FileIndex::GetHeadByHash(UserId user,
                                                         ConstByteSpan path_hash) {
  Bytes value;
  Status st = db_->Get(HeadKeyForHash(user, path_hash), &value);
  if (st.code() == StatusCode::kNotFound) {
    return std::optional<PathHead>(std::nullopt);
  }
  RETURN_IF_ERROR(st);
  ASSIGN_OR_RETURN(PathHead head, PathHead::Deserialize(value));
  return std::optional<PathHead>(head);
}

void FileIndex::UpgradeHead(PathHead* head, ConstByteSpan path_key,
                            const PathNameInfo* name) {
  // The name share IS the path key this cloud already holds, so every
  // mutating touch can refresh it for free — this is what upgrades legacy
  // v0 heads without an index-wide rewrite. Caller-supplied fields only
  // ever fill in blanks or overwrite with equal-provenance data; empty
  // inputs never erase stored metadata.
  head->name_share.assign(path_key.begin(), path_key.end());
  if (name != nullptr) {
    if (!name->path_id.empty()) {
      head->path_id.assign(name->path_id.begin(), name->path_id.end());
    }
    if (name->name_len != 0) {
      head->name_len = name->name_len;
    }
  }
}

Result<GenerationRecord> FileIndex::AppendGeneration(UserId user, ConstByteSpan path_key,
                                                     const GenerationRecord& rec,
                                                     bool* new_path,
                                                     const PathNameInfo* name) {
  Bytes hash = Sha256::Hash(path_key);
  ASSIGN_OR_RETURN(std::optional<PathHead> maybe_head, GetHeadByHash(user, hash));
  if (new_path != nullptr) {
    *new_path = !maybe_head.has_value();
  }
  PathHead head = maybe_head.value_or(PathHead{});
  UpgradeHead(&head, path_key, name);
  GenerationRecord stored = rec;
  stored.generation_id = head.next_generation;
  head.next_generation = stored.generation_id + 1;
  head.latest_generation = std::max(head.latest_generation, stored.generation_id);
  head.generation_count += 1;
  WriteBatch batch;
  batch.Put(GenKeyForHash(user, hash, stored.generation_id), stored.Serialize());
  batch.Put(HeadKeyForHash(user, hash), head.Serialize());
  RETURN_IF_ERROR(db_->Write(batch));
  return stored;
}

Status FileIndex::PutGeneration(UserId user, ConstByteSpan path_key,
                                const GenerationRecord& rec, bool* new_path,
                                bool* new_generation, const PathNameInfo* name) {
  if (rec.generation_id == 0) {
    return Status::InvalidArgument("generation id must be nonzero");
  }
  Bytes hash = Sha256::Hash(path_key);
  ASSIGN_OR_RETURN(std::optional<PathHead> maybe_head, GetHeadByHash(user, hash));
  if (new_path != nullptr) {
    *new_path = !maybe_head.has_value();
  }
  PathHead head = maybe_head.value_or(PathHead{});
  UpgradeHead(&head, path_key, name);
  Bytes gen_key = GenKeyForHash(user, hash, rec.generation_id);
  Bytes existing;
  Status probe = db_->Get(gen_key, &existing);
  if (probe.code() == StatusCode::kNotFound) {
    head.generation_count += 1;
    if (new_generation != nullptr) {
      *new_generation = true;
    }
  } else {
    RETURN_IF_ERROR(probe);
    if (new_generation != nullptr) {
      *new_generation = false;
    }
  }
  head.latest_generation = std::max(head.latest_generation, rec.generation_id);
  head.next_generation = std::max(head.next_generation, rec.generation_id + 1);
  WriteBatch batch;
  batch.Put(gen_key, rec.Serialize());
  batch.Put(HeadKeyForHash(user, hash), head.Serialize());
  return db_->Write(batch);
}

Result<GenerationRecord> FileIndex::GetGeneration(UserId user, ConstByteSpan path_key,
                                                  uint64_t generation) {
  return GetGenerationHashed(user, Sha256::Hash(path_key), generation);
}

Result<GenerationRecord> FileIndex::GetGenerationHashed(UserId user, ConstByteSpan path_hash,
                                                        uint64_t generation) {
  if (generation == 0) {
    ASSIGN_OR_RETURN(std::optional<PathHead> head, GetHeadByHash(user, path_hash));
    if (!head.has_value() || head->latest_generation == 0) {
      return Status::NotFound("file not found");
    }
    generation = head->latest_generation;
  }
  Bytes value;
  Status st = db_->Get(GenKeyForHash(user, path_hash, generation), &value);
  if (st.code() == StatusCode::kNotFound) {
    return Status::NotFound("generation " + std::to_string(generation) + " not found");
  }
  RETURN_IF_ERROR(st);
  return GenerationRecord::Deserialize(value);
}

Result<std::vector<GenerationRecord>> FileIndex::ListGenerations(UserId user,
                                                                 ConstByteSpan path_key) {
  return ListGenerationsHashed(user, Sha256::Hash(path_key));
}

Result<std::vector<GenerationRecord>> FileIndex::ListGenerationsHashed(
    UserId user, ConstByteSpan path_hash) {
  ASSIGN_OR_RETURN(std::optional<PathHead> head, GetHeadByHash(user, path_hash));
  if (!head.has_value()) {
    return Status::NotFound("file not found");
  }
  Bytes prefix = GenKeyForHash(user, path_hash, 0);
  prefix.resize(prefix.size() - 8);  // strip the generation suffix
  std::vector<GenerationRecord> out;
  out.reserve(head->generation_count);
  auto it = db_->NewIterator();
  for (it->Seek(prefix); it->Valid(); it->Next()) {
    const Bytes& k = it->key();
    if (k.size() != prefix.size() + 8 ||
        !std::equal(prefix.begin(), prefix.end(), k.begin())) {
      break;
    }
    ASSIGN_OR_RETURN(GenerationRecord rec, GenerationRecord::Deserialize(it->value()));
    out.push_back(std::move(rec));
  }
  return out;
}

Status FileIndex::DeleteGeneration(UserId user, ConstByteSpan path_key, uint64_t generation,
                                   bool* path_removed) {
  return DeleteGenerationHashed(user, Sha256::Hash(path_key), generation, path_removed);
}

Status FileIndex::DeleteGenerationHashed(UserId user, ConstByteSpan path_hash,
                                         uint64_t generation, bool* path_removed) {
  if (path_removed != nullptr) {
    *path_removed = false;
  }
  ASSIGN_OR_RETURN(std::optional<PathHead> maybe_head, GetHeadByHash(user, path_hash));
  if (!maybe_head.has_value()) {
    return Status::NotFound("file not found");
  }
  PathHead head = *maybe_head;
  Bytes gen_key = GenKeyForHash(user, path_hash, generation);
  Bytes existing;
  Status probe = db_->Get(gen_key, &existing);
  if (probe.code() == StatusCode::kNotFound) {
    return Status::NotFound("generation " + std::to_string(generation) + " not found");
  }
  RETURN_IF_ERROR(probe);
  // One atomic batch for the record delete AND the head update: a crash
  // between separate writes would leave the head naming a deleted
  // generation (restore-latest would fail until repaired by hand).
  WriteBatch batch;
  batch.Delete(gen_key);
  head.generation_count -= 1;
  if (head.generation_count == 0) {
    if (path_removed != nullptr) {
      *path_removed = true;
    }
    batch.Delete(HeadKeyForHash(user, path_hash));
    return db_->Write(batch);
  }
  if (head.latest_generation == generation) {
    // Deleted the newest: the new latest is the max surviving id (the
    // record still exists until the batch commits, so exclude it).
    ASSIGN_OR_RETURN(std::vector<GenerationRecord> gens,
                     ListGenerationsHashed(user, path_hash));
    uint64_t new_latest = 0;
    for (const GenerationRecord& g : gens) {
      if (g.generation_id != generation) {
        new_latest = std::max(new_latest, g.generation_id);
      }
    }
    head.latest_generation = new_latest;
  }
  batch.Put(HeadKeyForHash(user, path_hash), head.Serialize());
  return db_->Write(batch);
}

Result<PathScanPage> FileIndex::ScanPaths(UserId user, ConstByteSpan cursor, size_t limit) {
  if (limit == 0) {
    return Status::InvalidArgument("ScanPaths limit must be nonzero");
  }
  Bytes prefix;
  prefix.push_back(kHeadPrefix);
  AppendUserBe(&prefix, user);
  // Resume strictly after the cursor hash: seek to prefix||cursor and skip
  // an exact match. A path deleted between pages simply isn't there to
  // seek to — iteration lands on its successor, so survivors are neither
  // skipped nor duplicated; a path created behind the cursor belongs to an
  // earlier page's key range and is intentionally not revisited.
  Bytes seek_key = prefix;
  seek_key.insert(seek_key.end(), cursor.begin(), cursor.end());
  PathScanPage page;
  auto it = db_->NewIterator();
  for (it->Seek(seek_key); it->Valid(); it->Next()) {
    const Bytes& k = it->key();
    if (k.size() < prefix.size() || !std::equal(prefix.begin(), prefix.end(), k.begin())) {
      break;
    }
    if (!cursor.empty() && k.size() == seek_key.size() &&
        std::equal(seek_key.begin(), seek_key.end(), k.begin())) {
      continue;  // the cursor entry itself was already returned last page
    }
    if (page.entries.size() == limit) {
      // One entry beyond the page proves there is more: hand back a resume
      // cursor instead of an unbounded reply.
      page.next_cursor = page.entries.back().path_hash;
      return page;
    }
    PathScanEntry entry;
    entry.path_hash.assign(k.begin() + prefix.size(), k.end());
    ASSIGN_OR_RETURN(entry.head, PathHead::Deserialize(it->value()));
    page.entries.push_back(std::move(entry));
  }
  return page;  // namespace exhausted: next_cursor stays empty
}

Result<uint64_t> FileIndex::TotalGenerationCount() {
  Bytes prefix;
  prefix.push_back(kGenPrefix);
  uint64_t count = 0;
  auto it = db_->NewIterator();
  for (it->Seek(prefix); it->Valid(); it->Next()) {
    const Bytes& k = it->key();
    if (k.empty() || k[0] != static_cast<uint8_t>(kGenPrefix)) {
      break;
    }
    ++count;
  }
  return count;
}

}  // namespace cdstore
