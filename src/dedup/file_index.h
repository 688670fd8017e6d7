// The file index (§4.4), versioned: one path owns an ordered series of
// backup generations (the paper's weekly snapshots, §5.2), each pointing
// at its own recipe in the recipe-container store. Keyed by the hash of
// (user id, encoded pathname); generation records live under a separate
// prefix so path enumeration stays cheap.
//
// Layout in the LSM KV store:
//   'F' || user || H(path_key)              -> PathHead {next/latest/count,
//                                              v1: path_id + name share}
//   'G' || user || H(path_key) || gen (BE)  -> GenerationRecord
//
// The head keyspace of one user is contiguous and ordered by H(path_key),
// which makes namespace enumeration a bounded prefix scan: ScanPaths pages
// through it with a resume cursor (the last head's hash), so a reply frame
// never has to carry the whole namespace.
#ifndef CDSTORE_SRC_DEDUP_FILE_INDEX_H_
#define CDSTORE_SRC_DEDUP_FILE_INDEX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/dedup/fingerprint.h"
#include "src/dedup/share_index.h"
#include "src/kvstore/db.h"
#include "src/util/status.h"

namespace cdstore {

// One backup generation of a path.
struct GenerationRecord {
  uint64_t generation_id = 0;  // allocated by AppendGeneration, never reused
  uint64_t file_size = 0;      // logical bytes of this generation
  uint64_t num_secrets = 0;
  uint64_t recipe_container_id = 0;
  uint32_t recipe_index = 0;
  // Share bytes whose first reference came from this generation — the
  // per-generation "new physical data" the dedup ratio divides by.
  uint64_t unique_bytes = 0;
  uint64_t timestamp_ms = 0;  // client backup time (retention windows)

  Bytes Serialize() const;
  static Result<GenerationRecord> Deserialize(ConstByteSpan data);
};

// Per-path bookkeeping: id allocation survives pruning (ids stay monotonic
// so clouds remain in lockstep), latest/count avoid a scan per lookup.
//
// Record versioning: the original (v0) record carried only the three
// counters, so the head key's H(path_key) was the ONLY trace of the path —
// names were unrecoverable and the namespace could not be enumerated back
// to the client. v1 appends the namespace fields below. Deserialize accepts
// both; every mutating touch (append / put / delete of a generation)
// rewrites the head in the newest format it has the inputs for, so legacy
// heads upgrade lazily without an index-wide rewrite.
struct PathHead {
  uint64_t next_generation = 1;
  uint64_t latest_generation = 0;  // 0 = no generations
  uint64_t generation_count = 0;
  // v1 namespace fields (empty on un-upgraded legacy heads):
  //   path_id    — client-derived id, identical on every cloud, so a client
  //                can match one path's listing entries across clouds.
  //   name_share — this cloud's share of the dispersed pathname (§4.3: no
  //                single cloud learns the name; k shares reconstruct it).
  //   name_len   — byte length of the cleartext name, needed to strip the
  //                dispersal padding on decode. The share's size already
  //                bounds the length, so storing it leaks nothing new.
  Bytes path_id;
  Bytes name_share;
  uint32_t name_len = 0;

  bool has_name() const { return !name_share.empty(); }

  Bytes Serialize() const;
  static Result<PathHead> Deserialize(ConstByteSpan data);
};

// Namespace metadata a client supplies with a PutFile so this cloud can
// later enumerate the path back to it (all fields optional; empty fields
// never overwrite previously stored ones).
struct PathNameInfo {
  ConstByteSpan path_id;
  uint32_t name_len = 0;
};

// One head from a namespace scan. `path_hash` is the head key's H(path_key)
// suffix — the scan cursor, and the handle for the *Hashed operations (a
// sweep can prune paths whose legacy heads never stored a name).
struct PathScanEntry {
  Bytes path_hash;
  PathHead head;
};

struct PathScanPage {
  std::vector<PathScanEntry> entries;
  // Resume cursor: pass to the next ScanPaths call. Empty = namespace
  // exhausted. Paths created or deleted between pages are handled by the
  // cursor being a key position, not an offset: survivors are neither
  // skipped nor duplicated.
  Bytes next_cursor;
};

class FileIndex {
 public:
  explicit FileIndex(Db* db);

  // --- versioned namespace -------------------------------------------------
  // `path_key` is the encoded pathname share this server received (§4.3
  // disperses sensitive metadata via secret sharing); keys hash it.

  // Appends a new generation (allocates the next id from the path head).
  // `rec.generation_id` is ignored on input; the stored record (with its
  // id) is returned. *new_path is set when this created the path. `name`
  // (optional) upgrades the head with namespace metadata; the name share
  // itself is always refreshed from `path_key`.
  Result<GenerationRecord> AppendGeneration(UserId user, ConstByteSpan path_key,
                                            const GenerationRecord& rec, bool* new_path,
                                            const PathNameInfo* name = nullptr);

  // Writes generation `rec.generation_id` exactly (repair: ids must stay
  // in lockstep across clouds). Overwrites a same-id record in place;
  // *new_path as above, *new_generation is set when the id did not exist
  // yet. next_generation advances past the written id.
  Status PutGeneration(UserId user, ConstByteSpan path_key, const GenerationRecord& rec,
                       bool* new_path, bool* new_generation = nullptr,
                       const PathNameInfo* name = nullptr);

  // Fetches one generation; generation == 0 resolves the latest.
  Result<GenerationRecord> GetGeneration(UserId user, ConstByteSpan path_key,
                                         uint64_t generation);

  // All generations of a path, ascending by id. NotFound for unknown paths.
  Result<std::vector<GenerationRecord>> ListGenerations(UserId user, ConstByteSpan path_key);

  // Removes one generation; *path_removed is set when it was the last one
  // (the head is dropped with it).
  Status DeleteGeneration(UserId user, ConstByteSpan path_key, uint64_t generation,
                          bool* path_removed);

  // --- hash-keyed variants (namespace scans) -------------------------------
  // A ScanPaths entry hands back H(path_key), not path_key; these let a
  // server-side sweep operate on scanned paths directly — including legacy
  // heads that never stored a name share.
  Result<GenerationRecord> GetGenerationHashed(UserId user, ConstByteSpan path_hash,
                                               uint64_t generation);
  Result<std::vector<GenerationRecord>> ListGenerationsHashed(UserId user,
                                                              ConstByteSpan path_hash);
  Status DeleteGenerationHashed(UserId user, ConstByteSpan path_hash, uint64_t generation,
                                bool* path_removed);

  // One page of the user's path heads, in H(path_key) order, starting
  // strictly after `cursor` (empty = from the beginning), at most `limit`
  // entries. `limit` must be nonzero.
  Result<PathScanPage> ScanPaths(UserId user, ConstByteSpan cursor, size_t limit);

  // Number of generation records across ALL users (startup recount for
  // servers whose persisted meta predates the namespace totals).
  Result<uint64_t> TotalGenerationCount();

 private:
  Bytes HeadKeyForHash(UserId user, ConstByteSpan path_hash) const;
  Bytes GenKeyForHash(UserId user, ConstByteSpan path_hash, uint64_t generation) const;
  Result<std::optional<PathHead>> GetHeadByHash(UserId user, ConstByteSpan path_hash);
  // Merges `path_key`-derived and caller-supplied namespace metadata into
  // `head` (the lazy v0 -> v1 upgrade applied on every mutating touch).
  static void UpgradeHead(PathHead* head, ConstByteSpan path_key, const PathNameInfo* name);

  Db* db_;
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_DEDUP_FILE_INDEX_H_
