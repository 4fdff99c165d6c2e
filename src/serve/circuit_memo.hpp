#pragma once

// The server's memo in front of the circuit decode: a bounded LRU from a
// task request's circuit-section wire bytes to the decoded circuit and its
// identity. A byte-identical repeat returns the Circuit object decoded the
// first time, so it skips the decode, the Weisfeiler-Leman structural hash
// and the exact hash; the router routes it by the remembered identity and
// the shard's Session keys its caches on it. A renamed or renumbered copy
// has other bytes: it misses, is decoded and hashed once, and is memoized
// beside the first copy.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "netlist/circuit.hpp"
#include "netlist/structural_hash.hpp"
#include "runtime/circuit_cache.hpp"

namespace deepseq::serve {

/// Word-at-a-time 64-bit hash of a byte string (four independent
/// multiply-rotate lanes over 8-byte words, then a hash_mix tail). It only
/// picks a memo bucket; a hit is confirmed by a full byte compare.
std::uint64_t wire_hash(std::string_view bytes);

/// A decoded circuit section: the circuit and circuit_identity() of it.
struct DecodedCircuit {
  std::shared_ptr<const Circuit> circuit;
  CircuitIdentity identity;
};

/// Bounded LRU from circuit-section bytes to DecodedCircuit. One LRU list
/// of kCapacity entries (not sharded), so any kCapacity distinct sections
/// stay resident however their hashes fall. A lookup is a hit only when the
/// remembered bytes equal the new ones, compared in full under the LRU
/// lock; a hash collision therefore decodes and hashes the new section and
/// keeps both entries. serve.structure_memo.hits and
/// serve.structure_memo.misses count the outcomes process-wide. Each entry
/// holds a copy of its section's bytes and the decoded circuit.
/// Thread-safe.
class CircuitMemo {
 public:
  static constexpr std::size_t kCapacity = 64;

  CircuitMemo();

  /// The decoded circuit of `section` and its identity. A hit returns the
  /// remembered entry. A miss decodes the section, hashes the circuit once
  /// and remembers both (evicting the least recently used entry when
  /// full). A malformed section throws Error from the decoder and leaves
  /// nothing in the memo. Two threads missing the same section at once
  /// both decode it; the later insert wins.
  DecodedCircuit lookup(std::string_view section);
  /// lookup() with the bucket hash given, so a test can forge a collision.
  DecodedCircuit lookup(std::string_view section, std::uint64_t hash);

  /// Entries held (at most kCapacity).
  std::size_t size() const { return lru_.size(); }

 private:
  /// The bucket hash and the section bytes. A stored key views the copy it
  /// owns; a probe views the request payload and owns nothing.
  struct Key {
    std::uint64_t hash = 0;
    std::string_view bytes;
    std::shared_ptr<const std::string> owned;

    std::uint64_t hash64() const { return hash; }
    bool operator==(const Key& o) const {
      return hash == o.hash && bytes == o.bytes;
    }
  };

  runtime::ShardedLruCache<Key, DecodedCircuit> lru_;
};

}  // namespace deepseq::serve
