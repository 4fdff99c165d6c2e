#pragma once

#include <cstdint>
#include <string>

#include "netlist/circuit.hpp"

namespace deepseq {

/// Content-addressed identity of a circuit's *structure*: two circuits that
/// differ only in node creation order (and node names) hash equal; circuits
/// with different logic, interface order, or gate types hash differently
/// with overwhelming probability. This is the cache key of the runtime
/// serving layer (runtime/circuit_cache), letting repeated requests for the
/// same netlist skip parsing, levelization and encoding.
///
/// The hash is computed Weisfeiler-Leman style on the circuit graph: each
/// node starts from its gate type (PIs and POs additionally mix in their
/// interface ordinal, since workloads and outputs are positional), then a
/// number of refinement rounds mixes every node's hash with its fanins'
/// hashes — sorted first for commutative gates (AND/OR/XOR/...), kept in
/// slot order for non-commutative ones (MUX). FF feedback cycles are
/// handled naturally by the fixed-round iteration. The digest combines the
/// sorted multiset of final node hashes with the PI/PO/FF interface
/// signature, so it is independent of node ids.
struct StructuralHash {
  std::uint64_t digest = 0;
  // Cheap exact invariants mixed into cache keys alongside the digest, so a
  // 64-bit collision additionally has to match the structure counts.
  std::uint32_t num_nodes = 0;
  std::uint32_t num_pis = 0;
  std::uint32_t num_pos = 0;
  std::uint32_t num_ffs = 0;

  bool operator==(const StructuralHash& o) const {
    return digest == o.digest && num_nodes == o.num_nodes &&
           num_pis == o.num_pis && num_pos == o.num_pos && num_ffs == o.num_ffs;
  }
  bool operator!=(const StructuralHash& o) const { return !(*this == o); }

  /// Hex digest + counts, for logging and bench JSON.
  std::string to_string() const;
};

/// Hash the structure of `c`. `rounds` < 0 picks a default that saturates
/// the refinement for typical netlists (diameter-bounded, capped).
StructuralHash structural_hash(const Circuit& c, int rounds = -1);

/// Creation-order hash: a single cheap pass over nodes in id order (type,
/// fanin ids, interface lists). Unlike structural_hash() this IS sensitive
/// to node numbering — two isomorphic circuits with permuted ids hash
/// differently. The runtime cache keys on BOTH digests: the structural
/// digest gives a stable content identity, the exact digest guards against
/// serving one circuit's node-indexed embedding matrix to an isomorphic
/// circuit whose rows are numbered differently.
std::uint64_t exact_hash(const Circuit& c);

/// Both digests of one circuit: what the runtime cache keys a request on.
struct CircuitIdentity {
  StructuralHash structure;
  std::uint64_t exact = 0;
};

/// structural_hash() and exact_hash() of `c`.
CircuitIdentity circuit_identity(const Circuit& c);

/// Combine-style 64-bit mixer shared with the runtime cache shards.
std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v);

}  // namespace deepseq
