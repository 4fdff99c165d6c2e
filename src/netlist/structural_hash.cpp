#include "netlist/structural_hash.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace deepseq {
namespace {

// splitmix64 finalizer: full-avalanche 64-bit mix.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// MUX fanins are (select, then, else): slot order is semantic. Every other
// multi-fanin type in the vocabulary is commutative.
bool commutative(GateType t) { return t != GateType::kMux; }

}  // namespace

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

std::string StructuralHash::to_string() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%016llx/n%u/i%u/o%u/f%u",
                static_cast<unsigned long long>(digest), num_nodes, num_pis,
                num_pos, num_ffs);
  return buf;
}

std::uint64_t exact_hash(const Circuit& c) {
  std::uint64_t h = mix64(c.num_nodes());
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    h = hash_mix(h, static_cast<std::uint64_t>(c.type(v)));
    for (int i = 0; i < c.num_fanins(v); ++i)
      h = hash_mix(h, c.fanin(v, i));
  }
  for (NodeId pi : c.pis()) h = hash_mix(h, pi);
  for (NodeId ff : c.ffs()) h = hash_mix(h, ff);
  for (NodeId po : c.pos()) h = hash_mix(h, po);
  return h;
}

CircuitIdentity circuit_identity(const Circuit& c) {
  return {structural_hash(c), exact_hash(c)};
}

StructuralHash structural_hash(const Circuit& c, int rounds) {
  const std::size_t n = c.num_nodes();
  StructuralHash out;
  out.num_nodes = static_cast<std::uint32_t>(n);
  out.num_pis = static_cast<std::uint32_t>(c.pis().size());
  out.num_pos = static_cast<std::uint32_t>(c.pos().size());
  out.num_ffs = static_cast<std::uint32_t>(c.ffs().size());

  if (rounds < 0) {
    // Enough rounds for labels to propagate across typical netlists
    // (including through one FF generation per round), capped so hashing a
    // pathological chain stays cheap. 64-bit labels make residual ambiguity
    // between far-apart structure astronomically unlikely for cache use.
    rounds = static_cast<int>(std::min<std::size_t>(n + 1, 64));
  }

  // Round 0: local labels. PIs mix in their interface ordinal because
  // workloads assign probabilities positionally; all other nodes start from
  // their gate type alone.
  std::vector<std::uint64_t> h(n), next(n);
  for (NodeId v = 0; v < n; ++v)
    h[v] = mix64(0xD5EEB5EE00000000ULL + static_cast<std::uint64_t>(c.type(v)));
  for (std::size_t k = 0; k < c.pis().size(); ++k)
    h[c.pis()[k]] = hash_mix(h[c.pis()[k]], mix64(0x5150ULL + k));

  // WL refinement: mix each node with its fanin labels (sorted when the
  // gate is commutative so the hash is invariant to fanin slot order).
  for (int r = 0; r < rounds; ++r) {
    for (NodeId v = 0; v < n; ++v) {
      std::uint64_t acc = hash_mix(0xA11CEULL, h[v]);
      const int nf = c.num_fanins(v);
      std::uint64_t f[3] = {0, 0, 0};
      for (int i = 0; i < nf; ++i) f[i] = h[c.fanin(v, i)];
      if (nf > 1 && commutative(c.type(v))) {
        // Arity is at most 3: a fixed sort network avoids std::sort.
        if (f[0] > f[1]) std::swap(f[0], f[1]);
        if (nf > 2) {
          if (f[1] > f[2]) std::swap(f[1], f[2]);
          if (f[0] > f[1]) std::swap(f[0], f[1]);
        }
      }
      for (int i = 0; i < nf; ++i) acc = hash_mix(acc, f[i]);
      next[v] = acc;
    }
    h.swap(next);
  }

  // Digest: order-independent over nodes (sorted multiset), positional over
  // the PO interface (outputs are positional like PI workload rows).
  std::vector<std::uint64_t> sorted = h;
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t d = mix64(n);
  for (std::uint64_t v : sorted) d = hash_mix(d, v);
  for (std::size_t k = 0; k < c.pos().size(); ++k)
    d = hash_mix(d, hash_mix(mix64(0x9000ULL + k), h[c.pos()[k]]));
  out.digest = d;
  return out;
}

}  // namespace deepseq
