// Circuit-memo tests (the server's memo in front of the circuit decode): a
// byte-equal repeat returns the circuit decoded the first time, a forged
// hash collision is caught by the byte compare and decodes the new section,
// a malformed section is rejected and never remembered, the memo is a true
// LRU (a set of sections whose hashes share one slot of a direct-mapped
// table all stay resident), and concurrent lookups are safe.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dataset/generator.hpp"
#include "netlist/structural_hash.hpp"
#include "obs/metrics.hpp"
#include "serve/circuit_memo.hpp"
#include "serve/protocol.hpp"

namespace deepseq::serve {
namespace {

Circuit aig(std::uint64_t seed, int num_gates = 30) {
  Rng rng(seed);
  GeneratorSpec spec;
  spec.num_pis = 4;
  spec.num_ffs = 2;
  spec.num_gates = num_gates;
  for (int t = 0; t < kNumGateTypes; ++t) spec.gate_weights[t] = 0.0;
  spec.gate_weights[static_cast<int>(GateType::kAnd)] = 4.0;
  spec.gate_weights[static_cast<int>(GateType::kNot)] = 2.0;
  return generate_circuit(spec, rng);
}

/// The circuit section a request carries for `c`.
std::string section_of(const Circuit& c) {
  WireWriter w;
  encode_circuit(w, c);
  return w.take();
}

/// The process-wide memo counters. Tests compare deltas: every memo in the
/// process counts into the same two counters.
struct MemoCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

MemoCounts memo_counts() {
  obs::Registry& reg = obs::Registry::global();
  return {reg.counter("serve.structure_memo.hits").value(),
          reg.counter("serve.structure_memo.misses").value()};
}

void expect_identity_of(const DecodedCircuit& got, const Circuit& want) {
  EXPECT_EQ(got.identity.structure, structural_hash(want));
  EXPECT_EQ(got.identity.exact, exact_hash(want));
  ASSERT_NE(got.circuit, nullptr);
  EXPECT_EQ(exact_hash(*got.circuit), exact_hash(want));
}

TEST(CircuitMemo, ByteEqualRepeatReturnsTheFirstDecodedCircuit) {
  CircuitMemo memo;
  const Circuit c = aig(1);
  const std::string section = section_of(c);

  const MemoCounts start = memo_counts();
  const DecodedCircuit first = memo.lookup(section);
  expect_identity_of(first, c);
  EXPECT_EQ(first.circuit->node_name(0), c.node_name(0));

  // Equal bytes in another buffer, as the next request frame brings them:
  // the same Circuit object comes back, so nothing was decoded or hashed.
  const std::string again(section.begin(), section.end());
  const DecodedCircuit second = memo.lookup(again);
  EXPECT_EQ(second.circuit.get(), first.circuit.get());
  EXPECT_EQ(second.identity.structure, first.identity.structure);
  EXPECT_EQ(second.identity.exact, first.identity.exact);

  const MemoCounts end = memo_counts();
  EXPECT_EQ(end.misses - start.misses, 1u);
  EXPECT_EQ(end.hits - start.hits, 1u);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(CircuitMemo, ForgedHashCollisionDecodesTheNewSectionWithItsOwnIdentity) {
  CircuitMemo memo;
  const Circuit a = aig(1);
  const Circuit b = aig(2);
  ASSERT_NE(structural_hash(a), structural_hash(b));
  const std::string sa = section_of(a);
  const std::string sb = section_of(b);
  const std::uint64_t key = wire_hash(sa);

  const MemoCounts start = memo_counts();
  const DecodedCircuit first = memo.lookup(sa, key);
  // B under A's hash: the byte compare rejects A's entry, so B is decoded
  // and hashed itself and counts a miss.
  const DecodedCircuit forged = memo.lookup(sb, key);
  EXPECT_NE(forged.circuit.get(), first.circuit.get());
  expect_identity_of(forged, b);
  const MemoCounts seeded = memo_counts();
  EXPECT_EQ(seeded.misses - start.misses, 2u);
  EXPECT_EQ(seeded.hits, start.hits);

  // Both entries stay: each section finds its own under the shared hash.
  EXPECT_EQ(memo.lookup(sa, key).circuit.get(), first.circuit.get());
  EXPECT_EQ(memo.lookup(sb, key).circuit.get(), forged.circuit.get());
  EXPECT_EQ(memo_counts().hits - seeded.hits, 2u);
  EXPECT_EQ(memo_counts().misses, seeded.misses);
}

TEST(CircuitMemo, MalformedSectionThrowsAndIsNotRemembered) {
  CircuitMemo memo;
  const std::string section = section_of(aig(3));
  std::string bad_type = section;
  // The first node's type byte follows the name string and the node count.
  const std::size_t type_at = 4 + aig(3).name().size() + 4;
  bad_type[type_at] = static_cast<char>(0xEE);
  const std::vector<std::string> malformed = {
      section.substr(0, section.size() - 1),  // truncated
      section + 'x',                          // trailing byte
      bad_type,                               // unknown gate type
      std::string(),                          // empty
  };
  for (const std::string& bytes : malformed) {
    const MemoCounts before = memo_counts();
    EXPECT_THROW((void)memo.lookup(bytes), Error);
    // Nothing was remembered: the same bytes miss (and throw) again.
    EXPECT_THROW((void)memo.lookup(bytes), Error);
    EXPECT_EQ(memo_counts().hits, before.hits);
  }
  EXPECT_EQ(memo.size(), 0u);
}

TEST(CircuitMemo, TwelveInterleavedStructuresNeverMissAfterWarmUp) {
  // Hashes forged to 4 + 64k share slot 4 of a 64-slot direct-mapped table
  // (and, with their top byte 0, one shard of a hash-sharded one); an LRU
  // of 64 entries keeps all twelve.
  constexpr std::size_t kStructures = 12;
  CircuitMemo memo;
  std::vector<Circuit> circuits;
  std::vector<std::string> sections;
  std::vector<std::uint64_t> hashes;
  for (std::size_t k = 0; k < kStructures; ++k) {
    circuits.push_back(aig(10 + k));
    sections.push_back(section_of(circuits.back()));
    hashes.push_back(4 + 64 * k);
  }
  std::vector<const Circuit*> first(kStructures);
  for (std::size_t k = 0; k < kStructures; ++k)
    first[k] = memo.lookup(sections[k], hashes[k]).circuit.get();

  const MemoCounts warm = memo_counts();
  std::vector<std::size_t> order(kStructures);
  for (std::size_t k = 0; k < kStructures; ++k) order[k] = k;
  Rng rng(5);
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    rng.shuffle(order);
    for (std::size_t k : order) {
      const DecodedCircuit got = memo.lookup(sections[k], hashes[k]);
      ASSERT_EQ(got.circuit.get(), first[k]) << "round " << round;
      ASSERT_EQ(got.identity.exact, exact_hash(circuits[k]));
    }
  }
  const MemoCounts end = memo_counts();
  EXPECT_EQ(end.misses, warm.misses);
  EXPECT_EQ(end.hits - warm.hits, kRounds * kStructures);
  EXPECT_EQ(memo.size(), kStructures);
}

TEST(CircuitMemo, HoldsItsCapacityAndEvictsTheLeastRecentlyUsed) {
  CircuitMemo memo;
  std::vector<std::string> sections;
  for (std::size_t k = 0; k <= CircuitMemo::kCapacity; ++k)
    sections.push_back(section_of(aig(100 + k, /*num_gates=*/8)));
  for (std::size_t k = 0; k < CircuitMemo::kCapacity; ++k)
    (void)memo.lookup(sections[k]);
  EXPECT_EQ(memo.size(), CircuitMemo::kCapacity);
  // Touch section 0, so section 1 is now the least recently used; one more
  // section evicts it and nothing else.
  (void)memo.lookup(sections[0]);
  (void)memo.lookup(sections[CircuitMemo::kCapacity]);
  EXPECT_EQ(memo.size(), CircuitMemo::kCapacity);
  const MemoCounts before = memo_counts();
  (void)memo.lookup(sections[0]);
  EXPECT_EQ(memo_counts().hits - before.hits, 1u);
  (void)memo.lookup(sections[1]);
  EXPECT_EQ(memo_counts().misses - before.misses, 1u);
}

TEST(CircuitMemo, ConcurrentLookupsReturnEachSectionsOwnCircuit) {
  CircuitMemo memo;
  std::vector<Circuit> circuits;
  std::vector<std::string> sections;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    circuits.push_back(aig(seed));
    sections.push_back(section_of(circuits.back()));
  }
  // Half the lookups use each section's own hash, half one forged hash
  // that every section shares, so threads race on hits, misses, inserts
  // and byte compares within one bucket.
  constexpr std::uint64_t kForged = 42;
  constexpr int kThreads = 4, kLookups = 60;
  const MemoCounts start = memo_counts();
  std::vector<int> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kLookups; ++i) {
        const std::size_t c = static_cast<std::size_t>(t + i) % sections.size();
        // Each lookup reads its own buffer, as each request frame does.
        const std::string bytes = sections[c];
        const DecodedCircuit got =
            i % 2 == 0 ? memo.lookup(bytes) : memo.lookup(bytes, kForged);
        if (got.identity.exact != exact_hash(circuits[c]) ||
            got.identity.structure != structural_hash(circuits[c]) ||
            exact_hash(*got.circuit) != exact_hash(circuits[c]))
          ++wrong[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0) << "thread " << t;
  const MemoCounts end = memo_counts();
  EXPECT_EQ((end.hits - start.hits) + (end.misses - start.misses),
            static_cast<std::uint64_t>(kThreads * kLookups));
}

TEST(WireHash, CoversEveryByteAndTheLength) {
  const std::string base(77, 'q');
  const std::uint64_t h = wire_hash(base);
  EXPECT_EQ(wire_hash(std::string(77, 'q')), h);
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::string flipped = base;
    flipped[i] = 'r';
    EXPECT_NE(wire_hash(flipped), h) << "byte " << i;
  }
  EXPECT_NE(wire_hash(base + '\0'), h);
  EXPECT_NE(wire_hash(std::string_view()), wire_hash(std::string(1, '\0')));
}

}  // namespace
}  // namespace deepseq::serve
