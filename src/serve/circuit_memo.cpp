#include "serve/circuit_memo.hpp"

#include <cstring>
#include <utility>

#include "obs/metrics.hpp"
#include "serve/protocol.hpp"

namespace deepseq::serve {

std::uint64_t wire_hash(std::string_view bytes) {
  constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
  constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
  const auto load = [&bytes](std::size_t at) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + at, sizeof w);
    return w;
  };
  const auto mix_lane = [](std::uint64_t acc, std::uint64_t w) {
    acc += w * kP2;
    acc = (acc << 31) | (acc >> 33);
    return acc * kP1;
  };
  // Four lanes keep four multiply chains in flight per 32-byte block.
  std::uint64_t lane[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  const std::size_t n = bytes.size();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32)
    for (std::size_t k = 0; k < 4; ++k)
      lane[k] = mix_lane(lane[k], load(i + 8 * k));
  std::uint64_t h = hash_mix(n, lane[0]);
  for (std::size_t k = 1; k < 4; ++k) h = hash_mix(h, lane[k]);
  for (; i + 8 <= n; i += 8) h = hash_mix(h, load(i));
  std::uint64_t tail = 0;
  if (i < n) std::memcpy(&tail, bytes.data() + i, n - i);
  return hash_mix(h, tail);
}

CircuitMemo::CircuitMemo() : lru_(kCapacity, /*num_shards=*/1) {
  obs::Registry& reg = obs::Registry::global();
  lru_.bind_obs(&reg.counter("serve.structure_memo.hits"),
                &reg.counter("serve.structure_memo.misses"), nullptr);
}

DecodedCircuit CircuitMemo::lookup(std::string_view section) {
  return lookup(section, wire_hash(section));
}

DecodedCircuit CircuitMemo::lookup(std::string_view section,
                                   std::uint64_t hash) {
  if (auto hit = lru_.get(Key{hash, section, nullptr})) return *hit;
  auto circuit =
      std::make_shared<const Circuit>(decode_circuit_section(section));
  auto decoded = std::make_shared<const DecodedCircuit>(
      DecodedCircuit{circuit, circuit_identity(*circuit)});
  auto owned = std::make_shared<const std::string>(section);
  lru_.put(Key{hash, *owned, owned}, decoded);
  return *decoded;
}

}  // namespace deepseq::serve
