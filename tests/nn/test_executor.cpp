// The tape's bytes, pinned across commits. For every parity preset on the
// shared fixture the suite hashes the raw float bytes of the no-grad
// forward heads, the grad-mode embedding, one training step's loss and
// parameter gradients, and every parameter after one Adam step, and
// compares them with committed digests that any kernel or tape change
// (SIMD or scalar) must keep. Plus finite-difference checks through the
// tape and its per-op trace counts.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <vector>

#include "core/model.hpp"
#include "netlist/structural_hash.hpp"
#include "nn/adam.hpp"
#include "nn/executor.hpp"
#include "nn/gradcheck.hpp"
#include "support/nn_parity.hpp"

namespace deepseq {
namespace {

using nn::Graph;
using nn::Tensor;
using nn::Var;
using testsupport::GradRun;
using testsupport::parity_fixture;
using testsupport::parity_presets;
using testsupport::train_step_with;

/// Fold a tensor's shape and raw float bytes into `h`.
std::uint64_t fold(std::uint64_t h, const Tensor& t) {
  h = hash_mix(h, (static_cast<std::uint64_t>(t.rows()) << 32) |
                      static_cast<std::uint32_t>(t.cols()));
  for (std::size_t i = 0; i < t.size(); ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, t.data() + i, sizeof bits);
    h = hash_mix(h, bits);
  }
  return h;
}

/// Per preset: forward heads, grad-mode embed, loss + gradients, params
/// after one Adam step.
using Digests = std::array<std::uint64_t, 4>;

constexpr std::uint64_t kSeed = 0x7a9e;

// Computed at d58c77a, where nn ops could still run on a thread-pool
// executor (identical at every thread count).
constexpr std::array<Digests, 4> kPinned = {{
    {0x468098df10b658abULL, 0x9161d6fe895a9f69ULL, 0x1e56694443a21cbeULL, 0x208db8ade7ffa085ULL},
    {0x31baeabfa37678d6ULL, 0x5790aaadb1f63876ULL, 0x27018f809a6ce072ULL, 0x74f833dd71cade44ULL},
    {0xfd57fdb578973c44ULL, 0x96eb3a87a3a4c5deULL, 0x250b668ec619b4e5ULL, 0x32e51c60585d5db5ULL},
    {0xa8f70e69b09b49ebULL, 0x66aa48b4e7c5a961ULL, 0x48f3f56a40b7b73cULL, 0xf81252e443da4f78ULL},
}};

Digests tape_digests(const ModelConfig& config) {
  const DeepSeqModel model(config);
  const auto& f = parity_fixture();
  Digests d{};

  Graph infer(/*grad_enabled=*/false);
  const auto heads = model.forward(infer, f.graph, f.workload, 7);
  d[0] = fold(fold(kSeed, heads.tr->value), heads.lg->value);

  Graph train(/*grad_enabled=*/true);
  d[1] = fold(kSeed, model.embed(train, f.graph, f.workload, 7)->value);

  const GradRun run = train_step_with(model);
  std::uint32_t loss_bits;
  std::memcpy(&loss_bits, &run.loss, sizeof loss_bits);
  d[2] = hash_mix(kSeed, loss_bits);
  for (const Tensor& g : run.grads) d[2] = fold(d[2], g);

  nn::Adam adam(model.params());
  adam.step();
  d[3] = kSeed;
  for (const auto& [name, p] : model.params()) {
    (void)name;
    d[3] = fold(d[3], p->value);
  }
  return d;
}

TEST(Tape, OutputsMatchPinnedDigests) {
  const std::vector<ModelConfig> presets = parity_presets();
  ASSERT_EQ(presets.size(), kPinned.size());
  std::vector<Digests> got;
  for (const ModelConfig& config : presets) got.push_back(tape_digests(config));

  bool all_match = true;
  for (std::size_t i = 0; i < presets.size(); ++i)
    for (std::size_t k = 0; k < kPinned[i].size(); ++k) {
      EXPECT_EQ(got[i][k], kPinned[i][k])
          << presets[i].description() << " digest " << k;
      all_match = all_match && got[i][k] == kPinned[i][k];
    }
  if (!all_match) {
    std::ostringstream table;
    for (const Digests& d : got) {
      table << "    {";
      for (std::size_t k = 0; k < d.size(); ++k) {
        char hex[24];
        std::snprintf(hex, sizeof hex, "0x%016llxULL",
                      static_cast<unsigned long long>(d[k]));
        table << (k ? ", " : "") << hex;
      }
      table << "},\n";
    }
    ADD_FAILURE() << "new digests:\n" << table.str();
  }
}

TEST(Tape, GradCheckPasses) {
  // Analytic gradients through matmul, tanh, add_row and sigmoid must match
  // finite differences.
  Rng rng(5);
  Var w1 = nn::make_param(Tensor::xavier(48, 64, rng));
  Var w2 = nn::make_param(Tensor::xavier(64, 8, rng));
  Var b = nn::make_param(Tensor(1, 8));
  const Tensor x = Tensor::xavier(96, 48, rng);
  const Tensor target = Tensor::full(96, 8, 0.25f);

  auto forward = [&](Graph& g) {
    Var h = g.tanh_(g.matmul(g.constant(x), w1));
    Var out = g.sigmoid(g.add_row(g.matmul(h, w2), b));
    return g.l1_loss(out, target);
  };
  const auto res = nn::grad_check(forward, {{"w1", w1}, {"w2", w2}, {"b", b}});
  EXPECT_LT(res.max_rel_error, 0.05) << "worst: " << res.worst_param;
}

TEST(Tape, GradCheckOnModelLoss) {
  // Finite differences (the fused no-grad pass) against the level op's
  // backward, for every aggregator kind: the forward aggregator's
  // parameters plus one GRU weight and one bias per direction.
  const ModelConfig presets[] = {
      ModelConfig::deepseq(16, 1),
      ModelConfig::deepseq_simple_attention(16, 1),
      ModelConfig::dag_conv_gnn(AggregatorKind::kConvSum, 16),
  };
  const Tensor target_lg(parity_fixture().graph.num_nodes, 1);
  for (const ModelConfig& config : presets) {
    const DeepSeqModel model(config);
    auto forward = [&](Graph& g) {
      const auto out = model.forward(g, parity_fixture().graph,
                                     parity_fixture().workload, 3);
      return g.l1_loss(out.lg, target_lg);
    };
    nn::NamedParams params;
    for (const auto& [name, p] : model.params()) {
      if (name.rfind("agg_fwd.", 0) == 0 || name == "gru_fwd.uz" ||
          name == "gru_fwd.bn" || name == "gru_rev.uz" || name == "gru_rev.bn")
        params.emplace_back(name, p);
    }
    ASSERT_GE(params.size(), 5u) << config.description();
    const auto res = nn::grad_check(forward, params, 1e-2f, 3);
    EXPECT_LT(res.max_rel_error, 0.05)
        << config.description() << " worst: " << res.worst_param;
  }
}

TEST(Tape, TraceCountsEachRecordedOpAsOneFlush) {
  // The tape runs every op as it is recorded, so under an ExecTraceScope
  // each op is one flush and one step, and backward is one entry.
  nn::ExecStats stats;
  {
    nn::ExecTraceScope trace(stats);
    Graph g(true);
    Var a = nn::make_param(Tensor::full(2, 2, 1.0f));
    Var y = g.sigmoid(g.add(a, a));
    g.backward(g.l1_loss(y, Tensor(2, 2)));
  }
  EXPECT_EQ(stats.flushes, 3);
  EXPECT_EQ(stats.steps, 3);
  EXPECT_EQ(stats.flush_ms.size(), 3u);
  EXPECT_EQ(stats.backward_ms.size(), 1u);
}

}  // namespace
}  // namespace deepseq
