#include "power/pipeline.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#include <filesystem>

#include "dataset/embedded.hpp"
#include "netlist/aig.hpp"

namespace deepseq {
namespace {

TEST(MapWorkload, PermutesProbabilitiesCorrectly) {
  const Circuit generic = iscas89_s27();
  const AigConversion conv = decompose_to_aig(generic);
  Workload w;
  w.pi_prob = {0.1, 0.2, 0.3, 0.4};
  w.pattern_seed = 5;
  const Workload mapped = map_workload_to_aig(generic, conv.node_map, conv.aig, w);
  ASSERT_EQ(mapped.pi_prob.size(), conv.aig.pis().size());
  // Check through names: the AIG PI named G1 carries G1's probability.
  for (std::size_t k = 0; k < generic.pis().size(); ++k) {
    const NodeId aig_pi = conv.node_map[generic.pis()[k]];
    // Find position in aig.pis().
    std::size_t pos = 0;
    while (conv.aig.pis()[pos] != aig_pi) ++pos;
    EXPECT_DOUBLE_EQ(mapped.pi_prob[pos], w.pi_prob[k]);
  }
}

TEST(MapWorkload, SizeMismatchThrows) {
  const Circuit generic = iscas89_s27();
  const AigConversion conv = decompose_to_aig(generic);
  Workload w;
  w.pi_prob = {0.5};
  EXPECT_THROW(map_workload_to_aig(generic, conv.node_map, conv.aig, w), Error);
}

TEST(PowerFromActivity, DependsOnActivityNotOnNodeNames) {
  // Rename every node so that the old suffix scheme collided: even nodes
  // are all "x" (their generated suffixes run x_1, x_2, ...) while odd
  // nodes carry x_1, x_2, ... themselves. Two nodes sharing one net name
  // would share one SAIF record, and the report would change.
  const Circuit c = iscas89_s27();
  Circuit renamed = c;
  for (NodeId v = 0; v < renamed.num_nodes(); ++v)
    renamed.set_node_name(
        v, v % 2 == 0 ? "x" : "x_" + std::to_string((v + 1) / 2));
  std::vector<double> logic1(c.num_nodes()), rate(c.num_nodes());
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    logic1[v] = 0.1 + 0.8 * v / c.num_nodes();
    rate[v] = 0.05 + 0.03 * v;
  }
  const PowerReport want = power_from_activity(c, logic1, rate, 10000);
  const PowerReport got = power_from_activity(renamed, logic1, rate, 10000);
  EXPECT_EQ(got.total_watts, want.total_watts);  // bit-identical
  EXPECT_EQ(got.combinational_watts, want.combinational_watts);
  EXPECT_EQ(got.sequential_watts, want.sequential_watts);
  EXPECT_EQ(got.io_watts, want.io_watts);
  EXPECT_EQ(got.nets_matched, c.num_nodes());
  EXPECT_EQ(got.nets_missing, 0u);
}

/// The full Fig. 3 pipeline on a miniature design: exercises fine-tuning,
/// all four SAIF emissions and the analyzer. Keep the knobs tiny — this is
/// a smoke/contract test, not a benchmark.
TEST(PowerPipeline, EndToEndOnMiniDesign) {
  const TestDesign design = build_test_design("ptc", 0.04, 3);  // ~80 nodes

  const DeepSeqModel pretrained(ModelConfig::deepseq(8, 2));
  GranniteConfig gcfg;
  gcfg.hidden_dim = 8;
  const GranniteModel grannite(gcfg);

  PowerPipelineOptions opt;
  opt.gt_sim_cycles = 400;
  opt.finetune_workloads = 2;
  opt.finetune_epochs = 1;
  opt.finetune_sim_cycles = 200;
  opt.saif_dir = ::testing::TempDir();
  PowerPipeline pipeline(pretrained, grannite, opt);

  Rng rng(17);
  const Workload w = low_activity_workload(design.netlist, rng, 0.4);
  const PowerComparison cmp = pipeline.run(design, w);

  EXPECT_GT(cmp.gt_mw, 0.0);
  EXPECT_GT(cmp.probabilistic_mw, 0.0);
  EXPECT_GT(cmp.grannite_mw, 0.0);
  EXPECT_GT(cmp.deepseq_mw, 0.0);
  EXPECT_GE(cmp.static_fraction, 0.0);
  EXPECT_LE(cmp.static_fraction, 1.0);

  // SAIF artifacts written for every method (the Fig. 3 handoff).
  for (const char* label : {"W0_gt", "W0_probabilistic", "W0_grannite", "W0_deepseq"}) {
    const std::string path =
        opt.saif_dir + "/ptc_" + label + ".saif";
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
    const SaifDocument doc = parse_saif_file(path);
    EXPECT_EQ(doc.duration, opt.gt_sim_cycles);
    EXPECT_EQ(doc.nets.size(), design.netlist.num_nodes());
  }
}

TEST(PowerPipeline, MultipleWorkloadsShareFineTuning) {
  const TestDesign design = build_test_design("ptc", 0.03, 5);
  const DeepSeqModel pretrained(ModelConfig::deepseq(8, 1));
  GranniteConfig gcfg;
  gcfg.hidden_dim = 8;
  const GranniteModel grannite(gcfg);

  PowerPipelineOptions opt;
  opt.gt_sim_cycles = 300;
  opt.finetune_workloads = 2;
  opt.finetune_epochs = 1;
  opt.finetune_sim_cycles = 150;
  PowerPipeline pipeline(pretrained, grannite, opt);

  Rng rng(23);
  std::vector<Workload> ws;
  for (int k = 0; k < 3; ++k)
    ws.push_back(low_activity_workload(design.netlist, rng, 0.4));
  const auto rows = pipeline.run_workloads(design, ws);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].workload_id, "W0");
  EXPECT_EQ(rows[2].workload_id, "W2");
  // Different workloads give different ground-truth power.
  EXPECT_NE(rows[0].gt_mw, rows[1].gt_mw);
}

TEST(PowerPipeline, PretrainedModelsAreNotMutated) {
  const TestDesign design = build_test_design("ptc", 0.02, 7);
  const DeepSeqModel pretrained(ModelConfig::deepseq(8, 1));
  // Snapshot a weight.
  const auto params = pretrained.params();
  const float before = params[0].second->value.data()[0];

  GranniteConfig gcfg;
  gcfg.hidden_dim = 8;
  const GranniteModel grannite(gcfg);
  PowerPipelineOptions opt;
  opt.gt_sim_cycles = 200;
  opt.finetune_workloads = 1;
  opt.finetune_epochs = 1;
  opt.finetune_sim_cycles = 100;
  PowerPipeline pipeline(pretrained, grannite, opt);
  Rng rng(29);
  pipeline.run(design, low_activity_workload(design.netlist, rng, 0.5));
  EXPECT_FLOAT_EQ(params[0].second->value.data()[0], before);
}


class PipelineDist : public ::testing::TestWithParam<FinetuneDist> {};

TEST_P(PipelineDist, EveryDistributionRunsEndToEnd) {
  const TestDesign design = build_test_design("ptc", 0.04, 3);
  const DeepSeqModel pretrained(ModelConfig::deepseq(8, 2));
  GranniteConfig gcfg;
  gcfg.hidden_dim = 8;
  const GranniteModel grannite(gcfg);

  PowerPipelineOptions opt;
  opt.gt_sim_cycles = 300;
  opt.finetune_workloads = 2;
  opt.finetune_epochs = 1;
  opt.finetune_sim_cycles = 100;
  opt.finetune_dist = GetParam();
  opt.inference_init_seeds = 2;
  PowerPipeline pipeline(pretrained, grannite, opt);

  Rng rng(23);
  const Workload w = low_activity_workload(design.netlist, rng, 0.4);
  const PowerComparison cmp = pipeline.run(design, w);
  EXPECT_GT(cmp.gt_mw, 0.0);
  EXPECT_GT(cmp.deepseq_mw, 0.0);
  EXPECT_GT(cmp.grannite_mw, 0.0);
  EXPECT_GE(cmp.static_fraction, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Dists, PipelineDist,
                         ::testing::Values(FinetuneDist::kUniform,
                                           FinetuneDist::kLowActivity,
                                           FinetuneDist::kMixed),
                         [](const auto& info) {
                           return std::string(
                               finetune_dist_name(info.param)) == "low-activity"
                                      ? std::string("low_activity")
                                      : std::string(
                                            finetune_dist_name(info.param));
                         });

TEST(PowerPipeline, EnsembleAveragingIsDeterministic) {
  const TestDesign design = build_test_design("ptc", 0.04, 3);
  const DeepSeqModel pretrained(ModelConfig::deepseq(8, 2));
  GranniteConfig gcfg;
  gcfg.hidden_dim = 8;
  const GranniteModel grannite(gcfg);
  PowerPipelineOptions opt;
  opt.gt_sim_cycles = 200;
  opt.finetune_workloads = 2;
  opt.finetune_epochs = 1;
  opt.finetune_sim_cycles = 100;
  opt.inference_init_seeds = 3;
  Rng rng(29);
  const Workload w = low_activity_workload(design.netlist, rng, 0.4);
  PowerPipeline a(pretrained, grannite, opt), b(pretrained, grannite, opt);
  const PowerComparison ra = a.run(design, w), rb = b.run(design, w);
  EXPECT_DOUBLE_EQ(ra.deepseq_mw, rb.deepseq_mw);
  EXPECT_DOUBLE_EQ(ra.grannite_mw, rb.grannite_mw);
}


}  // namespace
}  // namespace deepseq
