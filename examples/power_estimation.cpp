// The Fig. 3 power-estimation pipeline end to end on one test design, at
// miniature scale so it finishes in about a minute: pre-train DeepSeq and
// the Grannite baseline on a small corpus, fine-tune on the design, emit
// SAIF files for every method, and compare the analyzed power.

#include <cstdio>
#include <filesystem>

#include "common/timer.hpp"
#include "core/trainer.hpp"
#include "dataset/training_data.hpp"
#include "power/pipeline.hpp"

using namespace deepseq;

int main() {
  WallTimer total;

  // Pre-training corpus (a miniature Table I).
  TrainingDataOptions dopt;
  dopt.num_subcircuits = 16;
  dopt.sim_cycles = 1000;
  dopt.size_scale = 0.5;
  dopt.seed = 7;
  const TrainingDataset ds = build_training_dataset(dopt);
  std::printf("corpus: %zu subcircuits\n", ds.samples.size());

  DeepSeqModel deepseq_model(ModelConfig::deepseq(16, 3));
  {
    TrainOptions topt;
    topt.epochs = 12;
    topt.lr = 2e-3f;
    topt.batch_size = 4;
    Trainer(deepseq_model, topt).fit(ds.samples);
  }
  GranniteConfig gc;
  gc.hidden_dim = 16;
  GranniteModel grannite_model(gc);
  {
    std::vector<GranniteSample> gs;
    for (const auto& s : ds.samples) gs.push_back(make_grannite_sample(s));
    grannite_model.fit(gs, 12, 2e-3f);
  }
  std::printf("pre-trained DeepSeq + Grannite (%.0fs)\n", total.seconds());

  // The design under evaluation: ptc at 1/16 of the paper's size.
  const TestDesign design = build_test_design("ptc", 1.0 / 16.0, 3);
  std::printf("design: %s (%s), %zu nodes\n", design.name.c_str(),
              design.description.c_str(), design.netlist.num_nodes());

  PowerPipelineOptions popt;
  popt.gt_sim_cycles = 2000;
  popt.finetune_workloads = 16;
  popt.finetune_epochs = 24;
  popt.finetune_sim_cycles = 1000;
  popt.finetune_lr = 2e-3f;
  popt.saif_dir = "deepseq_cache/saif_example";
  std::filesystem::create_directories(popt.saif_dir);
  PowerPipeline pipeline(deepseq_model, grannite_model, popt);

  Rng rng(99);
  const Workload testbench = low_activity_workload(design.netlist, rng, 0.3);
  const PowerComparison cmp = pipeline.run(design, testbench);

  std::printf("\n%.0f%% of gates are static under this workload (paper §V-A1"
              " observes ~70%%)\n", cmp.static_fraction * 100);
  std::printf("\n%-22s %10s %10s\n", "method", "power (mW)", "error");
  std::printf("--------------------------------------------\n");
  std::printf("%-22s %10.4f %10s\n", "ground truth (sim)", cmp.gt_mw, "-");
  std::printf("%-22s %10.4f %9.1f%%\n", "probabilistic [27]", cmp.probabilistic_mw,
              cmp.probabilistic_error * 100);
  std::printf("%-22s %10.4f %9.1f%%\n", "Grannite [18] (tuned)", cmp.grannite_mw,
              cmp.grannite_error * 100);
  std::printf("%-22s %10.4f %9.1f%%\n", "DeepSeq (fine-tuned)", cmp.deepseq_mw,
              cmp.deepseq_error * 100);
  std::printf("\nSAIF files written to %s/\n", popt.saif_dir.c_str());
  std::printf(
      "(absolute errors at this miniature demo scale are noisy — the\n"
      " calibrated comparison is bench/table5_power_large; README\n"
      " \"Benches at paper scale\" covers its knobs)\n");
  std::printf("total %.0fs\n", total.seconds());
  return 0;
}
