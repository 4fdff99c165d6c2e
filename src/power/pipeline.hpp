#pragma once

#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/trainer.hpp"
#include "dataset/test_designs.hpp"
#include "power/grannite.hpp"
#include "power/power_analyzer.hpp"

namespace deepseq {

/// Options of the Fig. 3 power-estimation pipeline. Paper-scale values are
/// gt_sim_cycles=10000 and finetune_workloads=1000; benches scale these via
/// env knobs (README "Benches at paper scale").
/// Distribution the per-design fine-tuning workloads are drawn from
/// (paper §V-A1: "generated with the same pipeline as Section III-B" —
/// random workloads; the options below exist to study the choice at
/// reduced budgets, see bench/ablation_finetune).
enum class FinetuneDist {
  kUniform,      // uniform random per-PI logic-1 probability (§III-B)
  kLowActivity,  // a fraction of PIs active, the rest pinned (deployment-like)
  kMixed,        // alternate between the two
};

const char* finetune_dist_name(FinetuneDist d);

struct PowerPipelineOptions {
  int gt_sim_cycles = 10000;
  int finetune_workloads = 8;
  int finetune_epochs = 4;
  FinetuneDist finetune_dist = FinetuneDist::kLowActivity;
  /// Active-PI fraction of kLowActivity fine-tuning workloads.
  double finetune_active_fraction = 0.3;
  int finetune_sim_cycles = 2000;
  float finetune_lr = 1e-3f;
  /// Gradient-accumulation batch during fine-tuning. Small batches give
  /// more optimizer steps per epoch — important at reduced budgets, where
  /// too few steps leave per-node predictions collapsed at the target
  /// median (~0 on low-activity designs) and power badly underestimated.
  int finetune_batch = 2;
  /// Class-balanced transition loss during fine-tuning (both learned
  /// methods). At the paper's budget (1000 workloads, 50 epochs) the plain
  /// L1 of Eq. 3 discriminates nodes well; at reduced budgets it collapses
  /// predictions to the mostly-zero target median and systematically
  /// underestimates power. Balancing active vs static nodes keeps the
  /// reduced-scale reproduction faithful to the paper's *shape*. Disabled
  /// automatically under DEEPSEQ_FULL by the benches.
  bool balanced_finetune = true;
  /// When non-empty, every method's SAIF file is written here (exercising
  /// the full Fig. 3 artifact flow); power is always computed via SAIF.
  std::string saif_dir;
  std::uint64_t seed = 5150;
  /// Base random-initial-state seed. Fine-tuning sample k uses
  /// init_seed + k (matching pre-training, where every sample draws its
  /// own h0 realization), so the fine-tuned model is robust to the
  /// initialization noise of non-PI states.
  std::uint64_t init_seed = 0x5EEDF00Du;
  /// Inference-time ensemble width: predictions are averaged over this
  /// many h0 realizations (init_seed + 0..k-1). Averaging removes the
  /// init-state variance from the power estimate without touching the
  /// training protocol.
  int inference_init_seeds = 4;
};

/// One Table V/VI row: power per method plus relative error against GT.
struct PowerComparison {
  std::string design;
  std::string workload_id;
  double gt_mw = 0.0;
  double probabilistic_mw = 0.0, probabilistic_error = 0.0;
  double grannite_mw = 0.0, grannite_error = 0.0;
  double deepseq_mw = 0.0, deepseq_error = 0.0;
  /// Fraction of gates with zero transitions under the test workload
  /// (the paper's ~70% observation, §V-A1).
  double static_fraction = 0.0;
};

/// Orchestrates ground-truth simulation, the probabilistic baseline, the
/// fine-tuned Grannite baseline and fine-tuned DeepSeq on a large test
/// design, producing SAIF files and power numbers through one shared
/// analyzer. Fine-tuning forks the supplied pre-trained models, which stay
/// unmodified.
class PowerPipeline {
 public:
  PowerPipeline(const DeepSeqModel& pretrained_deepseq,
                const GranniteModel& pretrained_grannite,
                const PowerPipelineOptions& options);

  /// Fine-tune once on `design`, then evaluate every workload (Table VI).
  std::vector<PowerComparison> run_workloads(
      const TestDesign& design, const std::vector<Workload>& workloads);

  /// Single-workload convenience (Table V rows).
  PowerComparison run(const TestDesign& design, const Workload& workload);

 private:
  const DeepSeqModel& pretrained_deepseq_;
  const GranniteModel& pretrained_grannite_;
  PowerPipelineOptions options_;
};

/// Remap a workload defined on `generic` PIs onto the PI order of its
/// decomposed AIG (decomposition can permute PI creation order).
Workload map_workload_to_aig(const Circuit& generic,
                             const std::vector<NodeId>& node_map,
                             const Circuit& aig, const Workload& w);

/// Power from per-node activity via the pipeline's shared artifact path: a
/// SAIF document over the netlist's node names (logic-1 duty + toggles over
/// `duration` cycles) analyzed by the src/power analyzer — exactly how every
/// method inside PowerPipeline is scored. `logic1`/`toggle_rate` are indexed
/// by NodeId (rate in toggles/cycle) and may come from simulation or from
/// model predictions (the serving layer's power task feeds DeepSeq regress
/// outputs through here). When `saif_path` is non-empty the SAIF file is
/// also written there.
PowerReport power_from_activity(const Circuit& netlist,
                                const std::vector<double>& logic1,
                                const std::vector<double>& toggle_rate,
                                long long duration,
                                const std::string& saif_path = "");

}  // namespace deepseq
