// Extension experiment (not a paper figure): the privacy/utility frontier
// of every anonymizer in the library, measured empirically —
//   privacy: re-identification linkage attack (top-1 success, mean rank);
//   utility: range-query distortion and spatial-density divergence
//            (the W4M line's utility measures), plus the paper's TTD.
//
// Publishing the raw data sits at one extreme (full utility, no privacy);
// the universal baselines over-anonymize; the personalized pipeline should
// trace a better frontier, and the Mahdavifar baseline shows what happens
// when users cannot bound their quality loss.
//
// Run:  ./ext_privacy_utility [--points=120] [--kmax=5] [--dmax=250]

#include <cstdio>
#include <iostream>
#include <optional>
#include <vector>

#include "anon/wcop.h"
#include "attack/reident.h"
#include "bench_util.h"
#include "common/table_printer.h"

using namespace wcop;
using namespace wcop::bench;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const BenchScale scale = BenchScale::FromArgs(args);
  const int k_max = static_cast<int>(args.GetInt("kmax", 5));
  const double delta_max = args.GetDouble("dmax", 250.0);

  Dataset dataset = MakeBenchDataset(scale);
  AssignPaperRequirements(&dataset, k_max, delta_max, scale.seed + 1);

  Rng query_rng(scale.seed + 7);
  const std::vector<RangeQuery> queries =
      GenerateRangeQueries(dataset, 60, 0.05, 0.02, &query_rng);
  const attack::DatasetCandidateSource original(dataset);
  attack::ReidentOptions reident;
  reident.adversary.observations = 5;
  reident.adversary.seed = scale.seed + 8;

  PrintHeader("Extension: privacy/utility frontier (kmax=" +
              std::to_string(k_max) + ", dmax=" +
              FormatSignificant(delta_max, 4) + ")");
  TablePrinter table({"publisher", "attack top-1", "mean true rank",
                      "RQ rel. error", "density div.", "TTD", "clusters",
                      "runtime (s)"});

  auto evaluate = [&](const std::string& name, const Dataset& published,
                      std::optional<double> ttd, size_t clusters,
                      double runtime) {
    Result<attack::ReidentResult> linkage = attack::RunReidentAttack(
        original, attack::DatasetCandidateSource(published), reident);
    const RangeQueryDistortionResult rq =
        RangeQueryDistortion(dataset, published, queries);
    const double density = SpatialDensityDivergence(dataset, published);
    table.AddRow({name,
                  linkage.ok() ? FormatSignificant(linkage->top1_success, 3)
                               : "n/a",
                  linkage.ok() ? FormatSignificant(linkage->mean_true_rank, 3)
                               : "n/a",
                  FormatSignificant(rq.mean_relative_error, 3),
                  FormatSignificant(density, 3),
                  ttd ? FormatSignificant(*ttd, 4) : "0",
                  std::to_string(clusters),
                  FormatSignificant(runtime, 3)});
  };

  // Raw publication: the no-privacy extreme.
  evaluate("original (no anonymization)", dataset, std::nullopt, 0, 0.0);

  WcopOptions options;
  options.seed = scale.seed + 2;

  struct Algo {
    std::string name;
    Result<AnonymizationResult> result;
  };
  std::vector<Algo> algos;
  algos.push_back({"W4M (k=kmax, d=dmax)",
                   RunW4m(dataset, k_max, delta_max, options)});
  algos.push_back({"WCOP-NV", RunWcopNv(dataset, options)});
  algos.push_back({"WCOP-CT", RunWcopCt(dataset, options)});
  {
    WcopOptions agglo = options;
    agglo.clustering_algo = WcopOptions::ClusteringAlgo::kAgglomerative;
    algos.push_back({"WCOP-CT (agglomerative)", RunWcopCt(dataset, agglo)});
  }
  algos.push_back({"Mahdavifar et al. [9]", RunMahdavifar(dataset)});

  for (Algo& algo : algos) {
    if (!algo.result.ok()) {
      std::cerr << algo.name << " failed: " << algo.result.status() << "\n";
      continue;
    }
    const AnonymizationReport& r = algo.result->report;
    evaluate(algo.name, algo.result->sanitized, r.ttd, r.num_clusters,
             r.runtime_seconds);
  }
  table.Print(std::cout);

  std::printf(
      "\nreading guide: original data has attack success ~1 (no privacy);\n"
      "a healthy (k,delta)-anonymizer pushes top-1 success towards 1/k\n"
      "while keeping range-query error and density divergence low.\n");
  return 0;
}
