// bench_paper — the paper's evaluation as one table of experiments.
//
// Dhasade et al., IPDPS'22 (arXiv 2202.11655): Tables I-IV, Figs 1-7 and
// four ablations. Each experiment prints its runs through one shared
// report, then checks the paper's shape claims (README.md "Reproducing the
// paper"). Runs are named by builder and knobs; each name runs once per
// invocation, so experiments share runs. --csv DIR writes one per-epoch
// CSV per run, named after it.
//
//   bench_paper [flags] [experiment...]   (no names = all; --help lists them)
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <map>

#include "bench_common.hpp"
#include "support/bytes.hpp"

namespace {

using namespace rex;
using core::SharingMode;
using sim::ExperimentResult;

constexpr SharingMode kRex = SharingMode::kRawData;
constexpr SharingMode kMs = SharingMode::kModel;
/// Slack on a "reach MS's final error" target (sim::make_speedup_row's).
constexpr double kTolerance = 0.005;
/// The cell the sweeps and ablations fix.
const bench::Cell kSweepCell{core::Algorithm::kDpsgd,
                             sim::TopologyKind::kSmallWorld};

__attribute__((format(printf, 1, 2))) std::string fmt(const char* format,
                                                      ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof buffer, format, args);
  va_end(args);
  return buffer;
}

/// Simulated seconds until `result` reaches `target`; infinity if never.
double seconds_to(const ExperimentResult& result, double target) {
  const auto hit = result.time_to_reach(target);
  return hit ? hit->seconds : INFINITY;
}

std::string time_to(const ExperimentResult& result, double target) {
  const double seconds = seconds_to(result, target);
  return std::isinf(seconds) ? "never" : bench::format_time(seconds);
}

/// True when `values` strictly rise.
bool rising(const std::vector<double>& values) {
  return std::ranges::adjacent_find(values, std::greater_equal<>()) ==
         values.end();
}

/// The name of a run, also its CSV file stem: the builder family, the
/// cell and sharing mode, and every knob an experiment varies, so equal
/// scenarios get equal names.
std::string run_name(const std::string& family, const sim::Scenario& s,
                     std::size_t centralized_epochs) {
  if (centralized_epochs > 0) {
    return family + "_centralized_" + std::to_string(centralized_epochs) +
           "ep";
  }
  std::string name = family + "_" + core::to_string(s.rex.algorithm) + "_" +
                     sim::to_string(s.topology) + "_" +
                     core::to_string(s.rex.sharing);
  if (s.rex.security == enclave::SecurityMode::kSgxSimulated) name += "_SGX";
  if (s.mf_embedding_dim != 10) {
    name += "_k=" + std::to_string(s.mf_embedding_dim);
  }
  if (s.model == sim::ModelKind::kMf && s.rex.data_points_per_epoch != 300) {
    name += "_share=" + std::to_string(s.rex.data_points_per_epoch);
  }
  if (s.rex.compress_raw_data) name += "_compressed";
  if (!s.rex.fixed_batches_per_epoch) name += "_full-pass";
  if (s.partition == sim::PartitionKind::kByTaste) name += "_by-taste";
  return name + "_" + std::to_string(s.epochs) + "ep";
}

/// One row of the shared report: a run and the error target of its
/// "to target" column (0 = none).
struct Row {
  const ExperimentResult& result;
  double target = 0.0;
};

/// The shared per-run report every run-based experiment prints.
void report(const std::vector<Row>& rows) {
  std::printf("%-40s %7s %9s %9s %9s | %8s %8s %8s %8s | %10s %10s %6s\n",
              "run", "RMSE", "to target", "total", "epoch", "merge", "train",
              "share", "test", "traffic/ep", "peak RAM", "store");
  for (const Row& row : rows) {
    const ExperimentResult& r = row.result;
    const sim::StageTimes stages = r.mean_stage_times();
    std::printf(
        "%-40s %7.4f %9s %9s %9s | %8s %8s %8s %8s | %10s %10s %6.0f\n",
        r.label.c_str(), r.final_rmse(),
        row.target > 0.0 ? time_to(r, row.target).c_str() : "-",
        bench::format_time(r.total_time().seconds).c_str(),
        bench::format_time(r.mean_epoch_seconds()).c_str(),
        bench::format_time(stages.merge.seconds).c_str(),
        bench::format_time(stages.train.seconds).c_str(),
        bench::format_time(stages.share.seconds).c_str(),
        bench::format_time(stages.test.seconds).c_str(),
        rex::format_bytes(r.mean_epoch_traffic()).c_str(),
        rex::format_bytes(r.peak_memory_bytes()).c_str(),
        r.rounds.back().mean_store_size);
  }
  std::printf("\n");
}

enum Verdict { kAsserted, kNotReproduced };

/// The run cache and the shape tally of one invocation.
class Paper {
 public:
  explicit Paper(bench::Options options) : options_(std::move(options)) {}

  [[nodiscard]] const bench::Options& options() const { return options_; }

  /// The result of `scenario`, which the bench_common builder `family`
  /// built, run on first request. `centralized_epochs` > 0 asks for the
  /// scenario's centralized baseline instead.
  const ExperimentResult& run(const std::string& family,
                              sim::Scenario scenario,
                              std::size_t centralized_epochs = 0) {
    scenario.label = run_name(family, scenario, centralized_epochs);
    const auto cached = runs_.find(scenario.label);
    if (cached != runs_.end()) return cached->second;
    ExperimentResult result = bench::run_logged(scenario, centralized_epochs);
    result.label = scenario.label;
    bench::maybe_csv(options_, result, scenario.label);
    return runs_.emplace(scenario.label, std::move(result)).first->second;
  }

  void begin(const char* experiment) { experiment_ = experiment; }

  /// Records a paper shape. An asserted one prints "held", or "FAILED" and
  /// the bench exits 1; a documented gap prints "NOT REPRODUCED" and never
  /// fails the run.
  void shape(Verdict verdict, const std::string& claim, bool holds,
             const std::string& measured, const std::string& paper) {
    const bool failed = verdict == kAsserted && !holds;
    const char* status = verdict == kNotReproduced ? "NOT REPRODUCED"
                         : failed                  ? "FAILED"
                                                   : "held";
    ++tally_[status];
    std::printf("shape %-15s %s\n%22s measured: %s%s\n%22s paper:    %s\n",
                status, claim.c_str(), "", measured.c_str(),
                verdict == kNotReproduced && holds ? " (holds at this profile)"
                                                   : "",
                "", paper.c_str());
    if (failed) {
      std::fprintf(stderr,
                   "bench_paper: shape FAILED in %s: %s (measured: %s; "
                   "paper: %s; seed %llu)\n",
                   experiment_, claim.c_str(), measured.c_str(),
                   paper.c_str(),
                   static_cast<unsigned long long>(options_.seed));
    }
  }

  /// Prints the tally; returns the exit code.
  int finish() {
    std::printf("\nshapes: %zu held, %zu NOT REPRODUCED, %zu FAILED"
                " (seed %llu)\n",
                tally_["held"], tally_["NOT REPRODUCED"], tally_["FAILED"],
                static_cast<unsigned long long>(options_.seed));
    return tally_["FAILED"] == 0 ? 0 : 1;
  }

 private:
  bench::Options options_;
  std::map<std::string, ExperimentResult> runs_;
  const char* experiment_ = "";
  std::map<std::string, std::size_t> tally_;  // shapes per status
};

// ===== Pairs of runs =====

/// Two runs a shape compares: REX and MS (`a`, `b`) on one cell, or one
/// Table IV setup native and under SGX.
struct Pair {
  std::string label;
  const ExperimentResult& a;
  const ExperimentResult& b;
};
using Pairs = std::vector<Pair>;

/// The paper's target error for REX vs MS: MS's final error.
double target(const Pair& q) { return q.b.final_rmse() + kTolerance; }

double speedup(const Pair& q) {
  return sim::make_speedup_row(q.label, q.a, q.b).speedup();
}

double traffic_ratio(const Pair& q) {
  return q.b.mean_epoch_traffic() / q.a.mean_epoch_traffic();
}

double epoch_ratio(const Pair& q) {
  return q.b.mean_epoch_seconds() / q.a.mean_epoch_seconds();
}

/// SGX over native, in percent of the mean epoch time (Table IV).
double overhead(const Pair& q) { return 100.0 * (epoch_ratio(q) - 1.0); }

std::vector<double> of(const Pairs& pairs, double (*metric)(const Pair&)) {
  std::vector<double> values;
  for (const Pair& q : pairs) values.push_back(metric(q));
  return values;
}

/// "label value; ..." over `pairs`, each value printed with `format`.
std::string list(const Pairs& pairs, const std::vector<double>& values,
                 const char* format) {
  std::string out;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    out += (i ? "; " : "") + pairs[i].label + " " + fmt(format, values[i]);
  }
  return out;
}

/// Reports both runs of every pair after `first` (if any); with
/// `with_target` they show the time to MS's final error.
void report(const Pairs& pairs, bool with_target,
            const ExperimentResult* first = nullptr) {
  std::vector<Row> rows;
  if (first != nullptr) rows.push_back({*first});
  for (const Pair& q : pairs) {
    rows.push_back({q.a, with_target ? target(q) : 0.0});
    rows.push_back({q.b, with_target ? target(q) : 0.0});
  }
  report(rows);
}

// ===== The 2x2 grid: Tables II/III, Figs 1/2/4 =====

using CellBuilder = sim::Scenario (*)(const bench::Options&,
                                      const bench::Cell&, SharingMode);

/// REX and MS on the four cells, in bench::standard_cells() order. The
/// tables give REX a 2x epoch budget: they compare time to target, not
/// epochs, and MS's final error sits near REX's convergence floor.
Pairs cell_pairs(Paper& p, const char* family, CellBuilder build,
                 std::size_t rex_epoch_factor) {
  Pairs pairs;
  for (const bench::Cell& cell : bench::standard_cells()) {
    sim::Scenario rex = build(p.options(), cell, kRex);
    rex.epochs *= rex_epoch_factor;
    const ExperimentResult& rex_result = p.run(family, rex);
    pairs.push_back({cell.name(), rex_result,
                     p.run(family, build(p.options(), cell, kMs))});
  }
  return pairs;
}

/// Tables II/III: the report, the paper's speedup table and "REX is
/// faster in every cell"; returns the speedups.
std::vector<double> speedup_table(Paper& p, const Pairs& pairs,
                                  const std::string& paper) {
  report(pairs, true);
  std::vector<sim::SpeedupRow> rows;
  for (const Pair& q : pairs) {
    rows.push_back(sim::make_speedup_row(q.label, q.a, q.b));
  }
  sim::print_speedup_table(
      "Speedup in time achieved by REX vs model sharing (target = final MS "
      "error)",
      rows);
  std::printf("\n");
  const std::vector<double> s = of(pairs, speedup);
  p.shape(kAsserted, "REX is faster than MS in every cell",
          std::ranges::min(s) > 1.0, list(pairs, s, "%.1fx"), paper);
  return s;
}

void table2(Paper& p) {
  const Pairs pairs = cell_pairs(p, "one-user", bench::one_user_scenario, 2);
  const std::string paper =
      "RMW, SW 2.3x; RMW, ER 11.5x; D-PSGD, SW 7.5x; D-PSGD, ER 18.3x";
  const std::vector<double> s = speedup_table(p, pairs, paper);
  // Cell order: RMW SW, RMW ER, D-PSGD SW, D-PSGD ER.
  p.shape(kAsserted, "D-PSGD ER has the largest speedup",
          std::ranges::max_element(s) == s.end() - 1, list(pairs, s, "%.1fx"),
          paper);
  p.shape(kNotReproduced, "RMW SW has the smallest speedup",
          std::ranges::min_element(s) == s.begin(), list(pairs, s, "%.1fx"),
          paper);
}

void table3(Paper& p) {
  const double largest = std::ranges::max(speedup_table(
      p, cell_pairs(p, "multi-user", bench::multi_user_scenario, 2),
      "RMW, SW 2.8x; RMW, ER 2.4x; D-PSGD, SW 7.5x; D-PSGD, ER 3.3x"));
  const double table2_largest = std::ranges::max(
      of(cell_pairs(p, "one-user", bench::one_user_scenario, 2), speedup));
  p.shape(kNotReproduced,
          "Table III/Fig 4 ratios are more modest than Table II/Fig 1's",
          largest < table2_largest,
          fmt("largest Table III %.1fx vs Table II %.1fx", largest,
              table2_largest),
          "largest Table III 7.5x vs Table II 18.3x");
}

void fig1(Paper& p) {
  const ExperimentResult& centralized = p.run(
      "one-user",
      bench::one_user_scenario(p.options(), bench::standard_cells()[0], kRex),
      30);
  const Pairs pairs = cell_pairs(p, "one-user", bench::one_user_scenario, 1);
  report(pairs, true, &centralized);
  // Both shapes compare the time to MS's final error at equal epochs.
  bool rex_sooner = true;
  bool centralized_first = true;
  std::string times;
  for (const Pair& q : pairs) {
    const double rex = seconds_to(q.a, target(q));
    const double ms = seconds_to(q.b, target(q));
    const double central = seconds_to(centralized, target(q));
    rex_sooner = rex_sooner && rex < ms;
    centralized_first = centralized_first && central < rex && central < ms;
    times += (times.empty() ? "" : "; ") + q.label + ": centralized " +
             time_to(centralized, target(q)) + ", REX " +
             time_to(q.a, target(q)) + ", MS " + time_to(q.b, target(q));
  }
  p.shape(kNotReproduced, "REX reaches MS's final error sooner in all cells",
          rex_sooner, times, "REX converges much faster in all four cells");
  p.shape(kNotReproduced, "centralized reaches MS's final error first",
          centralized_first, times, "centralized remains fastest");
}

void fig2(Paper& p) {
  const Pairs pairs = cell_pairs(p, "one-user", bench::one_user_scenario, 1);
  report(pairs, false);
  const std::vector<double> ratio = of(pairs, traffic_ratio);
  p.shape(kAsserted, "MS moves >= 100x REX's bytes per node-epoch",
          std::ranges::min(ratio) >= 100.0, list(pairs, ratio, "%.0fx"),
          "about two orders of magnitude in every cell");
}

void fig3(Paper& p) {
  // The paper fixes 400 epochs; the reduced default uses 100.
  const std::size_t epochs =
      p.options().epochs_or(p.options().paper_scale ? 400 : 100);
  Pairs pairs;
  for (const std::size_t k : {10, 20, 30, 40, 50}) {
    const auto run = [&](SharingMode mode) -> const ExperimentResult& {
      sim::Scenario scenario =
          bench::one_user_scenario(p.options(), kSweepCell, mode);
      scenario.mf_embedding_dim = k;
      scenario.epochs = epochs;
      return p.run("one-user", scenario);
    };
    pairs.push_back({fmt("k=%zu", k), run(kRex), run(kMs)});
  }
  report(pairs, false);
  const auto rex = of(pairs, [](const Pair& q) {
    return q.a.mean_epoch_traffic();
  });
  const auto ms = of(pairs, [](const Pair& q) {
    return q.b.mean_epoch_traffic();
  });
  p.shape(kAsserted, "REX traffic is the same for every k, MS's rises with k",
          std::ranges::count(rex, rex[0]) == 5 && rising(ms),
          fmt("REX %s at every k; MS %.1fx from k=10 to k=50",
              rex::format_bytes(rex[0]).c_str(), ms.back() / ms[0]),
          "REX constant in k; MS linear in k");
}

void fig4(Paper& p) {
  const ExperimentResult& centralized = p.run(
      "multi-user",
      bench::multi_user_scenario(p.options(), bench::standard_cells()[0],
                                 kRex),
      30);
  report(cell_pairs(p, "multi-user", bench::multi_user_scenario, 1), true,
         &centralized);
}

void fig5(Paper& p) {
  Pairs pairs;
  for (const sim::TopologyKind topology :
       {sim::TopologyKind::kSmallWorld, sim::TopologyKind::kErdosRenyi}) {
    pairs.push_back(
        {sim::to_string(topology),
         p.run("dnn", bench::dnn_scenario(p.options(), topology, kRex)),
         p.run("dnn", bench::dnn_scenario(p.options(), topology, kMs))});
  }
  report(pairs, true);
  const std::vector<double> ratio = of(pairs, traffic_ratio);
  p.shape(kAsserted, "MS moves >= 100x REX's bytes per node-epoch",
          std::ranges::min(ratio) >= 100.0, list(pairs, ratio, "%.0fx"),
          "orders of magnitude");
  const std::vector<double> epochs = of(pairs, epoch_ratio);
  p.shape(kAsserted, "REX epochs are faster than MS's (MS/REX epoch time)",
          std::ranges::min(epochs) > 1.0, list(pairs, epochs, "%.2fx"),
          "REX epochs slightly faster");
  const Pair& er = pairs[1];
  p.shape(kNotReproduced, "REX ends slightly worse than MS on ER",
          er.a.final_rmse() > er.b.final_rmse(),
          fmt("ER final RMSE REX %.3f vs MS %.3f", er.a.final_rmse(),
              er.b.final_rmse()),
          "REX slightly worse after the fixed epoch budget");
}

// ===== SGX: Table IV, Figs 6/7 =====

/// Table IV's setups in its row order (RMW REX, RMW MS, D-PSGD REX, D-PSGD
/// MS), native and under SGX, with 610 users (Fig 6) or 15k (Fig 7).
Pairs sgx_pairs(Paper& p, bool large) {
  const char* family = large ? "sgx-25m" : "sgx-latest";
  Pairs pairs;
  for (const core::Algorithm algorithm :
       {core::Algorithm::kRmw, core::Algorithm::kDpsgd}) {
    for (const SharingMode sharing : {kRex, kMs}) {
      const auto run = [&](bool secure) -> const ExperimentResult& {
        return p.run(family, bench::sgx_scenario(p.options(), algorithm,
                                                 sharing, secure, large));
      };
      pairs.push_back({std::string(core::to_string(algorithm)) +
                           (sharing == kRex ? ", REX" : ", MS"),
                       run(false), run(true)});
    }
  }
  return pairs;
}

constexpr const char* kPaperOverheads =
    "latest: RMW, REX 14%; RMW, MS 51%; D-PSGD, REX 5%; D-PSGD, MS 70% | "
    "25M: RMW, REX 17%; RMW, MS 91%; D-PSGD, REX 8%; D-PSGD, MS 135%";

/// Table IV's overheads on both datasets, as a measured value.
std::string overheads(const Pairs& latest, const Pairs& large) {
  return "latest: " + list(latest, of(latest, overhead), "%.0f%%") +
         " | 25M: " + list(large, of(large, overhead), "%.0f%%");
}

void table4(Paper& p) {
  const Pairs latest = sgx_pairs(p, false);
  const Pairs large = sgx_pairs(p, true);
  report(latest, false);
  report(large, false);
  const std::vector<double> a = of(latest, overhead);
  const std::vector<double> b = of(large, overhead);
  const auto rex_low = [](const std::vector<double>& o) {
    return o[0] < 20.0 && o[2] < 20.0 && o[0] < o[1] && o[2] < o[3];
  };
  p.shape(kAsserted, "REX overhead is under 20% and below MS's in every row",
          rex_low(a) && rex_low(b), overheads(latest, large),
          kPaperOverheads);
  p.shape(kNotReproduced, "MS overhead grows beyond the EPC",
          b[1] > a[1] && b[3] > a[3], overheads(latest, large),
          kPaperOverheads);
}

void sgx_figure(Paper& p, bool large) {
  const Pairs pairs = sgx_pairs(p, large);
  report(pairs, false);
  const std::vector<double> o = of(pairs, overhead);
  p.shape(kAsserted, "every SGX variant is slower than its native twin",
          std::ranges::min(o) > 0.0, list(pairs, o, "%.0f%%"),
          kPaperOverheads);
}

void fig6(Paper& p) { sgx_figure(p, false); }

void fig7(Paper& p) {
  sgx_figure(p, true);
  const Pairs latest = sgx_pairs(p, false);
  const Pairs large = sgx_pairs(p, true);
  const double epc = static_cast<double>(
      bench::sgx_scenario(p.options(), core::Algorithm::kDpsgd, kMs, true,
                          true)
          .rex.epc.available_bytes);
  const double ms_ram = large[3].b.peak_memory_bytes();
  const double rex_ram = std::max(large[0].b.peak_memory_bytes(),
                                  large[2].b.peak_memory_bytes());
  p.shape(kAsserted, "D-PSGD MS peak RAM is above the EPC, REX's below it",
          ms_ram > epc && rex_ram < epc,
          "D-PSGD MS " + rex::format_bytes(ms_ram) + ", REX at most " +
              rex::format_bytes(rex_ram) + ", EPC " +
              rex::format_bytes(epc),
          "D-PSGD MS 204 MiB, REX at most 53.9 MiB, EPC 93.5 MiB");
  p.shape(kNotReproduced, "overheads are larger than Fig 6's",
          std::ranges::equal(of(large, overhead), of(latest, overhead),
                             std::greater<>()),
          overheads(latest, large), kPaperOverheads);
}

// ===== Ablations =====

void compression(Paper& p) {
  sim::Scenario scenario =
      bench::one_user_scenario(p.options(), kSweepCell, kRex);
  const ExperimentResult& plain = p.run("one-user", scenario);
  scenario.rex.compress_raw_data = true;
  const ExperimentResult& packed = p.run("one-user", scenario);
  scenario.rex.sharing = kMs;
  scenario.rex.compress_raw_data = false;
  report({{plain}, {packed}, {p.run("one-user", scenario)}});
  const double ratio = plain.mean_epoch_traffic() / packed.mean_epoch_traffic();
  const double drift = std::fabs(plain.final_rmse() - packed.final_rmse());
  p.shape(kAsserted, "compressed shares are >= 3x smaller, |dRMSE| <= 0.02",
          ratio >= 3.0 && drift <= 0.02,
          fmt("traffic/epoch %.2fx smaller, |dRMSE| %.4f", ratio, drift),
          "ratings take 10 values: highly compressible (§IV-E-e)");
}

void fixed_batches(Paper& p) {
  sim::Scenario scenario =
      bench::one_user_scenario(p.options(), kSweepCell, kRex);
  scenario.epochs = p.options().epochs_or(60);
  const ExperimentResult& fixed = p.run("one-user", scenario);
  scenario.rex.fixed_batches_per_epoch = false;
  const ExperimentResult& full = p.run("one-user", scenario);
  report({{fixed}, {full}});
  // Epoch-time growth over the run: last epoch over epoch 0.
  const auto growth = [](const ExperimentResult& r) {
    return r.rounds.back().round_time.seconds /
           r.rounds.front().round_time.seconds;
  };
  p.shape(kAsserted,
          "epoch time stays flat (<= 1.2x) with fixed batches and grows "
          "(>= 1.5x) with a full pass",
          growth(fixed) <= 1.2 && growth(full) >= 1.5,
          fmt("last/first epoch time: fixed %.2fx, full pass %.2fx",
              growth(fixed), growth(full)),
          "constant with the rule; very long epochs without it (§III-E)");
  p.shape(kNotReproduced,
          "the full pass brings little accuracy benefit (<= 0.02 RMSE)",
          full.final_rmse() >= fixed.final_rmse() - 0.02,
          fmt("final RMSE full pass %.3f vs fixed %.3f", full.final_rmse(),
              fixed.final_rmse()),
          "little accuracy benefit (§III-E)");
}

void non_iid(Paper& p) {
  Pairs pairs;  // REX and MS per placement; target: that MS's final error
  for (const sim::PartitionKind partition :
       {sim::PartitionKind::kRoundRobin, sim::PartitionKind::kByTaste}) {
    const auto run = [&](SharingMode sharing) -> const ExperimentResult& {
      sim::Scenario scenario =
          bench::multi_user_scenario(p.options(), kSweepCell, sharing);
      scenario.partition = partition;
      return p.run("multi-user", scenario);
    };
    pairs.push_back({"", run(kRex), run(kMs)});
  }
  report(pairs, true);
}

void share_size(Paper& p) {
  std::vector<Row> rows;
  std::vector<double> traffic, dup_rate, final_rmse;
  std::string dups, rmses;
  for (const std::size_t points : {25, 75, 150, 300, 600, 1200}) {
    sim::Scenario scenario =
        bench::one_user_scenario(p.options(), kSweepCell, kRex);
    scenario.rex.data_points_per_epoch = points;
    const ExperimentResult& r = p.run("one-user", scenario);
    rows.push_back({r});
    // Duplicate rate of the stateless sampling (§III-E): duplicates
    // dropped per received rating. RoundRecord sums duplicates over all
    // nodes; per-node appends are the store growth over the run.
    const double nodes = static_cast<double>(scenario.dataset.n_users);
    double duplicates = 0.0;
    for (const sim::RoundRecord& round : r.rounds) {
      duplicates += static_cast<double>(round.duplicates_dropped) / nodes;
    }
    const double appended =
        r.rounds.back().mean_store_size - r.rounds.front().mean_store_size;
    traffic.push_back(r.mean_epoch_traffic());
    dup_rate.push_back(duplicates / std::max(1.0, duplicates + appended));
    final_rmse.push_back(r.final_rmse());
    dups += fmt("%s%.1f%%", dups.empty() ? "" : " / ", 100 * dup_rate.back());
    rmses += fmt("%s%.4f", rmses.empty() ? "" : " / ", r.final_rmse());
  }
  // Target: the paper's 300-point run's final error.
  for (Row& row : rows) row.target = final_rmse[3] + kTolerance;
  report(rows);
  p.shape(kAsserted, "traffic and duplicate rate rise with points per share",
          rising(traffic) && rising(dup_rate),
          "traffic " + rex::format_bytes(traffic.front()) + " -> " +
              rex::format_bytes(traffic.back()) + "; dup rate " + dups,
          "linearly more traffic; more duplicates (§III-E)");
  p.shape(kNotReproduced, "more points converge faster (final RMSE falls)",
          std::ranges::adjacent_find(final_rmse, std::less<>()) ==
              final_rmse.end(),
          "final RMSE " + rmses,
          "more points converge faster per epoch (§III-E)");
}

// ===== Table I =====

/// Prints one Table I row plus the distributional properties REX's
/// results depend on; returns "ratings/items/users".
std::string print_dataset_row(const char* name, data::SyntheticConfig config) {
  const data::Dataset dataset = data::generate_synthetic(config);
  std::vector<std::size_t> per_user(dataset.n_users, 0);
  std::map<float, std::size_t> histogram;
  for (const data::Rating& r : dataset.ratings) {
    ++per_user[r.user];
    ++histogram[r.value];
  }
  std::sort(per_user.begin(), per_user.end());
  std::printf("%-34s %9zu %7zu %7zu\n", name, dataset.ratings.size(),
              dataset.n_items, dataset.n_users);
  std::printf("    sparsity %.4f   mean rating %.2f   ratings/user"
              " min/median/max %zu/%zu/%zu\n",
              1.0 - dataset.density(), dataset.mean_rating(), per_user.front(),
              per_user[per_user.size() / 2], per_user.back());
  std::printf("    distinct rating values: %zu (", histogram.size());
  bool first = true;
  for (const auto& [value, count] : histogram) {
    std::printf("%s%.1f", first ? "" : " ", static_cast<double>(value));
    first = false;
  }
  std::printf(")\n");
  return fmt("%zu/%zu/%zu", dataset.ratings.size(), dataset.n_items,
             dataset.n_users);
}

void table1(Paper& p) {
  std::printf("%-34s %9s %7s %7s\n", "Dataset", "Ratings", "Items", "Users");
  data::SyntheticConfig latest = data::movielens_latest_config();
  data::SyntheticConfig capped = data::movielens_25m_capped_config();
  latest.seed = p.options().seed ^ 0xDA7A;
  capped.seed = p.options().seed ^ 0xDA7A;
  std::string counts =
      print_dataset_row("MovieLens Latest (synthetic)", latest) + " and ";
  counts += print_dataset_row("MovieLens 25M capped (synthetic)", capped);
  std::printf("\n");
  const std::string paper = "100000/9000/610 and 2249739/28830/15000";
  p.shape(kAsserted, "dataset counts match Table I exactly", counts == paper,
          counts, paper);
}

// ===== The experiment table =====

struct Experiment {
  const char* name;  // command-line selector
  const char* title;
  void (*run)(Paper&);
};

const Experiment kExperiments[] = {
    {"table1", "Table I: datasets", table1},
    {"table2", "Table II: speedup, one node per user (MF)", table2},
    {"table3", "Table III: speedup, multiple users per node (MF)", table3},
    {"table4", "Table IV: SGX overhead w.r.t. native (MF)", table4},
    {"fig1", "Figure 1: one node per user, error vs time (MF)", fig1},
    {"fig2", "Figure 2: one node per user, traffic per epoch (MF)", fig2},
    {"fig3", "Figure 3: feature vector size (D-PSGD, SW, MF)", fig3},
    {"fig4", "Figure 4: multiple users per node, error vs time", fig4},
    {"fig5", "Figure 5: DNN model, multiple users per node", fig5},
    {"fig6", "Figure 6: SGX vs native below the EPC (610 users)", fig6},
    {"fig7", "Figure 7: SGX vs native beyond the EPC (25M capped)", fig7},
    {"compression", "Ablation: raw-data compression (§IV-E-e)", compression},
    {"fixed-batches", "Ablation: fixed-batches rule (§III-E)", fixed_batches},
    {"non-iid", "Ablation: non-IID user placement (§IV-E)", non_iid},
    {"share-size", "Ablation: points shared per epoch (§III-E)", share_size},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  for (const Experiment& e : kExperiments) names.emplace_back(e.name);
  const bench::Options options = bench::parse_options(
      argc, argv, "bench_paper",
      "the paper's tables, figures and ablations, with their shapes checked",
      names);
  Paper paper(options);
  for (const Experiment& e : kExperiments) {
    if (!options.names.empty() &&
        std::ranges::count(options.names, e.name) == 0) {
      continue;
    }
    bench::print_header(e.title, options);
    paper.begin(e.name);
    e.run(paper);
  }
  return paper.finish();
}
