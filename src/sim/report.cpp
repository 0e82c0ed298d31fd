#include "sim/report.hpp"

#include <cstdio>
#include <fstream>

#include "support/bytes.hpp"
#include "support/error.hpp"

namespace rex::sim {

void write_csv(const ExperimentResult& result, const std::string& path) {
  std::ofstream out(path);
  REX_REQUIRE(out.good(), "cannot open csv path: " + path);
  out << "epoch,time_s,nodes_reporting,reachable_fraction,mean_rmse,"
         "min_rmse,max_rmse,bytes_in_out,merge_s,train_s,share_s,test_s,"
         "memory_bytes,store_size,bytes_saved_compression\n";
  for (const RoundRecord& r : result.rounds) {
    char line[512];
    std::snprintf(line, sizeof line,
                  "%llu,%.6f,%zu,%.6f,%.6f,%.6f,%.6f,%.1f,%.9f,%.9f,%.9f,"
                  "%.9f,%.1f,%.1f,%llu\n",
                  static_cast<unsigned long long>(r.epoch),
                  r.cumulative_time.seconds, r.nodes_reporting,
                  r.reachable_fraction, r.mean_rmse,
                  r.min_rmse, r.max_rmse, r.mean_bytes_in_out,
                  r.mean_stages.merge.seconds, r.mean_stages.train.seconds,
                  r.mean_stages.share.seconds, r.mean_stages.test.seconds,
                  r.mean_memory_bytes, r.mean_store_size,
                  static_cast<unsigned long long>(r.bytes_saved_compression));
    out << line;
  }
}

void write_node_csv(const SimEngine& engine, const std::string& path,
                    std::size_t sample) {
  if (sample == 0) sample = 1;
  std::ofstream out(path);
  REX_REQUIRE(out.good(), "cannot open csv path: " + path);
  out << "node_id,epochs_done,epochs_folded,events_processed,"
         "deliveries_dropped,slowdown,online,rejoins,rejoin_timeouts,"
         "resync_bytes,mean_rejoin_latency_s,deliveries_elided,"
         "tampered_rejected,replays_rejected,quote_forgeries_rejected,"
         "partitions_survived,queries_issued,queries_served,queries_stale,"
         "queries_dropped_offline\n";
  for (core::NodeId id = 0; id < engine.node_count();
       id = static_cast<core::NodeId>(id + sample)) {
    const SimEngine::NodeStatus& status = engine.node_status(id);
    const double mean_rejoin_latency =
        status.rejoins_completed > 0
            ? status.rejoin_latency_sum_s /
                  static_cast<double>(status.rejoins_completed)
            : 0.0;
    const core::TrustedNode& trusted = engine.host(id).trusted();
    char line[512];
    std::snprintf(
        line, sizeof line,
        "%u,%llu,%llu,%llu,%llu,%.6f,%d,%llu,%llu,%llu,%.9f,%llu,"
        "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu\n",
        id, static_cast<unsigned long long>(status.epochs_done),
        static_cast<unsigned long long>(status.epochs_folded),
        static_cast<unsigned long long>(status.events_processed),
        static_cast<unsigned long long>(status.deliveries_dropped),
        status.slowdown, status.online ? 1 : 0,
        static_cast<unsigned long long>(status.rejoins),
        static_cast<unsigned long long>(status.rejoin_timeouts),
        static_cast<unsigned long long>(status.resync_bytes),
        mean_rejoin_latency,
        static_cast<unsigned long long>(status.deliveries_elided),
        static_cast<unsigned long long>(trusted.tampered_rejected()),
        static_cast<unsigned long long>(trusted.replays_rejected()),
        static_cast<unsigned long long>(trusted.quote_forgeries_rejected()),
        static_cast<unsigned long long>(status.partitions_survived),
        static_cast<unsigned long long>(status.queries_issued),
        static_cast<unsigned long long>(status.queries_served),
        static_cast<unsigned long long>(status.queries_stale),
        static_cast<unsigned long long>(status.queries_dropped_offline));
    out << line;
  }
}

void write_query_csv(const SimEngine& engine, const std::string& path) {
  std::ofstream out(path);
  REX_REQUIRE(out.good(), "cannot open csv path: " + path);
  out << "queries_issued,queries_served,queries_stale,"
         "queries_dropped_offline,sim_qps,latency_p50_s,latency_p99_s,"
         "latency_p999_s,latency_mean_s,latency_max_s,staleness_p50_s,"
         "staleness_p99_s,staleness_p999_s,staleness_mean_s,"
         "staleness_max_s\n";
  const SimEngine::QueryTotals totals = engine.query_totals();
  const PercentileEstimator& latency = engine.query_latency();
  const PercentileEstimator& staleness = engine.query_staleness();
  const double duration = engine.now().seconds;
  const double qps =
      duration > 0.0 ? static_cast<double>(totals.served) / duration : 0.0;
  char line[512];
  std::snprintf(
      line, sizeof line,
      "%llu,%llu,%llu,%llu,%.3f,%.9f,%.9f,%.9f,%.9f,%.9f,%.9f,%.9f,%.9f,"
      "%.9f,%.9f\n",
      static_cast<unsigned long long>(totals.issued),
      static_cast<unsigned long long>(totals.served),
      static_cast<unsigned long long>(totals.stale),
      static_cast<unsigned long long>(totals.dropped_offline), qps,
      latency.quantile(0.50), latency.quantile(0.99),
      latency.quantile(0.999), latency.mean(), latency.max(),
      staleness.quantile(0.50), staleness.quantile(0.99),
      staleness.quantile(0.999), staleness.mean(), staleness.max());
  out << line;
}

void write_edge_csv(const SimEngine& engine, const std::string& path) {
  std::ofstream out(path);
  REX_REQUIRE(out.good(), "cannot open csv path: " + path);
  out << "src,dst,region_src,region_dst,latency_s,bandwidth_bytes_per_s,"
         "deliveries,bytes,mean_delay_s\n";
  const LinkModel& links = engine.link_model();
  const auto& traffic = engine.edge_traffic();
  for (std::size_t e = 0; e < links.edge_count(); ++e) {
    const auto [src, dst] = links.edge(e);
    const SimEngine::EdgeTraffic& t = traffic[e];
    const double mean_delay =
        t.deliveries > 0
            ? t.delay_sum_s / static_cast<double>(t.deliveries)
            : 0.0;
    char line[256];
    std::snprintf(line, sizeof line, "%u,%u,%zu,%zu,%.9f,%.1f,%llu,%llu,%.9f\n",
                  src, dst, links.region(src), links.region(dst),
                  links.edge_latency_s(e), links.edge_bandwidth_bytes_per_s(e),
                  static_cast<unsigned long long>(t.deliveries),
                  static_cast<unsigned long long>(t.bytes), mean_delay);
    out << line;
  }
}

void print_series(const ExperimentResult& result, std::size_t stride) {
  std::printf("  %-34s  %10s  %8s  %14s\n", result.label.c_str(), "time",
              "RMSE", "in+out/epoch");
  if (stride == 0) stride = 1;
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    if (i % stride != 0 && i + 1 != result.rounds.size()) continue;
    const RoundRecord& r = result.rounds[i];
    std::printf("    epoch %-6llu %22s  %8.4f  %14s\n",
                static_cast<unsigned long long>(r.epoch),
                format_time(r.cumulative_time).c_str(), r.mean_rmse,
                format_bytes(r.mean_bytes_in_out).c_str());
  }
}

SpeedupRow make_speedup_row(const std::string& setup,
                            const ExperimentResult& rex,
                            const ExperimentResult& ms, double tolerance) {
  SpeedupRow row;
  row.setup = setup;
  row.error_target = ms.final_rmse() + tolerance;
  const auto rex_time = rex.time_to_reach(row.error_target);
  const auto ms_time = ms.time_to_reach(row.error_target);
  row.rex_seconds = rex_time ? rex_time->seconds : -1.0;
  row.ms_seconds = ms_time ? ms_time->seconds : -1.0;
  return row;
}

void print_speedup_table(const std::string& title,
                         const std::vector<SpeedupRow>& rows) {
  std::printf("%s\n", title.c_str());
  std::printf("  %-14s %-12s %12s %12s %12s\n", "Setup", "Error target",
              "REX", "MS", "REX speed-up");
  for (const SpeedupRow& row : rows) {
    std::printf("  %-14s %-12.3f %12s %12s %11.1fx\n", row.setup.c_str(),
                row.error_target,
                row.rex_seconds >= 0 ? format_time(SimTime{row.rex_seconds}).c_str()
                                     : "n/a",
                row.ms_seconds >= 0 ? format_time(SimTime{row.ms_seconds}).c_str()
                                    : "n/a",
                row.speedup());
  }
}

}  // namespace rex::sim
