#include "bench/bench_util.h"

#include "queries/update_queries.h"

namespace snb::bench {

std::unique_ptr<BenchWorld> MakeWorld(double scale_factor, bool load_updates,
                                      bool split_update_stream,
                                      store::ReadConcurrency read_mode) {
  auto world = std::make_unique<BenchWorld>(read_mode);
  datagen::DatagenConfig config =
      datagen::DatagenConfig::ForScaleFactor(scale_factor);
  config.split_update_stream = split_update_stream;
  world->dataset = datagen::Generate(config);
  world->dictionaries = std::make_unique<schema::Dictionaries>(config.seed);
  util::Status status = world->store.BulkLoad(world->dataset.bulk);
  if (!status.ok()) {
    std::fprintf(stderr, "bulk load failed: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
  if (load_updates) {
    for (const datagen::UpdateOperation& op : world->dataset.updates) {
      status = queries::ApplyUpdate(world->store, op);
      if (!status.ok()) {
        std::fprintf(stderr, "update failed: %s\n",
                     status.ToString().c_str());
        std::abort();
      }
    }
  }
  for (const schema::City& c : world->dictionaries->cities()) {
    world->city_country.push_back(c.country_id);
  }
  for (const schema::Company& c : world->dictionaries->companies()) {
    world->company_country.push_back(c.country_id);
  }
  return world;
}

void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("  %s\n", title.c_str());
  std::printf("================================================================\n");
}

void PrintKv(const std::string& label, const std::string& value) {
  std::printf("  %-44s %s\n", label.c_str(), value.c_str());
}

std::string Bar(double value, double max_value, int width) {
  if (max_value <= 0) max_value = 1;
  int n = static_cast<int>(value / max_value * width + 0.5);
  if (n > width) n = width;
  return std::string(n, '#');
}

void EnablePerfCounters() {
  obs::perf::Backend backend = obs::perf::Enable();
  std::printf("  perf counters: backend=%s (%s)\n",
              obs::perf::BackendName(backend),
              obs::perf::BackendMessage().c_str());
}

void EnableCpuProfiler() {
  obs::prof::Backend backend = obs::prof::Enable();
  std::printf("  cpu profiler: backend=%s (%s)\n",
              obs::prof::BackendName(backend),
              obs::prof::BackendMessage().c_str());
}

void StampProfile(obs::RunReport* report, const std::string& path) {
  obs::prof::FoldedProfile folded = obs::prof::Collect();
  report->has_profile = true;
  report->profile = obs::MakeProfileSection(folded);
  if (!path.empty()) {
    util::Status status =
        obs::WriteFileReport(path, obs::prof::ToFoldedText(folded));
    if (!status.ok()) {
      std::fprintf(stderr, "cpu-profile write failed: %s\n",
                   status.ToString().c_str());
      return;
    }
    std::printf("  cpu profile: wrote %s (%zu folded stacks, %llu samples)\n",
                path.c_str(), folded.stacks.size(),
                static_cast<unsigned long long>(folded.accounting.captured));
  }
}

}  // namespace snb::bench
