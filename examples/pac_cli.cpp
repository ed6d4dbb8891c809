// pac_cli — command-line scenario explorer for the paper-scale simulator.
//
// Usage:
//   pac_cli [--model t5-base|bart-large|t5-large]
//           [--system pac|ecofl|eddl|standalone]
//           [--technique pa|full|adapters|lora]
//           [--task mrpc|stsb|sst2|qnli]
//           [--devices N] [--batch N] [--epochs N] [--no-cache]
//           [--fail-device N] [--fail-at FRACTION]
//
// Prints the chosen plan, per-phase timings, total hours, and per-device
// memory — the same machinery behind bench/table2_training_time, exposed
// for ad-hoc what-if questions ("what if my home has 5 devices?").
#include <cstdio>
#include <cstring>
#include <string>

#include "sim/scenarios.hpp"

namespace {

using namespace pac;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--model t5-base|bart-large|t5-large] "
               "[--system pac|ecofl|eddl|standalone] "
               "[--technique pa|full|adapters|lora] "
               "[--task mrpc|stsb|sst2|qnli] [--devices N] [--batch N] "
               "[--epochs N] [--no-cache] "
               "[--fail-device N] [--fail-at FRACTION]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  sim::ScenarioConfig cfg;
  cfg.model = model::t5_base();
  sim::SystemKind system = sim::SystemKind::kPac;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--model") {
      const std::string v = next();
      if (v == "t5-base") {
        cfg.model = model::t5_base();
      } else if (v == "bart-large") {
        cfg.model = model::bart_large();
      } else if (v == "t5-large") {
        cfg.model = model::t5_large();
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--system") {
      const std::string v = next();
      if (v == "pac") {
        system = sim::SystemKind::kPac;
      } else if (v == "ecofl") {
        system = sim::SystemKind::kEcoFl;
      } else if (v == "eddl") {
        system = sim::SystemKind::kEddl;
      } else if (v == "standalone") {
        system = sim::SystemKind::kStandalone;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--technique") {
      const std::string v = next();
      if (v == "pa") {
        cfg.technique = model::Technique::kParallelAdapters;
      } else if (v == "full") {
        cfg.technique = model::Technique::kFull;
      } else if (v == "adapters") {
        cfg.technique = model::Technique::kAdapters;
      } else if (v == "lora") {
        cfg.technique = model::Technique::kLora;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--task") {
      const std::string v = next();
      if (v == "mrpc") {
        cfg.task = data::GlueTask::kMrpc;
      } else if (v == "stsb") {
        cfg.task = data::GlueTask::kStsb;
      } else if (v == "sst2") {
        cfg.task = data::GlueTask::kSst2;
      } else if (v == "qnli") {
        cfg.task = data::GlueTask::kQnli;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--devices") {
      cfg.num_devices = std::atoi(next().c_str());
    } else if (arg == "--batch") {
      cfg.global_batch = std::atoll(next().c_str());
    } else if (arg == "--epochs") {
      cfg.epochs = std::atoi(next().c_str());
    } else if (arg == "--no-cache") {
      cfg.pac_use_cache = false;
    } else if (arg == "--fail-device") {
      cfg.fail_device = std::atoi(next().c_str());
    } else if (arg == "--fail-at") {
      cfg.fail_at_epoch_fraction = std::atof(next().c_str());
    } else {
      usage(argv[0]);
    }
  }
  if (cfg.num_devices < 1 || cfg.global_batch < 1) usage(argv[0]);

  const data::TaskInfo info = data::task_info(cfg.task);
  std::printf("%s + %s on %s (%s), %d simulated Jetson Nanos, batch %lld\n",
              sim::system_name(system),
              model::technique_name(cfg.technique), info.name.c_str(),
              cfg.model.name.c_str(), cfg.num_devices,
              static_cast<long long>(cfg.global_batch));

  const auto r = sim::simulate_system(system, cfg);
  if (r.oom) {
    std::printf("result: OOM — %s\n", r.oom_reason.c_str());
    return 1;
  }
  std::printf("plan: %s\n", r.plan.to_string().c_str());
  std::printf("throughput: %.2f samples/s\n", r.throughput_samples_per_s);
  std::printf("first epoch: %.1f s", r.first_epoch_seconds);
  if (r.later_epoch_seconds != r.first_epoch_seconds) {
    std::printf("; cached epochs: %.1f s each; redistribution: %.1f s",
                r.later_epoch_seconds, r.redistribution_seconds);
  }
  std::printf("\ntotal: %.2f h (%.4f s/sample over the whole run)\n",
              r.total_hours, r.seconds_per_sample);
  if (r.recovery_seconds > 0.0) {
    std::printf(
        "device %d died %.0f%% into epoch 1: %.1f s of work wasted, "
        "run recovered onto %d survivors\n",
        cfg.fail_device, cfg.fail_at_epoch_fraction * 100.0,
        r.recovery_seconds, r.surviving_devices);
  }
  std::uint64_t peak = 0;
  for (std::uint64_t m : r.peak_memory_per_device) peak = std::max(peak, m);
  std::printf("peak device memory: %.2f GiB of %.2f GiB usable\n",
              static_cast<double>(peak) / (1ULL << 30),
              static_cast<double>(costmodel::jetson_nano().usable_bytes()) /
                  (1ULL << 30));
  return 0;
}
