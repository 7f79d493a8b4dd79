#include "sim/shot_runner.h"

namespace ftqc::sim {

const char* shot_engine_name(ShotEngine engine) {
  switch (engine) {
    case ShotEngine::kFrame: return "frame";
    case ShotEngine::kBatch: return "batch";
  }
  return "?";
}

std::optional<ShotEngine> parse_shot_engine(std::string_view name) {
  if (name == "frame") return ShotEngine::kFrame;
  if (name == "batch") return ShotEngine::kBatch;
  return std::nullopt;
}

}  // namespace ftqc::sim
