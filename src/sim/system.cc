/**
 * @file
 * The paper's named system configurations.
 */

#include "sim/system.hh"

namespace dynaspam::sim
{

const char *
modeName(SystemMode mode)
{
    switch (mode) {
      case SystemMode::BaselineOoo:
        return "baseline-ooo";
      case SystemMode::MappingOnly:
        return "mapping-only";
      case SystemMode::AccelNoSpec:
        return "accel-nospec";
      case SystemMode::AccelSpec:
        return "accel-spec";
      case SystemMode::AccelNaive:
        return "accel-naive";
    }
    return "unknown";
}

SystemConfig
SystemConfig::make(SystemMode mode, unsigned trace_length,
                   unsigned num_fabrics)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.dynaspam.traceLength = trace_length;
    cfg.dynaspam.numFabrics = num_fabrics;

    switch (mode) {
      case SystemMode::BaselineOoo:
        break;
      case SystemMode::MappingOnly:
        cfg.dynaspam.enableOffload = false;
        break;
      case SystemMode::AccelNoSpec:
        cfg.dynaspam.fabricParams.memorySpeculation = false;
        break;
      case SystemMode::AccelSpec:
        break;
      case SystemMode::AccelNaive:
        cfg.dynaspam.mapper = core::MapperKind::NaiveOrder;
        break;
    }
    return cfg;
}

} // namespace dynaspam::sim
