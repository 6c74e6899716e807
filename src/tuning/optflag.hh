/**
 * @file
 * Compiler-flag tuning (paper §V-A, Fig. 12): rebuilding gem5 with
 * "-O3" shrinks the binary and the dynamic instruction count slightly
 * — but relinking also reshuffles the code layout, so individual
 * workloads can regress (the paper observes a few such cases). A
 * run enables it with core::TuningConfig::optO3.
 */

#ifndef G5P_TUNING_OPTFLAG_HH
#define G5P_TUNING_OPTFLAG_HH

#include "core/experiment.hh"

namespace g5p::tuning
{

/** Percent speedup of the -O3 build over the base build. */
double o3SpeedupPercent(const core::RunResult &base,
                        const core::RunResult &o3);

} // namespace g5p::tuning

#endif // G5P_TUNING_OPTFLAG_HH
