/**
 * @file
 * Frequency scaling (paper §V-A, Fig. 13): simulation time versus
 * host core frequency, plus TurboBoost. Memory latency is fixed in
 * nanoseconds, so time scales slightly sub-linearly with 1/f — but
 * since gem5 barely touches DRAM, the paper (and this model) observe
 * an almost exactly linear relationship. A run sets the frequency
 * with core::TuningConfig::freqGHzOverride and TurboBoost with
 * core::TuningConfig::turbo.
 */

#ifndef G5P_TUNING_DVFS_HH
#define G5P_TUNING_DVFS_HH

#include <vector>

#include "core/experiment.hh"

namespace g5p::tuning
{

/** The Fig. 13 frequency ladder for the Xeon (GHz). */
std::vector<double> xeonFrequencyLadderGHz();

/** Simulation time normalized to the base-frequency run. */
double normalizedTime(const core::RunResult &base,
                      const core::RunResult &scaled);

} // namespace g5p::tuning

#endif // G5P_TUNING_DVFS_HH
