/**
 * @file
 * Huge-page tuning (paper §V-A, Figs. 10–11): backing mg5's code
 * segment with 2MB pages via Transparent Huge Pages (THP, iodlr-style
 * partial remap) or Explicit Huge Pages (EHP, libhugetlbfs-style full
 * remap of a relinked binary). A run picks one with
 * core::TuningConfig::hugePages.
 */

#ifndef G5P_TUNING_HUGEPAGES_HH
#define G5P_TUNING_HUGEPAGES_HH

#include "core/experiment.hh"

namespace g5p::tuning
{

/** Relative speedup of @p tuned over @p base (host seconds). */
double speedupOver(const core::RunResult &base,
                   const core::RunResult &tuned);

} // namespace g5p::tuning

#endif // G5P_TUNING_HUGEPAGES_HH
