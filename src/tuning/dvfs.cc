#include "tuning/dvfs.hh"

namespace g5p::tuning
{

std::vector<double>
xeonFrequencyLadderGHz()
{
    return {3.1, 2.6, 2.1, 1.6, 1.2};
}

double
normalizedTime(const core::RunResult &base,
               const core::RunResult &scaled)
{
    if (base.hostSeconds <= 0)
        return 0.0;
    return scaled.hostSeconds / base.hostSeconds;
}

} // namespace g5p::tuning
