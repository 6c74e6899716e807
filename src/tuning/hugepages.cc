#include "tuning/hugepages.hh"

namespace g5p::tuning
{

double
speedupOver(const core::RunResult &base, const core::RunResult &tuned)
{
    if (tuned.hostSeconds <= 0)
        return 0.0;
    return base.hostSeconds / tuned.hostSeconds;
}

} // namespace g5p::tuning
