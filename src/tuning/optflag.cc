#include "tuning/optflag.hh"

namespace g5p::tuning
{

double
o3SpeedupPercent(const core::RunResult &base,
                 const core::RunResult &o3)
{
    if (o3.hostSeconds <= 0)
        return 0.0;
    return (base.hostSeconds / o3.hostSeconds - 1.0) * 100.0;
}

} // namespace g5p::tuning
