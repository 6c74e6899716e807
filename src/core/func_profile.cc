#include "core/func_profile.hh"

namespace g5p::core
{

std::size_t
FuncProfile::distinctFunctions() const
{
    std::size_t count = 0;
    for (auto c : calls_)
        if (c > 0)
            ++count;
    return count;
}

} // namespace g5p::core
