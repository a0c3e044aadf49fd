#include "ratmath/fault.h"

#include <algorithm>
#include <string>

#include "ratmath/error.h"

namespace anc::fault {

namespace detail {
thread_local bool active = false;
}

namespace {

thread_local std::uint64_t g_ops = 0;
thread_local std::vector<std::uint64_t> g_schedule;
thread_local std::size_t g_next = 0;
thread_local Kind g_kind = Kind::Overflow;

} // namespace

void
armAt(std::uint64_t nth, Kind kind)
{
    arm(std::vector<std::uint64_t>{nth}, kind);
}

void
arm(std::vector<std::uint64_t> indices, Kind kind)
{
    std::sort(indices.begin(), indices.end());
    g_schedule = std::move(indices);
    g_next = 0;
    g_kind = kind;
    g_ops = 0;
    detail::active = true;
}

void
startCounting()
{
    g_schedule.clear();
    g_next = 0;
    g_ops = 0;
    detail::active = true;
}

void
disarm()
{
    g_schedule.clear();
    g_next = 0;
    detail::active = false;
}

bool
armed()
{
    return detail::active && g_next < g_schedule.size();
}

bool
active()
{
    return detail::active;
}

std::uint64_t
opCount()
{
    return g_ops;
}

void
detail::point()
{
    ++g_ops;
    if (g_next >= g_schedule.size() || g_ops != g_schedule[g_next])
        return;
    ++g_next;
    std::string msg = "injected fault at checked operation #" +
                      std::to_string(g_ops);
    if (g_kind == Kind::Math)
        throw MathError(msg);
    throw OverflowError(msg);
}

} // namespace anc::fault
