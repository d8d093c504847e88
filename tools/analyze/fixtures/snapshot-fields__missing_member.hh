// Selftest fixture: a saved-state aggregate whose field list forgot a
// member (`dirty`), so every snapshot would silently drop it.

#include <cstdint>

namespace fixture
{

struct Line
{
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lastUse = 0;

    template <typename V>
    static constexpr void
    fields(V &v)
    {
        v("tag", &Line::tag);
        v("valid", &Line::valid);
        v("lastUse", &Line::lastUse);
    }

    bool operator==(const Line &) const = default;
};

} // namespace fixture
