// Selftest fixture: complete field lists the snapshot-fields check must
// accept — a derived pointer, a C array with an initializer, template
// members, a nested aggregate with its own list, member functions,
// statics, aliases, enums and an unlisted helper type.

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace fixture
{

class Table
{
  public:
    enum class Kind : std::uint8_t
    {
        Plain,
        Fancy,
    };

    struct Entry
    {
        std::uint64_t key = 0;
        Kind kind = Kind::Plain;

        template <typename V>
        static constexpr void
        fields(V &v)
        {
            v("key", &Entry::key);
            v("kind", &Entry::kind);
        }
    };

    /** Not a snapshot aggregate: has no list, so it is not checked. */
    struct Scratch
    {
        int unlisted = 0;
    };

    static constexpr unsigned kWays = 4;
    using Index = std::unordered_map<std::uint64_t, std::vector<Entry>>;

    std::size_t size() const { return entries.size(); }
    bool operator==(const Table &) const = default;

    template <typename V>
    static constexpr void
    fields(V &v)
    {
        v("entries", &Table::entries);
        v("ways", &Table::ways);
        v("history", &Table::history);
        v("index", &Table::index);
        v("owner", &Table::owner, fields::derived);
    }

  private:
    std::vector<Entry> entries;
    std::uint64_t ways[kWays] = {};
    std::array<std::uint8_t, 3> history{};
    Index index;
    const Table *owner = nullptr;
};

} // namespace fixture
