// Fixture: every chaos-site row is crossed, one directly and one through a
// constant that a chaos_point( call reads.
#pragma once

#define CACHETRIE_CHAOS_SITES(X)              \
  X(fix_direct, "fix.direct", cachetrie)      \
  X(fix_indirect, "fix.indirect", cachetrie)

namespace fixture {

enum class Site { fix_direct, fix_indirect };

inline void chaos_point(Site) {}

struct Sites {
  Site commit;
};

inline constexpr Sites kSites{Site::fix_indirect};

inline void commit(const Sites& sites) {
  chaos_point(Site::fix_direct);
  chaos_point(sites.commit);
}

}  // namespace fixture
