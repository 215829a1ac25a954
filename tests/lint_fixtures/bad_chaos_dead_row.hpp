// Fixture: a chaos-site row that no chaos_point( crosses. fix_live is
// crossed; fix_dead is named only in a comment (Site::fix_dead), which
// does not count.
//
// expect: chaos.dead-row
#pragma once

#define CACHETRIE_CHAOS_SITES(X)      \
  X(fix_live, "fix.live", cachetrie)  \
  X(fix_dead, "fix.dead", cachetrie)

namespace fixture {

enum class Site { fix_live, fix_dead };

inline void chaos_point(Site) {}

inline void step() { chaos_point(Site::fix_live); }

}  // namespace fixture
