// test_main.cpp — shared gtest main for the whole suite.
//
// After every test, the epoch reclamation domain is drained (each test joins
// its worker threads, so the process is quiescent at OnTestEnd). This keeps
// retired-but-not-yet-freed nodes from accumulating across tests and from
// being reported as leaks by LeakSanitizer at process exit — EBR frees lag
// retirement by design, they are not leaks.
#include <gtest/gtest.h>

#include "mr/epoch.hpp"

namespace {

class DrainReclamationListener : public ::testing::EmptyTestEventListener {
  void OnTestEnd(const ::testing::TestInfo&) override {
    cachetrie::mr::EpochDomain::instance().drain_for_testing();
  }
};

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  ::testing::UnitTest::GetInstance()->listeners().Append(
      new DrainReclamationListener);
  return RUN_ALL_TESTS();
}
