#include <gtest/gtest.h>

#include "graph/union_find.h"

namespace fpva::graph {
namespace {

TEST(UnionFindTest, UniteAndFind) {
  UnionFind sets(6);
  EXPECT_EQ(sets.set_count(), 6);
  EXPECT_TRUE(sets.unite(0, 1));
  EXPECT_TRUE(sets.unite(1, 2));
  EXPECT_FALSE(sets.unite(0, 2));
  EXPECT_TRUE(sets.connected(0, 2));
  EXPECT_FALSE(sets.connected(0, 3));
  EXPECT_EQ(sets.set_count(), 4);
  EXPECT_EQ(sets.set_size(2), 3);
}

}  // namespace
}  // namespace fpva::graph
