#include "io/graph_io.h"

#include <sstream>

#include <gtest/gtest.h>

namespace sight::io {
namespace {

SocialGraph SampleGraph() {
  SocialGraph g(5);
  EXPECT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.AddEdge(0, 4).ok());
  EXPECT_TRUE(g.AddEdge(2, 3).ok());
  return g;
}

TEST(GraphIoTest, RoundTrip) {
  SocialGraph original = SampleGraph();
  std::stringstream buffer;
  ASSERT_TRUE(SaveGraph(original, &buffer).ok());
  auto loaded = LoadGraph(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NumUsers(), 5u);
  EXPECT_EQ(loaded->NumEdges(), 3u);
  EXPECT_TRUE(loaded->HasEdge(0, 1));
  EXPECT_TRUE(loaded->HasEdge(4, 0));
  EXPECT_TRUE(loaded->HasEdge(2, 3));
  EXPECT_FALSE(loaded->HasEdge(1, 2));
}

TEST(GraphIoTest, RoundTripEmptyGraph) {
  SocialGraph empty;
  std::stringstream buffer;
  ASSERT_TRUE(SaveGraph(empty, &buffer).ok());
  auto loaded = LoadGraph(&buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumUsers(), 0u);
  EXPECT_EQ(loaded->NumEdges(), 0u);
}

TEST(GraphIoTest, CommentsAndBlankLinesIgnored) {
  std::stringstream buffer(
      "# a comment\n\nsight-graph v1\n# counts\n3 1\n\n0 2\n");
  auto loaded = LoadGraph(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->HasEdge(0, 2));
}

TEST(GraphIoTest, MissingHeaderRejected) {
  std::stringstream buffer("3 1\n0 2\n");
  EXPECT_EQ(LoadGraph(&buffer).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphIoTest, BadCountsRejected) {
  std::stringstream buffer("sight-graph v1\nnot numbers\n");
  EXPECT_FALSE(LoadGraph(&buffer).ok());
  // User counts that cannot fit a UserId are refused before any
  // allocation.
  for (const char* counts : {"18446744073709551615 0", "4294967296 89"}) {
    std::stringstream huge(std::string("sight-graph v1\n") + counts + "\n");
    EXPECT_EQ(LoadGraph(&huge).status().code(), StatusCode::kOutOfRange)
        << counts;
  }
}

TEST(GraphIoTest, EdgeOutOfRangeRejected) {
  std::stringstream buffer("sight-graph v1\n3 1\n0 7\n");
  EXPECT_EQ(LoadGraph(&buffer).status().code(), StatusCode::kOutOfRange);
}

TEST(GraphIoTest, SelfLoopRejected) {
  std::stringstream buffer("sight-graph v1\n3 1\n1 1\n");
  EXPECT_FALSE(LoadGraph(&buffer).ok());
}

TEST(GraphIoTest, DuplicateEdgeRejected) {
  std::stringstream buffer("sight-graph v1\n3 2\n0 1\n1 0\n");
  EXPECT_EQ(LoadGraph(&buffer).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(GraphIoTest, EdgeCountMismatchRejected) {
  std::stringstream buffer("sight-graph v1\n3 2\n0 1\n");
  EXPECT_FALSE(LoadGraph(&buffer).ok());
}

TEST(GraphIoTest, FileRoundTrip) {
  SocialGraph original = SampleGraph();
  std::string path = ::testing::TempDir() + "/sight_graph_io_test.txt";
  ASSERT_TRUE(SaveGraphToFile(original, path).ok());
  auto loaded = LoadGraphFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumEdges(), original.NumEdges());
}

TEST(GraphIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(LoadGraphFromFile("/nonexistent/nope.txt").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace sight::io
