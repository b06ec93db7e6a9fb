// parallel_for correctness across every schedule kind, chunk and thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include "src/common/error.hpp"
#include "src/parallel/parallel_for.hpp"

namespace ebem::par {
namespace {

struct Case {
  ScheduleKind kind;
  std::size_t chunk;
  std::size_t threads;
  std::size_t n;
};

class ParallelForSweep : public ::testing::TestWithParam<Case> {};

TEST_P(ParallelForSweep, EveryIndexVisitedExactlyOnce) {
  const Case c = GetParam();
  std::vector<std::atomic<int>> visits(c.n);
  ThreadPool pool(c.threads);
  parallel_for(pool, c.n, {c.kind, c.chunk},
               [&](std::size_t i) { visits[i].fetch_add(1, std::memory_order_relaxed); });
  for (std::size_t i = 0; i < c.n; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST_P(ParallelForSweep, ChunkedVariantCoversDisjointRanges) {
  const Case c = GetParam();
  std::vector<std::atomic<int>> visits(c.n);
  ThreadPool pool(c.threads);
  parallel_for_chunks(pool, c.n, {c.kind, c.chunk}, [&](ChunkRange range, std::size_t tid) {
    EXPECT_LT(tid, c.threads);
    EXPECT_LT(range.begin, range.end);
    for (std::size_t i = range.begin; i < range.end; ++i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < c.n; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

std::vector<Case> sweep_cases() {
  std::vector<Case> cases;
  for (ScheduleKind kind : {ScheduleKind::kStatic, ScheduleKind::kDynamic, ScheduleKind::kGuided}) {
    for (std::size_t chunk : {std::size_t{0}, std::size_t{1}, std::size_t{4}, std::size_t{64}}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{100}}) {
          cases.push_back({kind, chunk, threads, n});
        }
      }
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string kind = c.kind == ScheduleKind::kStatic    ? "Static"
                     : c.kind == ScheduleKind::kDynamic ? "Dynamic"
                                                        : "Guided";
  return kind + "_c" + std::to_string(c.chunk) + "_t" + std::to_string(c.threads) + "_n" +
         std::to_string(c.n);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelForSweep, ::testing::ValuesIn(sweep_cases()), case_name);

TEST(StaticChunks, DefaultBlockPartitionIsContiguousAndEven) {
  // 10 iterations over 3 threads: blocks of 4, 3, 3.
  const auto t0 = static_chunks_for_thread(10, 3, 0, 0);
  const auto t1 = static_chunks_for_thread(10, 3, 1, 0);
  const auto t2 = static_chunks_for_thread(10, 3, 2, 0);
  ASSERT_EQ(t0.size(), 1u);
  EXPECT_EQ(t0[0].begin, 0u);
  EXPECT_EQ(t0[0].end, 4u);
  EXPECT_EQ(t1[0].begin, 4u);
  EXPECT_EQ(t1[0].end, 7u);
  EXPECT_EQ(t2[0].begin, 7u);
  EXPECT_EQ(t2[0].end, 10u);
}

TEST(StaticChunks, RoundRobinChunked) {
  // 10 iterations, 2 threads, chunk 3: t0 gets [0,3) and [6,9); t1 [3,6), [9,10).
  const auto t0 = static_chunks_for_thread(10, 2, 0, 3);
  const auto t1 = static_chunks_for_thread(10, 2, 1, 3);
  ASSERT_EQ(t0.size(), 2u);
  ASSERT_EQ(t1.size(), 2u);
  EXPECT_EQ(t0[0].begin, 0u);
  EXPECT_EQ(t0[1].begin, 6u);
  EXPECT_EQ(t1[0].begin, 3u);
  EXPECT_EQ(t1[1].begin, 9u);
  EXPECT_EQ(t1[1].end, 10u);
}

TEST(StaticChunks, ThreadWithNoWorkGetsNothing) {
  // 2 iterations, 8 threads, chunk 1: threads 2..7 idle (the paper's
  // "some processors do not get any work" regime).
  for (std::size_t tid = 2; tid < 8; ++tid) {
    EXPECT_TRUE(static_chunks_for_thread(2, 8, tid, 1).empty());
  }
}

TEST(StaticChunks, PartitionIsCompleteAndDisjoint) {
  for (std::size_t chunk : {std::size_t{0}, std::size_t{1}, std::size_t{5}}) {
    std::set<std::size_t> seen;
    for (std::size_t tid = 0; tid < 4; ++tid) {
      for (const ChunkRange& r : static_chunks_for_thread(37, 4, tid, chunk)) {
        for (std::size_t i = r.begin; i < r.end; ++i) {
          EXPECT_TRUE(seen.insert(i).second) << "duplicate index " << i;
        }
      }
    }
    EXPECT_EQ(seen.size(), 37u);
  }
}

TEST(GuidedChunkSize, ProportionalWithFloor) {
  EXPECT_EQ(guided_chunk_size(100, 4, 1), 12u);  // remaining / (2p)
  EXPECT_EQ(guided_chunk_size(7, 4, 1), 1u);
  EXPECT_EQ(guided_chunk_size(7, 4, 4), 4u);
  EXPECT_EQ(guided_chunk_size(1, 8, 1), 1u);
}

TEST(ParallelFor, SumReductionMatchesSequential) {
  const std::size_t n = 5000;
  std::vector<double> data(n);
  std::iota(data.begin(), data.end(), 1.0);
  const double expected = std::accumulate(data.begin(), data.end(), 0.0);

  std::atomic<long long> sum_milli{0};
  ThreadPool pool(4);
  parallel_for(pool, n, Schedule::guided(2), [&](std::size_t i) {
    sum_milli.fetch_add(static_cast<long long>(data[i] * 1000.0), std::memory_order_relaxed);
  });
  EXPECT_DOUBLE_EQ(static_cast<double>(sum_milli.load()) / 1000.0, expected);
}

TEST(ParallelFor, ExceptionsPropagateToCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(parallel_for(pool, 100, Schedule::dynamic(1),
                            [&](std::size_t i) {
                              if (i == 57) throw std::runtime_error("worker failure");
                            }),
               std::runtime_error);
  // Pool stays usable after an exception.
  std::atomic<int> count{0};
  parallel_for(pool, 10, Schedule::dynamic(1), [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, RunsEveryThreadOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](std::size_t tid) { hits[tid].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossRegions) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run([&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(ThreadPool, ZeroThreadsRejected) { EXPECT_THROW(ThreadPool{0}, InvalidArgument); }

TEST(ScheduleToString, MatchesPaperLabels) {
  EXPECT_EQ(to_string(Schedule::dynamic(1)), "Dynamic,1");
  EXPECT_EQ(to_string(Schedule::static_chunked(64)), "Static,64");
  EXPECT_EQ(to_string(Schedule::guided(16)), "Guided,16");
  EXPECT_EQ(to_string(Schedule::static_blocked()), "Static");
}

}  // namespace
}  // namespace ebem::par
