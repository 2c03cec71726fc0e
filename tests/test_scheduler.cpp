// Scheduler: allocation invariants, FCFS/backfill, drain/down semantics,
// error-induced failure, finalization.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "slurm/accounting.h"
#include "slurm/scheduler.h"

namespace sl = gpures::slurm;
namespace cl = gpures::cluster;
namespace ct = gpures::common;
namespace des = gpures::des;

namespace {

sl::JobRequest make_req(ct::TimePoint submit, std::int32_t gpus,
                        double duration_s) {
  sl::JobRequest r;
  r.submit = submit;
  r.gpus = gpus;
  r.duration_s = duration_s;
  r.walltime_s = 48.0 * 3600.0;
  r.name = "test_job";
  return r;
}

struct Fixture {
  cl::Topology topo{cl::ClusterSpec::small(2, 0)};  // 2 nodes x 4 GPUs
  des::Engine engine{0};
  sl::Scheduler sched{engine, topo, sl::SchedulerConfig{}, ct::Rng(1)};
};

}  // namespace

TEST(Scheduler, StartsJobImmediatelyWhenFree) {
  Fixture f;
  const auto id = f.sched.submit(make_req(0, 4, 100));
  EXPECT_EQ(f.sched.running(), 1u);
  EXPECT_EQ(f.sched.queued(), 0u);
  EXPECT_EQ(f.sched.free_gpus(), 4);
  EXPECT_TRUE(f.sched.job_on_gpu({0, 0}).has_value());
  EXPECT_EQ(*f.sched.job_on_gpu({0, 0}), id);
}

TEST(Scheduler, JobCompletesAndRecords) {
  Fixture f;
  f.sched.submit(make_req(0, 2, 100));
  f.engine.run();
  ASSERT_EQ(f.sched.records().size(), 1u);
  const auto& rec = f.sched.records()[0];
  EXPECT_EQ(rec.start, 0);
  EXPECT_EQ(rec.end, 100);
  EXPECT_EQ(rec.gpus, 2);
  EXPECT_EQ(rec.nodes, 1);
  ASSERT_EQ(rec.gpu_list.size(), 2u);
  EXPECT_EQ(f.sched.free_gpus(), 8);
  EXPECT_EQ(f.sched.running(), 0u);
}

TEST(Scheduler, NoOversubscription) {
  Fixture f;  // 8 GPUs total
  for (int i = 0; i < 5; ++i) f.sched.submit(make_req(0, 4, 1000));
  EXPECT_EQ(f.sched.running(), 2u);
  EXPECT_EQ(f.sched.queued(), 3u);
  EXPECT_EQ(f.sched.free_gpus(), 0);
  // Distinct jobs never share a GPU.
  std::set<sl::JobId> owners;
  for (std::int32_t n = 0; n < 2; ++n) {
    for (std::int32_t s = 0; s < 4; ++s) {
      const auto id = f.sched.job_on_gpu({n, s});
      ASSERT_TRUE(id.has_value());
      owners.insert(*id);
    }
  }
  EXPECT_EQ(owners.size(), 2u);
}

TEST(Scheduler, QueuedJobStartsWhenResourcesFree) {
  Fixture f;
  f.sched.submit(make_req(0, 8, 100));   // fills both nodes
  f.sched.submit(make_req(0, 8, 100));   // queued
  EXPECT_EQ(f.sched.queued(), 1u);
  f.engine.run();
  ASSERT_EQ(f.sched.records().size(), 2u);
  EXPECT_EQ(f.sched.records()[1].start, 100);  // second started after first
}

TEST(Scheduler, BackfillSmallJobPassesBlockedHead) {
  Fixture f;
  f.sched.submit(make_req(0, 6, 500));  // running (spans nodes)
  f.sched.submit(make_req(0, 8, 500));  // blocked head (needs all 8)
  const auto small = f.sched.submit(make_req(0, 2, 100));  // backfills now
  EXPECT_EQ(f.sched.running(), 2u);
  bool small_running = false;
  for (std::int32_t n = 0; n < 2; ++n) {
    for (std::int32_t s = 0; s < 4; ++s) {
      const auto id = f.sched.job_on_gpu({n, s});
      small_running |= id && *id == small;
    }
  }
  EXPECT_TRUE(small_running);
}

TEST(Scheduler, MultiNodeAllocationSpansNodes) {
  Fixture f;
  f.sched.submit(make_req(0, 8, 100));
  f.engine.run();
  const auto& rec = f.sched.records()[0];
  EXPECT_EQ(rec.nodes, 2);
  EXPECT_EQ(rec.node_list.size(), 2u);
  EXPECT_EQ(rec.gpu_list.size(), 8u);
}

TEST(Scheduler, DrainStopsNewWorkNodeUpResumes) {
  Fixture f;
  f.sched.drain_node(0);
  f.sched.drain_node(1);
  f.sched.submit(make_req(0, 1, 50));
  EXPECT_EQ(f.sched.running(), 0u);
  EXPECT_EQ(f.sched.queued(), 1u);
  f.sched.node_up(1);
  EXPECT_EQ(f.sched.running(), 1u);
  EXPECT_FALSE(f.sched.node_schedulable(0));
  EXPECT_TRUE(f.sched.node_schedulable(1));
}

TEST(Scheduler, NodeDownKillsResidentJobs) {
  Fixture f;
  const auto a = f.sched.submit(make_req(0, 4, 1000));  // node 0
  f.sched.submit(make_req(0, 4, 1000));                 // node 1
  f.engine.run_until(10);
  f.sched.node_down(0);
  ASSERT_EQ(f.sched.records().size(), 1u);
  EXPECT_EQ(f.sched.records()[0].id, a);
  EXPECT_EQ(f.sched.records()[0].state, sl::JobState::kNodeFail);
  EXPECT_EQ(f.sched.records()[0].end, 10);
  EXPECT_EQ(f.sched.running(), 1u);
}

TEST(Scheduler, NodeDownKillsMultiNodeJobEntirely) {
  Fixture f;
  f.sched.submit(make_req(0, 8, 1000));  // spans both nodes
  f.engine.run_until(5);
  f.sched.node_down(1);
  ASSERT_EQ(f.sched.records().size(), 1u);
  EXPECT_EQ(f.sched.records()[0].state, sl::JobState::kNodeFail);
  // GPUs on the *other* node were released too.  The free counter tracks
  // slot occupancy; schedulability is a separate per-node flag.
  EXPECT_TRUE(f.sched.node_schedulable(0));
  EXPECT_FALSE(f.sched.node_schedulable(1));
  EXPECT_EQ(f.sched.free_gpus(), 8);
  // New work lands only on the surviving node.
  f.sched.submit(make_req(5, 4, 10));
  EXPECT_EQ(f.sched.running(), 1u);
  EXPECT_TRUE(f.sched.job_on_gpu({0, 0}).has_value());
  EXPECT_FALSE(f.sched.job_on_gpu({1, 0}).has_value());
}

TEST(Scheduler, FailJobEndsEarlyWithChosenState) {
  Fixture f;
  const auto id = f.sched.submit(make_req(0, 1, 1000));
  f.engine.run_until(100);
  f.sched.fail_job(id, sl::JobState::kFailed, 107);
  ASSERT_EQ(f.sched.records().size(), 1u);
  EXPECT_EQ(f.sched.records()[0].end, 107);
  EXPECT_EQ(f.sched.records()[0].state, sl::JobState::kFailed);
  EXPECT_EQ(f.sched.records()[0].exit_code, 1);
  // The cancelled natural-end event must not double-finish the job.
  f.engine.run();
  EXPECT_EQ(f.sched.records().size(), 1u);
  // Failing an already-finished job is a no-op.
  f.sched.fail_job(id, sl::JobState::kNodeFail, 200);
  EXPECT_EQ(f.sched.records().size(), 1u);
}

TEST(Scheduler, TimeoutStateForWalltimeBoundJobs) {
  Fixture f;
  auto req = make_req(0, 1, 48.0 * 3600.0);
  req.walltime_s = 48.0 * 3600.0;
  f.sched.submit(req);
  f.engine.run();
  ASSERT_EQ(f.sched.records().size(), 1u);
  EXPECT_EQ(f.sched.records()[0].state, sl::JobState::kTimeout);
}

TEST(Scheduler, DrainTimeEstimate) {
  Fixture f;
  f.sched.submit(make_req(0, 4, 500));  // node 0
  f.engine.run_until(100);
  EXPECT_EQ(f.sched.drain_time_estimate(0, 100, 10000), 400);
  EXPECT_EQ(f.sched.drain_time_estimate(0, 100, 300), 300);  // capped
  EXPECT_EQ(f.sched.drain_time_estimate(1, 100, 10000), 0);  // idle node
}

TEST(Scheduler, FinalizeTruncatesRunningJobs) {
  Fixture f;
  f.sched.submit(make_req(0, 2, 1000000));
  f.sched.submit(make_req(0, 8, 50));  // queued behind? no: 6 GPUs free -> runs
  f.engine.run_until(200);
  f.sched.finalize(200);
  EXPECT_EQ(f.sched.running(), 0u);
  EXPECT_EQ(f.sched.queued(), 0u);
  bool found_truncated = false;
  for (const auto& r : f.sched.records()) {
    if (r.end == 200 && r.state == sl::JobState::kCancelled) {
      found_truncated = true;
    }
  }
  EXPECT_TRUE(found_truncated);
}

TEST(Scheduler, JobsOnNodeLists) {
  Fixture f;
  // The rotating first-fit cursor spreads successive small jobs over nodes.
  const auto a = f.sched.submit(make_req(0, 2, 100));
  const auto b = f.sched.submit(make_req(0, 2, 100));
  const auto c = f.sched.submit(make_req(0, 2, 100));
  const auto on0 = f.sched.jobs_on_node(0);
  const auto on1 = f.sched.jobs_on_node(1);
  EXPECT_EQ(on0.size(), 2u);  // a and c wrap back to node 0
  EXPECT_EQ(on1.size(), 1u);
  EXPECT_NE(std::find(on0.begin(), on0.end(), a), on0.end());
  EXPECT_NE(std::find(on1.begin(), on1.end(), b), on1.end());
  EXPECT_NE(std::find(on0.begin(), on0.end(), c), on0.end());
}

TEST(Scheduler, EightWayNodesAcceptWideSingleNodeJobs) {
  cl::Topology topo{cl::ClusterSpec::small(0, 1)};  // one 8-way node
  des::Engine engine{0};
  sl::Scheduler sched{engine, topo, sl::SchedulerConfig{}, ct::Rng(2)};
  sched.submit(make_req(0, 8, 10));
  EXPECT_EQ(sched.running(), 1u);
  engine.run();
  EXPECT_EQ(sched.records()[0].nodes, 1);
}

TEST(Scheduler, RecordsCountJobsExactly) {
  Fixture f;
  for (int i = 0; i < 50; ++i) {
    f.sched.submit(make_req(i, 1 + i % 4, 20 + i));
  }
  f.engine.run();
  f.sched.finalize(1000000);
  EXPECT_EQ(f.sched.records().size(), 50u);
  std::set<sl::JobId> ids;
  for (const auto& r : f.sched.records()) {
    ids.insert(r.id);
    EXPECT_EQ(static_cast<std::size_t>(r.gpus), r.gpu_list.size());
    EXPECT_GE(r.end, r.start);
  }
  EXPECT_EQ(ids.size(), 50u);
}

// ---- placement tie-breaks ----

TEST(SchedulerPlacement, RotatingCursorWrapsAround) {
  cl::Topology topo{cl::ClusterSpec::small(3, 0)};  // 3 nodes x 4 GPUs
  des::Engine engine{0};
  sl::Scheduler sched{engine, topo, sl::SchedulerConfig{}, ct::Rng(1)};
  const auto a = sched.submit(make_req(0, 2, 10));    // node 0, cursor -> 1
  const auto b = sched.submit(make_req(0, 4, 1000));  // node 1, cursor -> 2
  const auto c = sched.submit(make_req(0, 4, 1000));  // node 2, cursor -> 0
  const auto d = sched.submit(make_req(0, 2, 1000));  // node 0, cursor -> 1
  EXPECT_EQ(sched.job_on_gpu({0, 0}), a);
  EXPECT_EQ(sched.job_on_gpu({1, 0}), b);
  EXPECT_EQ(sched.job_on_gpu({2, 0}), c);
  EXPECT_EQ(sched.job_on_gpu({0, 2}), d);
  EXPECT_EQ(sched.free_gpus(), 0);
  engine.run_until(20);  // a ends: node 0 has slots 0 and 1 free
  // The search starts at the cursor (node 1), finds nodes 1 and 2 full,
  // and wraps to node 0.
  const auto e = sched.submit(make_req(20, 2, 1000));
  EXPECT_EQ(sched.job_on_gpu({0, 0}), e);
  EXPECT_EQ(sched.job_on_gpu({0, 1}), e);
  EXPECT_EQ(sched.free_gpus(), 0);
}

TEST(SchedulerPlacement, FragmentedSmallRequestSpreadsOverNodes) {
  Fixture f;  // 2 nodes x 4 GPUs
  f.sched.submit(make_req(0, 3, 1000));  // node 0
  f.sched.submit(make_req(0, 3, 1000));  // node 1
  // Two GPUs are free, one per node: no single node hosts a 2-GPU job, so
  // it spreads, the tie on free count going to the lower node first.
  const auto id = f.sched.submit(make_req(0, 2, 100));
  EXPECT_EQ(f.sched.running(), 3u);
  EXPECT_EQ(f.sched.free_gpus(), 0);
  f.engine.run_until(100);
  ASSERT_EQ(f.sched.records().size(), 1u);
  const auto& rec = f.sched.records()[0];
  EXPECT_EQ(rec.id, id);
  EXPECT_EQ(rec.nodes, 2);
  EXPECT_EQ(rec.gpu_list, (std::vector<gpures::xid::GpuId>{{0, 3}, {1, 3}}));
}

TEST(SchedulerPlacement, DrainedNodeWithFreeGpusIsSkipped) {
  Fixture f;
  f.sched.drain_node(0);  // all four of its GPUs stay free
  const auto a = f.sched.submit(make_req(0, 2, 1000));
  EXPECT_EQ(f.sched.jobs_on_node(0).size(), 0u);
  EXPECT_EQ(f.sched.job_on_gpu({1, 0}), a);
  // Six GPUs are free but only two are schedulable: a 4-GPU job waits,
  // neither taking the drained node nor spreading onto it.
  f.sched.submit(make_req(0, 4, 1000));
  EXPECT_EQ(f.sched.free_gpus(), 6);
  EXPECT_EQ(f.sched.running(), 1u);
  EXPECT_EQ(f.sched.queued(), 1u);
}

TEST(SchedulerPlacement, NodeUpMakesNodeEligibleAgain) {
  Fixture f;
  f.sched.node_down(0);
  f.sched.submit(make_req(0, 4, 1000));  // node 1
  const auto waiting = f.sched.submit(make_req(0, 4, 1000));
  EXPECT_EQ(f.sched.queued(), 1u);
  f.sched.node_up(0);  // the queued job starts on the returning node
  EXPECT_EQ(f.sched.queued(), 0u);
  for (std::int32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(f.sched.job_on_gpu({0, s}), waiting);
  }
  EXPECT_EQ(f.sched.free_gpus(), 0);
}

TEST(SchedulerPlacement, FreestNodesFirstTiesToLowerIndex) {
  cl::Topology topo{cl::ClusterSpec::small(3, 0)};  // 3 nodes x 4 GPUs
  des::Engine engine{0};
  sl::Scheduler sched{engine, topo, sl::SchedulerConfig{}, ct::Rng(1)};
  sched.submit(make_req(0, 3, 1000));  // node 0: 1 free
  sched.submit(make_req(0, 1, 1000));  // node 1: 3 free
  sched.submit(make_req(0, 1, 1000));  // node 2: 3 free
  // Five GPUs fit on no node: take the freest nodes, node 1 before node 2
  // on the tie, each in slot order, and stop part-way through node 2.
  const auto id = sched.submit(make_req(0, 5, 10));
  EXPECT_EQ(sched.free_gpus(), 2);
  EXPECT_FALSE(sched.job_on_gpu({0, 3}).has_value());
  EXPECT_FALSE(sched.job_on_gpu({2, 3}).has_value());
  engine.run_until(10);
  ASSERT_EQ(sched.records().size(), 1u);
  const auto& rec = sched.records()[0];
  EXPECT_EQ(rec.id, id);
  EXPECT_EQ(rec.node_list, (std::vector<std::int32_t>{1, 2}));
  EXPECT_EQ(rec.gpu_list, (std::vector<gpures::xid::GpuId>{
                              {1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 2}}));
}

TEST(SchedulerPlacement, SeededFleetScenarioMatchesPinnedAccountingDump) {
  // A 1,000-node mixed 4-/8-GPU fleet under a seeded mix of submissions of
  // every size, time steps, error kills, drains, downs and returns.  The
  // rendered accounting dump pins every placement decision the scheduler
  // made, so any change to the tie-breaks shows up as a different hash.
  cl::Topology topo{cl::ClusterSpec::scaled(940, 60)};
  const ct::TimePoint t0 = 1'640'995'200;  // 2022-01-01T00:00:00Z
  des::Engine engine{t0};
  sl::Scheduler sched{engine, topo, sl::SchedulerConfig{}, ct::Rng(2025)};
  ct::Rng rng(17);
  constexpr std::int32_t kSizes[] = {1, 1, 1, 2, 2, 3,  4,  4,
                                     6, 8, 8, 12, 16, 32, 64, 200};
  std::vector<sl::JobId> ids;
  const auto pick_node = [&] {
    return static_cast<std::int32_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(topo.node_count())));
  };
  for (int step = 0; step < 20000; ++step) {
    const auto op = rng.uniform_u64(100);
    if (op < 60) {
      auto req = make_req(engine.now(), kSizes[rng.uniform_u64(16)],
                          rng.uniform(60.0, 5.0 * 3600.0));
      req.walltime_s = 4.0 * 3600.0;
      req.duration_s = std::min(req.duration_s, req.walltime_s);
      ids.push_back(sched.submit(req));
    } else if (op < 85) {
      engine.run_until(engine.now() +
                       static_cast<ct::Duration>(rng.uniform_u64(600)));
    } else if (op < 90) {
      if (ids.empty()) continue;
      sched.fail_job(ids[rng.uniform_u64(ids.size())], sl::JobState::kFailed,
                     engine.now() +
                         static_cast<ct::Duration>(rng.uniform_u64(20)));
    } else if (op < 94) {
      sched.drain_node(pick_node());
    } else if (op < 96) {
      sched.node_down(pick_node());
    } else {
      sched.node_up(pick_node());
    }
  }
  sched.finalize(engine.now());

  std::string dump(sl::kAccountingHeader);
  dump += '\n';
  std::size_t multi_node = 0;
  for (const auto& rec : sched.records()) {
    sl::append_accounting_line(dump, rec, topo);
    dump += '\n';
    multi_node += rec.nodes > 1;
  }
  EXPECT_EQ(sched.records().size(), 12131u);
  EXPECT_GT(multi_node, 500u);
  EXPECT_EQ(ct::xxhash64(dump), 0x3eed1dbdf5fb5c08ull) << std::hex << ct::xxhash64(dump);
}
